"""Geometric-side series: twisted zeta logarithms and the log derivative.

All series run over the power enumeration of a length spectrum, truncated
at a policy length. Each evaluator returns the deterministic block sum of
its terms together with a certified tail bound obtained from the twist
growth certificate, the fitted counting constant, and integration by parts
against the majorant; the convergence abscissa is enforced by the bound
itself (the tail formula degenerates exactly when the series stops
converging absolutely, and that raises). Everything that does not depend
on s (power columns, certificate, counting constant, det terms, character
products) comes from the prepared plan of (spectrum, lmax), so a grid of
s-points pays for it once.

Sign conventions: log Z(s) = - sum over powers of
(1/j) tr chi char_sigma exp(-(s + |rho|) length) / det_term, the Ruelle
logarithm carries the same overall minus (odd ambient dimension), and the
log derivative is the literal s-derivative of log Z, a plus-signed series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .branching import exterior_decomposition
from .chars import CharacterTable, character_table, weyl_character
from .errors import DomainError, ValidationError
from .spectra import LengthSpectrum, certify_twist_growth, _PowerTable
from .summation import block_sum
from .weights import GroupData


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation contract.

    lmax: include powers of length <= lmax.
    tail_eps: largest acceptable certified tail bound.
    abscissa_margin: slack permitted to the left of the abscissa estimate
        before refusing outright; the tail bound still gates the result.
    """

    lmax: float
    tail_eps: float = 1e-8
    abscissa_margin: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise ValidationError(f"lmax: expected positive and finite, got {self.lmax!r}")
        if not (self.tail_eps > 0):
            raise ValidationError(f"tail_eps: expected positive, got {self.tail_eps!r}")
        if not math.isfinite(self.abscissa_margin):
            raise ValidationError(f"abscissa_margin: expected finite, got {self.abscissa_margin!r}")


class SeriesValue(NamedTuple):
    value: complex
    tail_bound: float


def det_term(gd: GroupData, length: float, angles: Sequence[float]) -> float:
    """prod_j (1 - 2 e^{-length} cos(theta_j) + e^{-2 length}), positive."""
    if len(angles) != gd.n:
        raise ValidationError(f"expected {gd.n} angles, got {len(angles)}")
    e = math.exp(-length)
    out = 1.0
    for th in angles:
        out *= 1.0 - 2.0 * e * math.cos(th) + e * e
    return out


def _char_product(table: _PowerTable, tables: tuple[CharacterTable, ...]) -> np.ndarray:
    key = tuple((t.family, t.highest) for t in tables)
    cached = table.char_products.get(key)
    if cached is not None:
        return cached
    acc = np.ones(table.size, dtype=complex)
    for t in tables:
        acc = acc * t.evaluate(table.angles)
    table.char_products[key] = acc
    return acc


def _tail_bound(
    ls: LengthSpectrum,
    table: _PowerTable,
    policy: TruncationPolicy,
    s: complex,
    *,
    kind: str,
    dim_eff: float,
) -> float:
    """Certified bound on the powers beyond policy.lmax, from the plan's
    certificate (K, k) and counting constant C'. C' is observed only up
    to lmax, so the bound rests on the prime-geodesic growth
    N(L) <= C' exp(2|rho| L) continuing past the cutoff."""
    if not table.size:
        return 0.0
    cert = certify_twist_growth(ls, policy.lmax)
    gd = ls.gd
    b = 2.0 * gd.rho_norm
    if kind == "ruelle":
        a = s.real - cert.k
    else:
        a = s.real + gd.rho_norm - cert.k
    gap = a - b
    if gap + policy.abscissa_margin <= 0:
        raise DomainError(
            f"series for kind {kind!r} does not converge at s = {s}: "
            f"Re(s) = {s.real:.6g} is left of the abscissa estimate "
            f"{abscissa_estimate(ls, None, kind=kind):.6g} by more than the "
            f"margin {policy.abscissa_margin:g}",
            s=s,
        )
    B = cert.K * dim_eff
    if kind != "ruelle":
        dmin = (1.0 - math.exp(-ls.systole)) ** (2 * gd.n)
        B /= dmin
    cprime = table.counting_constant
    if gap <= 0:
        tail = math.inf
    elif kind == "logderiv":
        tail = a * B * cprime * math.exp(-gap * policy.lmax) * (
            policy.lmax / gap + 1.0 / (gap * gap)
        )
    else:
        tail = cprime * B * (a / gap) * math.exp(-gap * policy.lmax)
    if tail > policy.tail_eps:
        raise DomainError(
            f"certified tail {tail:.3e} exceeds tail_eps {policy.tail_eps:.1e} at s = {s}; "
            f"raise lmax above {policy.lmax:g} or move s to the right",
            s=s,
        )
    return tail


def _series_value(
    ls: LengthSpectrum,
    tables: tuple[CharacterTable, ...],
    s: complex,
    policy: TruncationPolicy,
    kind: str,
) -> SeriesValue:
    if not ls.classes:
        return SeriesValue(0j, 0.0)
    table = ls.power_table(policy.lmax)
    dim_eff = 1.0
    for t in tables:
        dim_eff *= t.norm_bound()
    tail = _tail_bound(ls, table, policy, s, kind=kind, dim_eff=dim_eff)
    if not table.size:
        return SeriesValue(0j, tail)
    chars = _char_product(table, tables)
    rho = float(ls.gd.rho_norm)
    if kind == "selberg":
        terms = (
            -table.inv_j
            * table.chi_trace
            * chars
            * np.exp(-(s + rho) * table.length)
            / table.det
        )
    elif kind == "ruelle":
        terms = -table.inv_j * table.chi_trace * chars * np.exp(-s * table.length)
    elif kind == "logderiv":
        terms = (
            table.l0
            * table.chi_trace
            * chars
            * np.exp(-(s + rho) * table.length)
            / table.det
        )
    else:
        raise ValidationError(f"unknown series kind {kind!r}")
    return SeriesValue(block_sum(terms), tail)


def _sigma_table(ls: LengthSpectrum, sigma: Sequence[object]) -> CharacterTable:
    return character_table("D", ls.gd.validate_m_weight(sigma))


def selberg_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated log of the twisted Selberg zeta at s, with tail bound."""
    return _series_value(ls, (_sigma_table(ls, sigma),), complex(s), tp, "selberg")


def ruelle_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated log of the twisted Ruelle zeta at s, with tail bound."""
    return _series_value(ls, (_sigma_table(ls, sigma),), complex(s), tp, "ruelle")


def log_derivative(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated logarithmic derivative of the Selberg zeta at s."""
    return _series_value(ls, (_sigma_table(ls, sigma),), complex(s), tp, "logderiv")


def abscissa_estimate(
    ls: LengthSpectrum, sigma: Sequence[object] | None, kind: str = "selberg"
) -> float:
    """Abscissa of absolute convergence: |rho| + k for Selberg-type series,
    2|rho| + k for Ruelle, where k is the certified twist growth rate."""
    if not ls.classes:
        return -math.inf
    k = ls.twist_rate
    rho = ls.gd.rho_norm
    if kind == "ruelle":
        return 2.0 * rho + k
    if kind in ("selberg", "logderiv"):
        return float(rho) + k
    raise ValidationError(f"unknown series kind {kind!r}")


def z_p_log(
    s: complex, p: int, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Log of the p-th factor in the exterior-power factorization: the sum
    over the pieces psi of the p-th exterior power of Selberg-type series
    twisted by psi tensor sigma, evaluated at s + |rho| - p."""
    gd = ls.gd
    sig = _sigma_table(ls, sigma)
    shifted = complex(s) + gd.rho_norm - p
    total = 0j
    tail = 0.0
    for psi, _lam in exterior_decomposition(gd, p):
        tables = (sig, character_table("D", psi))
        val = _series_value(ls, tables, shifted, tp, "selberg")
        total += val.value
        tail += val.tail_bound
    return SeriesValue(total, tail)


def ruelle_factorized_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Alternating sum over p of z_p_log; agrees with ruelle_log term by
    term on the shared truncation."""
    total = 0j
    tail = 0.0
    for p in range(0, 2 * ls.gd.n + 1):
        val = z_p_log(s, p, sigma, ls, tp)
        total += (-1) ** p * val.value
        tail += val.tail_bound
    return SeriesValue(total, tail)


def exterior_class_sum(gd: GroupData, length: float, angles: Sequence[float]) -> complex:
    """The per-class factorization bracket
    sum_p (-1)^p sum_psi e^{(p - 2n) length} char_psi(angles) / det_term,
    identically 1 for every length and angle vector."""
    # The alternating sum cancels all the way down to det_term, so the
    # characters come from the exact weight expansion; alternant rounding
    # near its singular set would otherwise dominate the residual.
    th = np.asarray(angles, dtype=float)
    terms = []
    for p in range(0, 2 * gd.n + 1):
        for psi, _lam in exterior_decomposition(gd, p):
            char = weyl_character(psi, th, "D", route="weights")
            terms.append((-1) ** p * math.exp((p - 2 * gd.n) * length) * char)
    num = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return num / det_term(gd, length, tuple(th))
