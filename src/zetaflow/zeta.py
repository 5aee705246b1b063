"""Geometric-side series: twisted zeta logarithms and the log derivative.

All series run over the power enumeration of a length spectrum, truncated
at a policy length. Each evaluator returns the deterministic block sum of
its terms together with a tail bound on the powers it drops: a document
lists finitely many classes, so past the cutoff only the powers j > J_c
of each class are missing, and their closed-form geometric tail per class
bounds them (the plan's class_tail). A point at or left of
abscissa_estimate is refused first, at every cutoff; right of it every
class's ratio q_c is below 1. Everything that does
not depend on s (power columns, per-class power counts, det terms,
character products, the refusals of (spectrum, lmax) alone) comes from the
prepared plan of (spectrum, lmax), looked up once per point. Its gate and
sum, shared with the heat trace, make the refusals, the tail and the
chunk-by-chunk sum of the kernel a series passes in.
The exterior-power factorization imports the branching layer inside its
functions, so a job that sums no factorized series never loads it.

Sign conventions: log Z(s) = - sum over powers of
(1/j) tr chi char_sigma exp(-(s + |rho|) length) / det_term, the Ruelle
logarithm carries the same overall minus (odd ambient dimension), and the
log derivative is the literal s-derivative of log Z, a plus-signed series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .chars import CharacterTable, character_table, evaluate_all
from .errors import DomainError, ValidationError
from .spectra import LengthSpectrum
from .weights import GroupData


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation contract.

    lmax: include powers of length <= lmax.
    tail_eps: largest acceptable certified tail bound.
    """

    lmax: float
    tail_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lmax) and self.lmax > 0):
            raise ValidationError(f"lmax: expected positive and finite, got {self.lmax!r}")
        if not (self.tail_eps > 0):
            raise ValidationError(f"tail_eps: expected positive, got {self.tail_eps!r}")


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


def _series_value(
    ls: LengthSpectrum,
    tables: tuple[CharacterTable, ...],
    s: complex,
    policy: TruncationPolicy,
    kind: str,
) -> SeriesValue:
    """The series of kind at s and its tail, which the plan's gate takes at
    a = Re s + |rho| (Re s, no det term, for Ruelle) with weight 1/(J_c + 1)
    for the logarithms and l0_c for the log derivative."""
    plan = ls.power_table(policy.lmax)
    abscissa = abscissa_estimate(ls, kind)
    if s.real <= abscissa:
        raise DomainError(
            f"series for kind {kind!r} does not converge at s = {s}: "
            f"Re(s) = {s.real:.6g} is at or left of the abscissa estimate {abscissa:.6g}",
        )
    ruelle = kind == "ruelle"
    a = s.real if ruelle else s.real + ls.gd.rho_norm
    bound = ls.l0 if kind == "logderiv" else 1.0 / (plan.counts + 1.0)
    tail = plan.gate(lambda length: True, a, bound, math.prod(t.norm_bound() for t in tables),
                     not ruelle, policy.tail_eps, ("", f"s = {s}", " or move s to the right"))
    [chars] = plan.char_products((tables,))
    rho = float(ls.gd.rho_norm)
    if ruelle:
        def terms(r: slice) -> np.ndarray:
            return -plan.inv_j(r) * plan.chi_trace[r] * chars[r] * np.exp(-s * plan.length[r])
    else:
        def terms(r: slice) -> np.ndarray:
            weight = -plan.inv_j(r) if kind == "selberg" else plan.l0(r)
            return (weight * plan.chi_trace[r] * chars[r]
                    * np.exp(-(s + rho) * plan.length[r]) / plan.det[r])
    return SeriesValue(plan.sum(terms, lambda length: True), tail)


def _point(s: complex) -> complex:
    """s as a complex number; a non-finite point is refused before any
    plan is read."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValidationError(f"non-finite evaluation point s = {s}")
    return s


def _sigma_table(ls: LengthSpectrum, sigma: Sequence[object]) -> CharacterTable:
    return character_table("D", ls.gd.validate_m_weight(sigma))


def selberg_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated log of the twisted Selberg zeta at s, with tail bound."""
    return _series_value(ls, (_sigma_table(ls, sigma),), _point(s), tp, "selberg")


def ruelle_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated log of the twisted Ruelle zeta at s, with tail bound."""
    return _series_value(ls, (_sigma_table(ls, sigma),), _point(s), tp, "ruelle")


def log_derivative(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated logarithmic derivative of the Selberg zeta at s."""
    return _series_value(ls, (_sigma_table(ls, sigma),), _point(s), tp, "logderiv")


def abscissa_estimate(ls: LengthSpectrum, kind: str = "selberg") -> float:
    """Abscissa of absolute convergence: |rho| + k for Selberg-type series,
    2|rho| + k for Ruelle, where k is the certified twist growth rate."""
    if kind not in ("ruelle", "selberg", "logderiv"):
        raise ValidationError(f"unknown series kind {kind!r}")
    if not ls.l0.size:
        return -math.inf
    k = ls.twist_rate
    rho = ls.gd.rho_norm
    if kind == "ruelle":
        return 2.0 * rho + k
    return float(rho) + k


def z_p_log(
    s: complex, p: int, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Log of the p-th factor in the exterior-power factorization: the sum
    over the pieces psi of the p-th exterior power of Selberg-type series
    twisted by psi tensor sigma, evaluated at s + |rho| - p."""
    from .branching import exterior_decomposition

    gd = ls.gd
    sig = _sigma_table(ls, sigma)
    shifted = _point(s) + gd.rho_norm - p
    total = 0j
    tail = 0.0
    for psi in exterior_decomposition(gd, p):
        tables = (sig, character_table("D", psi))
        val = _series_value(ls, tables, shifted, tp, "selberg")
        total += val.value
        tail += val.tail_bound
    return SeriesValue(total, tail)


def _exterior_pieces(gd: GroupData) -> list[tuple[int, CharacterTable]]:
    """(p, table of psi) for each piece psi of each exterior power p = 0..2n."""
    from .branching import exterior_decomposition

    return [(p, character_table("D", psi))
            for p in range(0, 2 * gd.n + 1)
            for psi in exterior_decomposition(gd, p)]


def ruelle_factorized_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Alternating sum over p of z_p_log; agrees with ruelle_log term by
    term on the shared truncation. The products of sigma with every
    exterior piece are built first, in one pass over the plan."""
    s = _point(s)
    sig = _sigma_table(ls, sigma)
    ls.power_table(tp.lmax).char_products([(sig, psi) for _, psi in _exterior_pieces(ls.gd)])
    total = 0j
    tail = 0.0
    for p in range(0, 2 * ls.gd.n + 1):
        val = z_p_log(s, p, sigma, ls, tp)
        total += (-1) ** p * val.value
        tail += val.tail_bound
    return SeriesValue(total, tail)


def exterior_class_sum(
    gd: GroupData, length: float | Sequence[float], angles: Sequence[float] | np.ndarray
):
    """The per-class factorization bracket
    sum_p (-1)^p sum_psi e^{(p - 2n) length} char_psi(angles) / det_term,
    identically 1 for every length and angle vector.

    Takes one class, a length with an n-vector of angles, and returns a
    complex; or N classes, lengths (N,) with angles (N, n), and returns
    their brackets (N,). The exterior pieces are evaluated together on all
    rows, by one evaluate_all call; the sum over the pieces runs per class.
    """
    # The alternating sum cancels all the way down to det_term, so the
    # characters come from the exact weight expansion; alternant rounding
    # near its singular set would otherwise dominate the residual.
    th = np.asarray(angles, dtype=float)
    lengths = np.asarray(length, dtype=float).reshape(-1)
    if th.shape[-1:] != (gd.n,) or th.size != lengths.size * gd.n:
        raise ValidationError(
            f"expected {lengths.size} angle vectors of rank {gd.n}, got shape {th.shape}"
        )
    rows = th.reshape(-1, gd.n)
    parts = _exterior_pieces(gd)
    values = evaluate_all([psi for _, psi in parts], rows)
    pieces = [((-1) ** p, p - 2 * gd.n, chars.tolist()) for (p, _), chars in zip(parts, values)]
    out = []
    for i, (L, row) in enumerate(zip(lengths.tolist(), rows.tolist())):
        terms = [sign * math.exp(shift * L) * chars[i] for sign, shift, chars in pieces]
        num = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        out.append(num / det_term(gd, L, row))
    return out[0] if th.ndim == 1 else np.array(out, dtype=complex)
