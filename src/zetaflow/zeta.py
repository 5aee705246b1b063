"""Geometric-side series: twisted zeta logarithms and the log derivative.

All series run over the power enumeration of a length spectrum, truncated
at a policy length. Each evaluator returns the deterministic block sum of
its terms together with a tail bound on the powers it drops: a document
lists finitely many classes, so past the cutoff only the powers j > J_c
of each class are missing, and their closed-form geometric tail per class
bounds them (the spectrum's class_tail). A point at or left of
abscissa_estimate is refused first, at every cutoff; right of it every
class's ratio q_c is below 1. Everything that does not depend on s (power
columns, det terms, the character of sigma, the refusals of
(spectrum, lmax) alone) comes from the prepared plan of
(spectrum, lmax), looked up once per call, whose gate takes the call's
series in turn and whose sum adds them all in one pass: every point of a
command-line grid (series_grid), or a factorization point's Ruelle series
and exterior pieces side by side, each chunk making and dropping the sigma
tensor psi characters. Only the factorization imports the branching
layer, inside its functions, so no other job loads it.

Sign conventions: log Z(s) = - sum over powers of
(1/j) tr chi char_sigma exp(-(s + |rho|) length) / det_term, the Ruelle
logarithm carries the same overall minus (odd ambient dimension), and the
log derivative is the literal s-derivative of log Z, a plus-signed series.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .chars import CharacterTable, TableSet, character_table, evaluate_all
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


def _sums(ls: LengthSpectrum, groups: Sequence[Sequence[tuple]],
          policy: TruncationPolicy) -> list[SeriesValue]:
    """Per group, its series (kind, tables, s) and their tails, each _added
    in turn. Series by series, the abscissa refusal and the plan's gate at
    a = Re s + |rho| (Re s, no det term, for Ruelle), weight 1/(J_c + 1) for
    the logs and l0_c for the log derivative; then one pass of the plan's
    sum. A series' characters: the plan's character of its first table times
    its other tables, which each chunk evaluates by one evaluate_all call of
    one TableSet. Each chunk derives its lengths once, and a series whose
    head, weight * tr chi * characters, is the previous series' reuses it."""
    plan = ls.power_table(policy.lmax)
    series = [item for group in groups for item in group]
    tails = []
    for kind, tables, s in series:
        abscissa = abscissa_estimate(ls, kind)
        if s.real <= abscissa:
            raise DomainError(
                f"series for kind {kind!r} does not converge at s = {s}: "
                f"Re(s) = {s.real:.6g} is at or left of the abscissa estimate {abscissa:.6g}",
            )
        ruelle = kind == "ruelle"
        a = s.real if ruelle else s.real + ls.gd.rho_norm
        tails.append(plan.gate(ls, lambda length: True, a, "l0" if kind == "logderiv" else "inv_j",
                               math.prod(t.norm_bound() for t in tables), not ruelle,
                               policy.tail_eps, ("", f"s = {s}", " or move s to the right")))
    others = TableSet(dict.fromkeys(t for _, tables, _ in series for t in tables[1:]))
    rho = float(ls.gd.rho_norm)

    def terms(r: slice) -> Iterator[np.ndarray]:
        values = dict(zip(others, evaluate_all(others, plan.angles(r)))) if others else {}
        length, key = plan.length(r), None
        for kind, tables, s in series:
            if key != (kind == "logderiv", tables):
                key = (kind == "logderiv", tables)
                chars = plan.character(tables[0])[r]
                for table in tables[1:]:
                    chars = chars * values[table]
                weight = plan.l0(r) if kind == "logderiv" else -plan.inv_j(r)
                head = weight * plan.chi_trace[r] * chars
            # np.multiply keeps head first: numpy's temporary elision may swap
            # `named * temporary` on long arrays, and complex products are not
            # bitwise commutative
            if kind == "ruelle":
                yield np.multiply(head, np.exp(-s * length))
            else:
                yield np.multiply(head, np.exp(-(s + rho) * length)) / plan.det[r]

    sums = zip(plan.sum(terms, len(series)), tails)
    return [_added(itertools.islice(sums, len(group))) for group in groups]


def _added(terms: Iterable[tuple[complex, float]]) -> SeriesValue:
    """The values added in turn to 0j, and the tails to 0."""
    total, tail = 0j, 0.0
    for value, bound in terms:
        total += value
        tail += bound
    return SeriesValue(total, tail)


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
    return series_grid("selberg", [s], sigma, ls, tp)[0]


def ruelle_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated log of the twisted Ruelle zeta at s, with tail bound."""
    return series_grid("ruelle", [s], sigma, ls, tp)[0]


def log_derivative(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Truncated logarithmic derivative of the Selberg zeta at s."""
    return series_grid("logderiv", [s], sigma, ls, tp)[0]


def series_grid(
    kind: str, points: Sequence[complex], sigma: Sequence[object], ls: LengthSpectrum,
    tp: TruncationPolicy,
) -> list[SeriesValue]:
    """The series of kind ("selberg", "ruelle" or "logderiv") at each of
    points, each bit for bit the one-point evaluator's: every point checked
    finite, then refused point by point in that order, then all summed in
    one pass."""
    sig = _sigma_table(ls, sigma)
    return _sums(ls, [[(kind, (sig,), s)] for s in map(_point, points)], tp)


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


def _factors(ls: LengthSpectrum, sig: CharacterTable, s: complex, powers: Sequence[int]):
    """For each p of powers, the series of the p-th factor at s: one at
    s + |rho| - p for each piece psi of the p-th power, twisted by sigma tensor psi."""
    from .branching import exterior_decomposition

    return [[("selberg", (sig, character_table("D", psi)), s + ls.gd.rho_norm - p)
             for psi in exterior_decomposition(ls.gd, p)] for p in powers]


def z_p_log(
    s: complex, p: int, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Log of the p-th factor in the exterior-power factorization: the sum
    over the pieces psi of the p-th exterior power of Selberg-type series
    twisted by psi tensor sigma, evaluated at s + |rho| - p."""
    return _sums(ls, _factors(ls, _sigma_table(ls, sigma), _point(s), [p]), tp)[0]


def ruelle_factorized_log(
    s: complex, sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> SeriesValue:
    """Alternating sum over p of z_p_log; agrees with ruelle_log term by
    term on the shared truncation. One point's own pass: a grid of points
    should call ruelle_factorization, which sums every point in one."""
    s = _point(s)
    sig = _sigma_table(ls, sigma)
    factors = _sums(ls, _factors(ls, sig, s, range(2 * ls.gd.n + 1)), tp)
    return _added(((-1) ** p * f.value, f.tail_bound) for p, f in enumerate(factors))


def ruelle_factorization(
    points: Sequence[complex], sigma: Sequence[object], ls: LengthSpectrum, tp: TruncationPolicy
) -> list[tuple[SeriesValue, SeriesValue]]:
    """(ruelle_log, ruelle_factorized_log) at each of points, refused point
    by point in that order, then summed in one pass."""
    sig = _sigma_table(ls, sigma)
    step = 2 * ls.gd.n + 2
    values = _sums(ls, [group for s in map(_point, points) for group in
                        [[("ruelle", (sig,), s)], *_factors(ls, sig, s, range(step - 1))]], tp)
    return [(values[i], _added(((-1) ** p * f.value, f.tail_bound)
                               for p, f in enumerate(values[i + 1:i + step])))
            for i in range(0, len(values), step)]


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
    from .branching import exterior_decomposition

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
    parts = [(p, character_table("D", psi)) for p in range(2 * gd.n + 1)
             for psi in exterior_decomposition(gd, p)]
    values = evaluate_all([psi for _, psi in parts], rows)
    pieces = [((-1) ** p, p - 2 * gd.n, chars.tolist()) for (p, _), chars in zip(parts, values)]
    out = []
    for i, (L, row) in enumerate(zip(lengths.tolist(), rows.tolist())):
        terms = [sign * math.exp(shift * L) * chars[i] for sign, shift, chars in pieces]
        num = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        out.append(num / det_term(gd, L, row))
    return out[0] if th.ndim == 1 else np.array(out, dtype=complex)
