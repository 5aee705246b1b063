"""Heat traces: spectral sums, Plancherel integrals, geometric expansions.

The geometric heat trace at time t is an identity contribution
dim_chi * volume * integral of exp(-t lambda^2) against the Plancherel
density, in closed form by Gamma factors, plus a hyperbolic contribution
summing the per-power symbols against the scalar heat kernel on the length
axis. One gated setup and one per-time total serve a single time, returned
with its tail bound as a SeriesValue, and a time grid alike. The bound is
the series' per-class tail of the dropped powers, since past lmax the kernel
exp(-L^2 / 4t) is at most exp(-L lmax / 4t); it holds at any t > 0 where
every class's ratio q_c = r_c exp(-(|rho| + lmax/4t) l0_c) is below 1, and
the plan refuses it elsewhere, naming a longer cutoff. The setup makes the
plan's other refusals for a time and a grid alike: a cutoff below the
shortest class, and an overflowing twist trace the kernel reaches. The
spectral sum and the geometric expansion are never assumed to agree here;
the resolvent identities downstream test that through independent routes.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .chars import CharacterTable
from .errors import DomainError, ValidationError
from .plancherel import PlancherelPolynomial, plancherel_polynomial
from .spectra import EigenSpectrum, LengthSpectrum
from .summation import BLOCK, chunked_sum
from .zeta import SeriesValue, TruncationPolicy, _sigma_table

# exp(x) is exactly 0 in double precision for every x below this
_EXP_UNDERFLOW = -746.0


def _check_time(t: float) -> None:
    if not 0 < t < math.inf:  # NaN fails this too
        raise ValidationError(f"heat time must be positive and finite, got {t!r}")


def spectral_heat_trace(es: EigenSpectrum, t: float) -> complex:
    """sum_k m_k exp(-t t_k) over the eigenvalue parameters."""
    _check_time(t)
    return complex(sum(m * np.exp(-t * tk) for tk, m in es.entries))


def plancherel_heat_integral(P: PlancherelPolynomial, t: float) -> complex:
    """integral over the real line of exp(-t lambda^2) P(i lambda) d lambda,
    exactly, as the sum over m of c_m (-1)^m Gamma(m + 1/2) t^-(m + 1/2).

    P(i lambda) is a positive constant times a product of factors
    lambda^2 + w^2, so every term has the same sign and nothing cancels,
    at any degree. A time so small that a term overflows is refused.
    """
    _check_time(t)
    try:
        acc = 0j
        for m, c in enumerate(P.coeffs):
            acc += c * (-1) ** m * math.gamma(m + 0.5) * t ** (-(m + 0.5))
        if cmath.isfinite(acc):
            return acc
    except OverflowError:
        pass
    raise DomainError(f"identity heat term overflows at t = {t!r}; raise t")


def _reached(length: float, t: float) -> bool:
    """Whether the heat kernel exp(-length^2 / 4t) is nonzero in double
    precision, that is its exponent at least _EXP_UNDERFLOW."""
    return -(length ** 2) / (4.0 * t) >= _EXP_UNDERFLOW


def _kernel_scale(t: float) -> float:
    """sqrt(4 pi t), the scalar heat kernel's normalization, also at a time
    so long that 4 pi t overflows."""
    scale = math.sqrt(4.0 * math.pi * t)
    return scale if scale < math.inf else math.sqrt(4.0 * math.pi) * math.sqrt(t)


def _hyperbolic_sum(plan, sigma_table: CharacterTable, t: float) -> complex:
    """The hyperbolic contribution at time t: the plan's heat prefactors
    against the scalar heat kernel exp(-L^2 / 4t) / sqrt(4 pi t), summed
    one plan chunk at a time. The lengths ascend, so once the exponent
    -L^2 / 4t falls below _EXP_UNDERFLOW the kernel is 0 from there on:
    the sum skips every chunk whose first exponent is below it, and is 0
    when no chunk is left. In the chunk where it falls, only the powers
    before the first dead one are exponentiated; the terms are zero-filled
    to the end of that power's block, so every block partial is the whole
    chunk's, and the blocks after it, exact zeros that add nothing, are
    not summed."""
    live = [r for r in plan.chunks() if _reached(plan.length[r.start], t)]
    if not live:
        return 0j
    base = plan.heat_base(sigma_table)
    scale = _kernel_scale(t)

    def terms(r: slice) -> np.ndarray:
        exponent = -plan.length[r] ** 2 / (4.0 * t)
        if exponent[-1] >= _EXP_UNDERFLOW:
            return base[r] * (np.exp(exponent) / scale)
        # the exponents descend: the dead powers are the last ones
        dead = exponent.size - np.searchsorted(exponent[::-1], _EXP_UNDERFLOW)
        out = np.zeros(min(exponent.size, -(-dead // BLOCK) * BLOCK), dtype=complex)
        np.multiply(base[r][:dead], np.exp(exponent[:dead]) / scale, out=out[:dead])
        return out

    return chunked_sum(map(terms, live))


def _setup(ls: LengthSpectrum, sigma: Sequence[object], ts: Sequence[float], tp: TruncationPolicy):
    """The Plancherel polynomial, the plan and the sigma table of a sum at
    the times ts, looked up once after every time is checked, and the
    plan's refusals for the powers the longest time's kernel reaches (a
    shorter time's reaches fewer; an empty grid's, none)."""
    for t in ts:
        _check_time(t)
    P = plancherel_polynomial(ls.gd, sigma)
    plan = ls.power_table(tp.lmax)
    sig = _sigma_table(ls, sigma)
    plan.check(lambda length: bool(ts) and _reached(length, max(ts)))
    return P, plan, sig


def _total(ls: LengthSpectrum, P, plan, sig: CharacterTable, t: float) -> complex:
    """The geometric heat trace at time t: identity plus hyperbolic part."""
    return ls.dim_chi * ls.volume * plancherel_heat_integral(P, t) + _hyperbolic_sum(plan, sig, t)


def geometric_heat_trace(
    ls: LengthSpectrum, sigma: Sequence[object], t: float, tp: TruncationPolicy
) -> SeriesValue:
    """The geometric heat trace at time t, with a bound on the dropped
    powers, which is checked before anything is summed: past lmax,
    e^{-L^2/4t} is at most e^{-L lmax/4t}, so the plan's per-class tail at
    a = |rho| + lmax/4t with weight l0_c, times dim sigma / sqrt(4 pi t),
    bounds them. The plan's refusals come first (those of _setup, where the
    kernel is nonzero; class_tail, where some q_c >= 1), then tail_eps."""
    P, plan, sig = _setup(ls, sigma, (t,), tp)
    scale = sig.norm_bound() / _kernel_scale(t)
    tail = plan.class_tail(float(ls.gd.rho_norm) + tp.lmax / (4.0 * t), ls.l0, scale)
    if tail > tp.tail_eps:
        raise DomainError(
            f"certified heat tail {tail:.3e} exceeds tail_eps {tp.tail_eps:.1e} "
            f"at t = {t:g}; raise lmax above {tp.lmax:g}",
        )
    return SeriesValue(_total(ls, P, plan, sig, t), tail)


def heat_totals(
    ls: LengthSpectrum, sigma: Sequence[object], ts: np.ndarray, tp: TruncationPolicy
) -> np.ndarray:
    """Vector of geometric heat trace totals over a time grid, each equal
    to ``geometric_heat_trace(...).value`` at that time bit for bit; the
    plan refuses the grid as it refuses its longest time. Tail bounds are
    not re-certified per time; callers quantify their own error budget.
    """
    ts = np.asarray(ts, dtype=float)
    times = ts.ravel().tolist()
    P, plan, sig = _setup(ls, sigma, times, tp)
    totals = [_total(ls, P, plan, sig, t) for t in times]
    return np.array(totals, dtype=complex).reshape(ts.shape)
