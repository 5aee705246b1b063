"""Heat traces: spectral sums, Plancherel integrals, geometric expansions.

The geometric heat trace at time t is an identity contribution
dim_chi * volume * integral of exp(-t lambda^2) against the Plancherel
density, in closed form by Gamma factors, plus a hyperbolic contribution,
the plan's bounded sum of the per-power symbols against the scalar heat
kernel on the length axis, made for all the times of a call in one pass.
geometric_heat_trace gates each time and returns its tail bound in a
SeriesValue; heat_totals checks its longest time once and certifies no
tail. The bound is the series' per-class tail of the dropped powers, since
past lmax the kernel exp(-L^2 / 4t) is at most exp(-L lmax / 4t); it holds
at any t > 0 where every class's ratio q_c = r_c exp(-(|rho| + lmax/4t) l0_c)
is below 1, and class_tail refuses it elsewhere, naming a longer cutoff. The
spectral sum and the geometric expansion are never assumed to agree here;
the resolvent identities downstream test that through independent routes.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterator, Sequence

import numpy as np

from .chars import CharacterTable
from .errors import DomainError, ValidationError
from .plancherel import PlancherelPolynomial, plancherel_polynomial
from .spectra import EigenSpectrum, LengthSpectrum
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


def _reached(length: float, t):
    """Whether the heat kernel exp(-length^2 / 4t) is nonzero in double
    precision, that is its exponent at least _EXP_UNDERFLOW; elementwise for
    an array of times."""
    return -(length ** 2) / (4.0 * t) >= _EXP_UNDERFLOW


def _kernel_scale(t: float) -> float:
    """sqrt(4 pi t), the scalar heat kernel's normalization, also at a time
    so long that 4 pi t overflows."""
    scale = math.sqrt(4.0 * math.pi * t)
    return scale if scale < math.inf else math.sqrt(4.0 * math.pi) * math.sqrt(t)


def _hyperbolic_sums(plan, sig: CharacterTable, times: list[float], rho: float) -> list[complex]:
    """The hyperbolic contribution at each of times, in one pass: the plan's
    sums of the prefactors l0 tr chi char_sigma e^{-|rho| L} / det against
    the heat kernel exp(-L^2 / 4t) / sqrt(4 pi t). A chunk some kernel
    reaches makes its lengths, prefactors (det from the det column if built,
    else det_rows) and -L^2 once, then each such time's terms: the powers
    before the first with exponent below _EXP_UNDERFLOW, zero-filled to the
    end of the chunk, one summation block, so its partial is the whole
    block's; a chunk whose first power a time's kernel does not reach yields
    None. The lengths ascend, so the pass ends at the first chunk that no
    time's kernel reaches."""
    scales, grid = [_kernel_scale(t) for t in times], np.array(times, dtype=float)
    det = vars(plan).get("det")

    def terms(r: slice) -> Iterator[np.ndarray | None] | None:
        live = _reached(plan.length(r.start), grid).tolist()
        return live_terms(r, live) if any(live) else None

    def live_terms(r: slice, live: list[bool]) -> Iterator[np.ndarray | None]:
        length = plan.length(r)
        base = (plan.l0(r) * plan.chi_trace[r] * plan.character(sig)[r]
                * np.exp(-rho * length) / (plan.det_rows(r) if det is None else det[r]))
        square = -length ** 2
        for t, scale, reached in zip(times, scales, live):
            if not reached:
                yield None
                continue
            exponent = square / (4.0 * t)
            # the exponents descend: the dead powers are the last ones
            dead = exponent.size - np.searchsorted(exponent[::-1], _EXP_UNDERFLOW)
            out = np.zeros(exponent.size, dtype=complex)
            np.multiply(base[:dead], np.exp(exponent[:dead]) / scale, out=out[:dead])
            yield out

    return plan.sum(terms, len(times)) if times else []


def _setup(ls: LengthSpectrum, sigma: Sequence[object], ts: Sequence[float], tp: TruncationPolicy):
    """The Plancherel polynomial, the plan and the sigma table of a sum at
    the times ts, looked up once after every time is checked."""
    for t in ts:
        _check_time(t)
    return plancherel_polynomial(ls.gd, sigma), ls.power_table(tp.lmax), _sigma_table(ls, sigma)


def geometric_heat_trace(
    ls: LengthSpectrum, sigma: Sequence[object], ts: Sequence[float], tp: TruncationPolicy
) -> list[SeriesValue]:
    """The geometric heat trace at each time t of ts, with a bound on the
    dropped powers: past lmax, e^{-L^2/4t} is at most e^{-L lmax/4t}, so the
    spectrum's per-class tail at a = |rho| + lmax/4t with weight l0_c, times
    dim sigma / sqrt(4 pi t), bounds them. Time by time: the time check, the
    plan's gate (its refusals read the powers the kernel reaches) and the
    identity part; then one pass sums every hyperbolic part."""
    P, plan, sig = _setup(ls, sigma, ts[:1], tp)
    parts = []
    rho = float(ls.gd.rho_norm)
    for t in ts:
        _check_time(t)
        a, scale = rho + tp.lmax / (4.0 * t), sig.norm_bound() / _kernel_scale(t)
        tail = plan.gate(ls, lambda length: _reached(length, t), a, "l0", scale, True,
                         tp.tail_eps, ("heat ", f"t = {t:g}", ""))
        parts.append((ls.dim_chi * ls.volume * plancherel_heat_integral(P, t), tail))
    sums = _hyperbolic_sums(plan, sig, list(ts), rho)
    return [SeriesValue(identity + h, tail) for (identity, tail), h in zip(parts, sums)]


def heat_totals(
    ls: LengthSpectrum, sigma: Sequence[object], ts: np.ndarray, tp: TruncationPolicy
) -> np.ndarray:
    """Vector of geometric heat trace totals over a time grid, each equal
    to ``geometric_heat_trace`` at that time bit for bit; the plan refuses
    the grid as it refuses its longest time, whose kernel reaches the most
    powers (an empty grid's, none). Tail bounds are not certified per
    time; callers quantify their own error budget.
    """
    ts = np.asarray(ts, dtype=float)
    times = ts.ravel().tolist()
    P, plan, sig = _setup(ls, sigma, times, tp)
    plan.check(lambda length: bool(times) and _reached(length, max(times)))
    identities = [ls.dim_chi * ls.volume * plancherel_heat_integral(P, t) for t in times]
    hyperbolic = _hyperbolic_sums(plan, sig, times, float(ls.gd.rho_norm))
    totals = [i + h for i, h in zip(identities, hyperbolic)]
    return np.array(totals, dtype=complex).reshape(ts.shape)
