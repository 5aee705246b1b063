"""Heat traces: spectral sums, Plancherel integrals, geometric expansions.

The geometric heat trace splits into an identity contribution
dim_chi * volume * integral of exp(-t lambda^2) against the Plancherel
density, in closed form by Gamma factors, and a hyperbolic contribution
summing the per-power symbols against the scalar heat kernel on the length
axis. Consistency between the spectral sum and the geometric expansion is
never assumed here; the resolvent identities downstream test it through
independent routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chars import CharacterTable, character_table
from .errors import DomainError, ValidationError
from .plancherel import PlancherelPolynomial, plancherel_polynomial
from .spectra import EigenSpectrum, LengthSpectrum
from .summation import chunked_sum
from .zeta import TruncationPolicy, empty_plan_error

# exp(x) is exactly 0 in double precision for every x below this
_EXP_UNDERFLOW = -746.0


@dataclass(frozen=True)
class HeatEvaluation:
    """Geometric heat trace at one time, split into its two contributions."""

    t: float
    identity_part: complex
    hyperbolic_part: complex
    tail_bound: float

    @property
    def total(self) -> complex:
        return self.identity_part + self.hyperbolic_part


def _check_time(t: float) -> None:
    if not t > 0:  # NaN fails this too
        raise ValidationError(f"heat time must be positive, got {t!r}")


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
    raise DomainError(f"identity heat term overflows at t = {t!r}; raise t", s=None)


def _hyperbolic_tail(
    ls: LengthSpectrum, plan, sigma_dim: float, t: float, policy: TruncationPolicy
) -> float:
    """Certified bound on the dropped powers of the Gaussian-damped series,
    from the plan (ls.power_table(policy.lmax)): its certificate (K, k),
    counting constant C' and det floor; C' is observed only up to lmax, as
    for the zeta tails. 0 for an empty spectrum; after the check that the
    tail is controllable at t, an lmax below the shortest class is refused."""
    if not ls.l0.size:
        return 0.0
    cert = plan.cert
    b = plan.b
    rho = float(plan.gd.rho_norm)
    lmax = policy.lmax
    beta = lmax / (4.0 * t) - (b + cert.k - rho)
    if beta <= 0:
        raise DomainError(
            f"heat tail not controllable at t = {t:g} with lmax = {lmax:g}; "
            f"need lmax > {4.0 * t * (b + cert.k - rho):g}",
            s=None,
        )
    if not plan.size:
        raise empty_plan_error(ls, lmax, None)
    B = cert.K * sigma_dim / plan.det_floor
    cprime = plan.counting_constant
    i1 = math.exp(-beta * lmax) * (lmax / beta + 1.0 / beta**2)
    i2 = math.exp(-beta * lmax) * (lmax**2 / beta + 2.0 * lmax / beta**2 + 2.0 / beta**3)
    tail = cprime * B * (i2 / (2.0 * t) + rho * i1) / math.sqrt(4.0 * math.pi * t)
    if tail > policy.tail_eps:
        raise DomainError(
            f"certified heat tail {tail:.3e} exceeds tail_eps {policy.tail_eps:.1e} "
            f"at t = {t:g}; raise lmax above {lmax:g}",
            s=None,
        )
    return tail


def _hyperbolic_sum(plan, sigma_table: CharacterTable, t: float) -> complex:
    """The hyperbolic contribution at time t: the plan's heat prefactors
    against the scalar heat kernel exp(-L^2 / 4t) / sqrt(4 pi t), summed
    one plan chunk at a time. The lengths ascend, so once the kernel
    underflows to 0 it stays 0: the sum skips every chunk whose first
    exponent is below _EXP_UNDERFLOW, as all its terms are 0, and is 0
    when no chunk is left."""
    live = [r for r in plan.chunks() if -(plan.length[r.start] ** 2) / (4.0 * t) >= _EXP_UNDERFLOW]
    if not live:
        return 0j
    base = plan.heat_base(sigma_table)
    scale = math.sqrt(4.0 * math.pi * t)
    return chunked_sum(base[r] * (np.exp(-plan.length[r] ** 2 / (4.0 * t)) / scale) for r in live)


def geometric_heat_trace(
    ls: LengthSpectrum, sigma: Sequence[object], t: float, tp: TruncationPolicy
) -> HeatEvaluation:
    """Identity plus hyperbolic heat contributions at time t, with a
    certified bound for the truncated hyperbolic tail."""
    _check_time(t)
    P = plancherel_polynomial(ls.gd, sigma)
    identity = ls.dim_chi * ls.volume * plancherel_heat_integral(P, t)
    plan = ls.power_table(tp.lmax)
    sig = character_table("D", ls.gd.validate_m_weight(sigma))
    tail = _hyperbolic_tail(ls, plan, sig.norm_bound(), t, tp)
    hyp = _hyperbolic_sum(plan, sig, t)
    return HeatEvaluation(t=t, identity_part=identity, hyperbolic_part=hyp, tail_bound=tail)


def heat_totals(
    ls: LengthSpectrum, sigma: Sequence[object], ts: np.ndarray, tp: TruncationPolicy
) -> np.ndarray:
    """Vector of geometric heat trace totals over a time grid.

    Each entry is the identity part plus the hyperbolic sum of
    ``geometric_heat_trace`` at that time, by the same routine, so it
    equals ``geometric_heat_trace(...).total`` exactly. Tail bounds are not
    re-certified per time; callers quantify their own error budget.
    """
    ts = np.asarray(ts, dtype=float)
    if not (ts > 0).all():  # the refusal names the first bad time
        _check_time(float(ts[~(ts > 0)][0]))
    P = plancherel_polynomial(ls.gd, sigma)
    plan = ls.power_table(tp.lmax)
    sig = character_table("D", ls.gd.validate_m_weight(sigma))
    totals = [
        ls.dim_chi * ls.volume * plancherel_heat_integral(P, t) + _hyperbolic_sum(plan, sig, t)
        for t in map(float, ts.ravel())
    ]
    return np.array(totals, dtype=complex).reshape(ts.shape)
