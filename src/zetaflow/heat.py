"""Heat traces: spectral sums, Plancherel integrals, geometric expansions.

The geometric heat trace splits into an identity contribution
dim_chi * volume * integral of exp(-t lambda^2) against the Plancherel
density, and a hyperbolic contribution summing the per-power symbols
against the scalar heat kernel on the length axis. Consistency between the
spectral sum and the geometric expansion is never assumed here; the
resolvent identities downstream test it through independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .plancherel import PlancherelPolynomial, plancherel_polynomial
from .spectra import EigenSpectrum, LengthSpectrum, certify_twist_growth
from .summation import block_sum
from .zeta import TruncationPolicy, _char_product, _sigma_table

_HERMITE_DEGREE_CUTOFF = 40


@lru_cache(maxsize=1)
def _hermgauss200() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(200)


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


def spectral_heat_trace(es: EigenSpectrum, t: float) -> complex:
    """sum_k m_k exp(-t t_k) over the eigenvalue parameters."""
    if t <= 0:
        raise ValidationError(f"heat time must be positive, got {t!r}")
    return complex(sum(m * np.exp(-t * tk) for tk, m in es.entries))


def plancherel_heat_integral(P: PlancherelPolynomial, t: float) -> complex:
    """integral over the real line of exp(-t lambda^2) P(i lambda) d lambda.

    Exact in terms of Gamma factors for the polynomial degrees that occur
    here; a 200-node Gauss-Hermite rule takes over beyond degree 40, where
    the factorial growth of the exact route loses accuracy.
    """
    if t <= 0:
        raise ValidationError(f"heat time must be positive, got {t!r}")
    if P.degree <= _HERMITE_DEGREE_CUTOFF:
        acc = 0j
        for m, c in enumerate(P.coeffs):
            acc += c * (-1) ** m * math.gamma(m + 0.5) * t ** (-(m + 0.5))
        return acc
    x, w = _hermgauss200()
    vals = P.evaluate_many(1j * x / math.sqrt(t))
    return complex((w * vals).sum() / math.sqrt(t))


def _hyperbolic_base(ls: LengthSpectrum, sigma: Sequence[object], lmax: float) -> np.ndarray:
    """t-independent per-power prefactor l0 tr chi char_sigma e^{-rho L}/det."""
    table = ls.power_table(lmax)
    if not table.size:
        return np.empty(0, dtype=complex)
    key = ls.gd.validate_m_weight(sigma)
    cached = table.heat_bases.get(key)
    if cached is not None:
        return cached
    chars = _char_product(table, (_sigma_table(ls, sigma),))
    base = (
        table.l0
        * table.chi_trace
        * chars
        * np.exp(-float(ls.gd.rho_norm) * table.length)
        / table.det
    )
    table.heat_bases[key] = base
    return base


def _hyperbolic_tail(ls: LengthSpectrum, sigma_dim: float, t: float, policy: TruncationPolicy) -> float:
    """Certified bound on the dropped powers of the Gaussian-damped series,
    from the plan's certificate (K, k) and counting constant C'; C' is
    observed only up to lmax, as for the zeta tails."""
    table = ls.power_table(policy.lmax)
    if not table.size:
        return 0.0
    gd = ls.gd
    cert = certify_twist_growth(ls, policy.lmax)
    b = 2.0 * gd.rho_norm
    rho = float(gd.rho_norm)
    lmax = policy.lmax
    beta = lmax / (4.0 * t) - (b + cert.k - rho)
    if beta <= 0:
        raise DomainError(
            f"heat tail not controllable at t = {t:g} with lmax = {lmax:g}; "
            f"need lmax > {4.0 * t * (b + cert.k - rho):g}",
            s=None,
        )
    dmin = (1.0 - math.exp(-ls.systole)) ** (2 * gd.n)
    B = cert.K * sigma_dim / dmin
    cprime = table.counting_constant
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


def geometric_heat_trace(
    ls: LengthSpectrum, sigma: Sequence[object], t: float, tp: TruncationPolicy
) -> HeatEvaluation:
    """Identity plus hyperbolic heat contributions at time t, with a
    certified bound for the truncated hyperbolic tail."""
    if t <= 0:
        raise ValidationError(f"heat time must be positive, got {t!r}")
    P = plancherel_polynomial(ls.gd, sigma)
    identity = ls.dim_chi * ls.volume * plancherel_heat_integral(P, t)
    if not ls.classes:
        return HeatEvaluation(t=t, identity_part=identity, hyperbolic_part=0j, tail_bound=0.0)
    base = _hyperbolic_base(ls, sigma, tp.lmax)
    table = ls.power_table(tp.lmax)
    sigma_dim = _sigma_table(ls, sigma).norm_bound()
    tail = _hyperbolic_tail(ls, sigma_dim, t, tp)
    kernel = np.exp(-table.length**2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    hyp = block_sum(base * kernel)
    return HeatEvaluation(t=t, identity_part=identity, hyperbolic_part=hyp, tail_bound=tail)


def heat_totals(
    ls: LengthSpectrum, sigma: Sequence[object], ts: np.ndarray, tp: TruncationPolicy
) -> np.ndarray:
    """Vector of geometric heat trace totals over a time grid.

    Each entry equals ``geometric_heat_trace(...).total`` exactly: one time
    at a time, the identity part plus the power sum in the scalar
    evaluator's summation order. The power sum is skipped at a time where
    exp(-lmin^2 / 4t) underflows to 0, since the lengths ascend and every
    kernel term is then exactly 0. Tail bounds are not re-certified per
    time; callers quantify their own error budget.
    """
    ts = np.asarray(ts, dtype=float)
    if (ts <= 0).any():
        raise ValidationError("heat times must be positive")
    P = plancherel_polynomial(ls.gd, sigma)
    out = np.empty(ts.shape, dtype=complex)
    for i, t in enumerate(ts.ravel()):
        out.ravel()[i] = ls.dim_chi * ls.volume * plancherel_heat_integral(P, float(t))
    if not ls.classes:
        return out
    base = _hyperbolic_base(ls, sigma, tp.lmax)
    table = ls.power_table(tp.lmax)
    lsq = table.length**2
    flat = out.ravel()
    tflat = ts.ravel()
    for i in range(tflat.size):
        t = float(tflat[i])
        if lsq.size and math.exp(-lsq[0] / (4.0 * t)) == 0.0:
            continue
        kernel = np.exp(-lsq / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        flat[i] += block_sum(base * kernel)
    return out
