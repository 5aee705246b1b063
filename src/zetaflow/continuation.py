"""Analytic continuation of the log derivative and resolvent identities.

The continued log derivative is the closed form
    L(s) = 2s sum_k m_k / (s^2 + t_k) - 2 pi dim_chi volume P(s),
meromorphic with simple poles at +-i sqrt(t_k) (principal branch, so
negative real t_k land on the real axis) carrying integer residues m_k,
and residue 2 m(0) at the origin. Everything else here is bookkeeping
around that function: anchor combinations that cancel small-t divergences,
contour residue counts, path integrals recovering zeta ratios, and the
three routes to anchored resolvent traces whose mutual agreement is the
package's central consistency check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .heat import heat_totals
from .plancherel import PlancherelPolynomial, horner, plancherel_polynomial
from .quadrature import half_line_integral, path_integral, segment_integral
from .spectra import EigenSpectrum, LengthSpectrum, checked_volume
from .zeta import SeriesValue, TruncationPolicy, log_derivative

_PATH_MARGIN = 1e-3
_LOCATE_TOL = 1e-6


@dataclass(frozen=True)
class AnchorSet:
    """Auxiliary points in the convergence half-plane, pairwise distinct
    with pairwise distinct squares, at least two of them."""

    anchors: tuple[complex, ...]

    @property
    def size(self) -> int:
        return len(self.anchors)


def anchor_set(anchors: Sequence[complex]) -> AnchorSet:
    pts = tuple(complex(a) for a in anchors)
    for a in pts:
        if not cmath.isfinite(a):
            raise ValidationError(f"non-finite anchor {a}")
    if len(pts) < 2:
        raise ValidationError(f"an anchor set needs at least 2 points, got {len(pts)}")
    squares = [a * a for a in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(squares[i] - squares[j]) < 1e-12 * (1 + abs(squares[i])):
                raise ValidationError(
                    f"anchors {pts[i]} and {pts[j]} have coinciding squares"
                )
    return AnchorSet(anchors=pts)


def partial_fraction_coeffs(aset: AnchorSet) -> tuple[complex, ...]:
    """c_i = prod_{j != i} (s_j^2 - s_i^2)^{-1}, so that
    sum_i c_i / (x + s_i^2) = prod_i (x + s_i^2)^{-1}."""
    squares = [a * a for a in aset.anchors]
    coeffs = []
    for i, si in enumerate(squares):
        prod = 1.0 + 0j
        for j, sj in enumerate(squares):
            if j != i:
                prod *= sj - si
        coeffs.append(1.0 / prod)
    return tuple(coeffs)


def moment_sum(aset: AnchorSet, l: int) -> complex:
    """sum_i c_i s_i^{2l}; zero through l = N-2, and (-1)^{N-1} at l = N-1,
    which is returned without being asserted against anything."""
    if not 0 <= l <= aset.size - 1:
        raise ValidationError(f"moment order {l} outside [0, {aset.size - 1}]")
    coeffs = partial_fraction_coeffs(aset)
    return complex(sum(c * a ** (2 * l) for a, c in zip(aset.anchors, coeffs)))


def _exp_remainder(x: np.ndarray, k: int) -> np.ndarray:
    # e^x minus its Taylor polynomial of degree k-1, by the tail series
    # sum_{l >= k} x^l / l!. Caller guarantees |x| < 1, where 34 extra
    # terms put the truncation far below double precision.
    if k == 0:
        return np.exp(x)
    acc = np.zeros(x.shape, dtype=complex)
    for l in range(k + 34, k, -1):
        acc = (acc + 1.0) * x / l
    return x**k / math.factorial(k) * (acc + 1.0)


def small_t_combination(aset: AnchorSet, t: float | np.ndarray) -> complex | np.ndarray:
    """w(t) = sum_i c_i exp(-t s_i^2); O(t^{N-1}) as t -> 0 by the moment
    cancellations. Where every t s_i^2 is small the exponentials enter
    through their order-(N-1) Taylor remainders, which changes nothing in
    exact arithmetic (the discarded polynomial parts cancel against the
    vanishing moments) but keeps the power-law decay honest in floating
    point instead of flooring at rounding noise."""
    coeffs = partial_fraction_coeffs(aset)
    tt = np.asarray(t, dtype=float)
    flat = np.atleast_1d(tt).astype(float)
    squares = [a * a for a in aset.anchors]
    small = flat * max(abs(s2) for s2 in squares) < 1.0
    acc = np.zeros(flat.shape, dtype=complex)
    for s2, c in zip(squares, coeffs):
        x = -flat.astype(complex) * s2
        vals = np.empty(flat.shape, dtype=complex)
        vals[small] = _exp_remainder(x[small], aset.size - 1)
        vals[~small] = np.exp(x[~small])
        acc += c * vals
    if tt.ndim == 0:
        return complex(acc[0])
    return acc.reshape(tt.shape)


@dataclass(frozen=True)
class ContinuedL:
    """Meromorphic continuation data for the log derivative."""

    spectrum: EigenSpectrum
    P: PlancherelPolynomial
    dim_chi: int
    volume: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "volume", checked_volume(self.dim_chi, self.volume))

    def __call__(self, s):
        ss = np.asarray(s, dtype=complex)
        scalar = ss.ndim == 0
        z = np.atleast_1d(ss)
        acc = np.zeros(z.shape, dtype=complex)
        z2 = z * z
        for tk, m in self.spectrum.entries:
            denom = z2 + tk
            hit = np.abs(denom) < 1e-12 * (1.0 + abs(tk))
            if hit.any():
                where = complex(z[hit][0])
                raise DomainError(
                    f"evaluation at a pole of the continuation: s = {where} "
                    f"sits on +-i sqrt(t_k) for t_k = {tk}",
                )
            acc += (2.0 * m) * z / denom
        acc -= (2.0 * math.pi * self.dim_chi * self.volume) * self.P.evaluate_many(z)
        return complex(acc[0]) if scalar else acc.reshape(ss.shape)


def continued_from(
    es: EigenSpectrum,
    gd,
    sigma: Sequence[object],
    dim_chi: int,
    volume: float,
) -> ContinuedL:
    return ContinuedL(
        spectrum=es, P=plancherel_polynomial(gd, sigma), dim_chi=dim_chi, volume=volume
    )


def singularities(cl: ContinuedL) -> tuple[tuple[complex, int], ...]:
    """Poles of the continuation with their integer residues, aggregated:
    +-i sqrt(t_k) with residue m_k each, and 2 m(0) at the origin."""
    acc: dict[complex, int] = {}
    for tk, m in cl.spectrum.entries:
        if tk == 0:
            acc[0j] = acc.get(0j, 0) + 2 * m
        else:
            root = cmath.sqrt(tk)
            for p in (1j * root, -1j * root):
                acc[p] = acc.get(p, 0) + m
    return tuple(sorted(acc.items(), key=lambda kv: (kv[0].real, kv[0].imag)))


def contour_residue(cl: ContinuedL, point: complex) -> complex:
    """(1/2 pi i) times the contour integral of the continuation around
    ``point``, by a 64-node trapezoid circle of radius half the distance to
    the nearest other singularity (0.5 when there is none). The trapezoid
    rule on a circle converges geometrically for meromorphic integrands."""
    point = complex(point)
    others = [p for p, _ in singularities(cl) if abs(p - point) > 1e-9]
    radius = 0.5 if not others else 0.5 * min(abs(p - point) for p in others)
    theta = 2.0 * math.pi * np.arange(64) / 64.0
    ring = np.exp(1j * theta)
    vals = cl(point + radius * ring)
    return complex((radius / 64.0) * (vals * ring).sum())


def residue_order(cl: ContinuedL, point: complex) -> int:
    """Integer residue at a declared singularity near ``point``, from the
    rounded contour integral; refuses points away from every singularity
    and contours whose rounding residual is not clean."""
    point = complex(point)
    sings = singularities(cl)
    if not sings:
        raise DomainError("the continuation has no singularities")
    center = min((p for p, _ in sings), key=lambda p: abs(p - point))
    if abs(center - point) > _LOCATE_TOL:
        raise DomainError(f"{point} is not within {_LOCATE_TOL:g} of any singularity")
    raw = contour_residue(cl, center)
    nearest = round(raw.real)
    residual = abs(raw - nearest)
    if residual > 1e-3:
        raise DomainError(f"contour residue {raw} at {center} is not close to an integer")
    return int(nearest)


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = max(0.0, min(1.0, t))
    return abs(p - (a + t * ab))


def log_zeta_ratio(
    s0: complex,
    s1: complex,
    L: ContinuedL | Callable[[np.ndarray], np.ndarray],
    path: Sequence[complex] | None = None,
) -> complex:
    """Integral of the log derivative along a polyline from s0 to s1;
    equals log Z(s1) - log Z(s0) for any path avoiding the poles."""
    vertices = [complex(s0), *(complex(p) for p in (path or ())), complex(s1)]
    if isinstance(L, ContinuedL):
        for p, _ in singularities(L):
            for a, b in zip(vertices, vertices[1:]):
                if _segment_distance(p, a, b) < _PATH_MARGIN:
                    raise DomainError(
                        f"integration path passes within {_PATH_MARGIN:g} of the pole at {p}",
                    )
    return path_integral(L, vertices)


def cauchy_plancherel_identity(s: complex, P: PlancherelPolynomial) -> tuple[complex, complex]:
    """Both sides of the regularized Cauchy integral of the Plancherel
    density: left, the numerical integral of
    P(i lambda)/(lambda^2 + s^2) - Q(lambda^2) over the window
    |lambda| <= 50 (1 + |s|) (Q the polynomial quotient of the division by
    lambda^2 + s^2, which subtracts the divergent part) plus the analytic
    tail of the remainder term; right, (pi/s) P(s)."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"identity requires Re(s) > 0, got s = {s}")
    # R(u) = P(i lambda) with u = lambda^2; divide by (u - u0), u0 = -s^2
    rcoeffs = [c * (-1) ** m for m, c in enumerate(P.coeffs)]
    u0 = -s * s
    n = len(rcoeffs) - 1
    q = [0j] * n
    if n > 0:
        q[n - 1] = rcoeffs[n]
        for m in range(n - 1, 0, -1):
            q[m - 1] = rcoeffs[m] + u0 * q[m]
    rem = rcoeffs[0] + (u0 * q[0] if n > 0 else 0j)

    def integrand(lam: np.ndarray) -> np.ndarray:
        u = lam * lam
        return horner(rcoeffs, u) / (u + s * s) - horner(q, u)

    lam_max = 50.0 * (1.0 + abs(s))
    rhs = (math.pi / s) * P(s)
    # the integrand cancels two large polynomial evaluations, so its noise
    # floor is set by their amplitude, not by the (possibly zero) integral;
    # a tolerance below coherent rounding noise would never be reached
    u_s = np.linspace(0.0, lam_max, 65) ** 2
    ra = horner([abs(c) for c in rcoeffs], u_s, float)
    qa = horner([abs(c) for c in q], u_s, float)
    amp = float(np.max(ra / np.abs(u_s + s * s) + qa))
    budget = max(1e-13 * (1.0 + abs(rhs)), 4.6e-16 * amp * 2.0 * lam_max)
    finite = segment_integral(integrand, -lam_max, lam_max, budget)
    tail = rem * (math.pi / s - (2.0 / s) * cmath.atan(lam_max / s))
    return finite + tail, rhs


def heat_resolvent_identity(s: complex, length: float) -> tuple[complex, complex]:
    """Both sides of the kernel identity
    integral_0^inf e^{-t s^2} e^{-length^2/4t} (4 pi t)^{-1/2} dt
    = e^{-s length} / (2s)."""
    s = complex(s)
    if (s * s).real <= 0:
        raise DomainError(f"identity requires Re(s^2) > 0, got s = {s}")
    if length <= 0:
        raise ValidationError(f"length must be positive, got {length!r}")

    def f(t: np.ndarray) -> np.ndarray:
        return np.exp(-t * (s * s) - length * length / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)

    lhs, _ = half_line_integral(f, rel_tol=1e-11)
    return lhs, cmath.exp(-s * length) / (2.0 * s)


def resolvent_trace_spectral(es: EigenSpectrum, aset: AnchorSet) -> complex:
    """sum_k m_k prod_i (t_k + s_i^2)^{-1}: the anchored resolvent trace
    straight from the eigenvalue parameters (product form; the partial
    fraction form is what the other routes compute)."""
    total = 0j
    squares = [a * a for a in aset.anchors]
    for tk, m in es.entries:
        prod = 1.0 + 0j
        for s2 in squares:
            factor = tk + s2
            if abs(factor) < 1e-12 * (1.0 + abs(tk) + abs(s2)):
                raise DomainError(
                    f"anchor square {s2} collides with the pole at -t_k for t_k = {tk}"
                )
            prod *= factor
        total += m / prod
    return total


def resolvent_trace_geometric(
    ls: LengthSpectrum,
    sigma: Sequence[object],
    aset: AnchorSet,
    tp: TruncationPolicy,
) -> SeriesValue:
    """Anchored resolvent trace from the geometric side:
    sum_i c_i [ (pi/s_i) dim_chi volume P(s_i) + L(s_i) / (2 s_i) ]
    with L the truncated log-derivative series."""
    for a in aset.anchors:
        if (a * a).real <= 0:
            raise DomainError(f"anchor {a} has Re(s^2) <= 0")
    P = plancherel_polynomial(ls.gd, sigma)
    coeffs = partial_fraction_coeffs(aset)
    dimvol = ls.dim_chi * ls.volume
    total = 0j
    tail = 0.0
    for si, ci in zip(aset.anchors, coeffs):
        ld = log_derivative(si, sigma, ls, tp)
        total += ci * ((math.pi / si) * dimvol * P(si) + ld.value / (2.0 * si))
        tail += abs(ci / (2.0 * si)) * ld.tail_bound
    return SeriesValue(total, tail)


def resolvent_trace_via_heat(
    ls: LengthSpectrum,
    sigma: Sequence[object],
    aset: AnchorSet,
    tp: TruncationPolicy,
) -> SeriesValue:
    """Anchored resolvent trace by integrating the anchor combination
    against the geometric heat trace over (0, infinity). Needs more than
    d/2 anchors for integrability at t = 0 and anchors with Re(s^2) > 0
    for integrability at infinity. Nodes where w(t) is exactly 0 (every
    exp(-t s_i^2) underflows) contribute exactly 0 and are not sent to the
    heat trace. The plan's refusals come first, reading every power as
    resolvent_trace_geometric does; they name the cutoff to move. A refusal
    of the quadrature is raised again as one that names the anchors. The
    tail_bound is the quadrature's last refinement difference at relative
    tolerance 1e-9: an estimate, not a bound, and blind to the truncated
    hyperbolic heat sum."""
    if 2 * aset.size <= ls.gd.d:
        raise DomainError(
            f"need more than {ls.gd.d / 2:g} anchors to cancel the small-time "
            f"divergence in dimension {ls.gd.d}, got {aset.size}"
        )
    for a in aset.anchors:
        if (a * a).real <= 0:
            raise DomainError(f"anchor {a} has Re(s^2) <= 0; the time integral diverges")
    ls.power_table(tp.lmax).check(lambda length: True)

    def f(t: np.ndarray) -> np.ndarray:
        w = small_t_combination(aset, t)
        live = w != 0
        if live.any():
            w[live] *= heat_totals(ls, sigma, t[live], tp)
        return w

    try:
        return SeriesValue(*half_line_integral(f))
    except DomainError as exc:
        # the t it names is a quadrature node, not an input: drop any advice
        # on t and say which input to move
        reason = str(exc).partition("; ")[0]
        anchors = ", ".join(map(str, aset.anchors))
        raise DomainError(f"the heat route at anchors {anchors} fails: {reason}; "
                          "move the anchors toward the origin and the real axis") from None
