"""Independent recomputation routes used to cross-check the library.

Each oracle reaches a quantity the library computes, by a deliberately
different method: symbolic expansion instead of rational recurrences,
Euler-product logarithms instead of truncated power series, solved linear
systems instead of closed-form coefficient products, and high-precision
mpmath arithmetic instead of batched float64 kernels. Slow is acceptable
here; being independent of the code under test is the point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
import sympy as sp


def plancherel_coeffs_symbolic(d: int, sigma) -> tuple[Fraction, ...]:
    """Even-power coefficients of the spectral density polynomial.

    Symbolic route: expand the product of (mu_i^2 - mu_j^2) over all pairs
    of the rank n+1 coordinates mu = (z, sigma + rho_m), normalized by the
    same product evaluated at mu = rho_g, with sympy doing the expansion.
    Raises if any odd power survives.
    """
    n = (d - 1) // 2
    z = sp.Symbol("z")
    sig = [Fraction(s) for s in sigma]
    lam = [sp.Rational(s.numerator, s.denominator) + (n - 1 - i) for i, s in enumerate(sig)]
    mu = [z] + lam
    rho_g = [sp.Integer(n - i) for i in range(n + 1)]
    num = sp.Integer(1)
    den = sp.Integer(1)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= mu[i] ** 2 - mu[j] ** 2
            den *= rho_g[i] ** 2 - rho_g[j] ** 2
    poly = sp.Poly(sp.expand(num / den), z)
    out = []
    for m in range(n + 1):
        c = sp.nsimplify(poly.coeff_monomial(z ** (2 * m)))
        out.append(Fraction(int(sp.numer(c)), int(sp.denom(c))))
    for m in range(2 * n + 1):
        if m % 2 == 1 and poly.coeff_monomial(z**m) != 0:
            raise AssertionError(f"odd coefficient survives at z^{m}")
    return tuple(out)


def char_B_mp(weight, angles, dps: int = 50) -> complex:
    """Rank-n type B character by the sine alternant in mpmath.

    Same classical ratio of determinants the library batches in float64,
    evaluated here at ``dps`` digits with mpmath determinants.
    """
    n = len(weight)
    with mp.workdps(dps):
        l = [mp.mpf(Fraction(w).numerator) / Fraction(w).denominator + n - i - mp.mpf(1) / 2
             for i, w in enumerate(weight)]
        m = [n - i - mp.mpf(1) / 2 for i in range(n)]
        num = mp.det(mp.matrix([[mp.sin(l[j] * angles[i]) for j in range(n)] for i in range(n)]))
        den = mp.det(mp.matrix([[mp.sin(m[j] * angles[i]) for j in range(n)] for i in range(n)]))
        return complex(num / den)


def char_D_mp(weight, angles, dps: int = 50) -> complex:
    """Rank-n type D character: (det[2cos] + i^n det[2sin]) / det[2cos] at rho."""
    n = len(weight)
    with mp.workdps(dps):
        l = [mp.mpf(Fraction(w).numerator) / Fraction(w).denominator + n - 1 - i
             for i, w in enumerate(weight)]
        m = [n - 1 - i for i in range(n)]
        cos_l = mp.det(mp.matrix([[2 * mp.cos(l[j] * angles[i]) for j in range(n)] for i in range(n)]))
        sin_l = mp.det(mp.matrix([[2 * mp.sin(l[j] * angles[i]) for j in range(n)] for i in range(n)]))
        den = mp.det(mp.matrix([[2 * mp.cos(m[j] * angles[i]) for j in range(n)] for i in range(n)]))
        return complex((cos_l + (1j**n) * sin_l) / den)


def branching_by_characters(tau, rng: np.random.Generator) -> dict[tuple, int]:
    """Restriction multiplicities of a type B weight solved numerically.

    Writes the restricted character as an integer combination of type D
    characters and solves the linear system at random angles, instead of
    counting interlacing patterns. Candidate weights are every D-dominant
    tuple bounded entrywise by tau_1 in the same integrality class.
    """
    from zetaflow import weyl_character

    n = len(tau)
    top = Fraction(max(Fraction(t) for t in tau))
    half = top.denominator == 2
    steps = int(top * 2) if half else int(top)
    grid = [Fraction(k, 2) if half else Fraction(k) for k in range(-2 * steps - 1, 2 * steps + 2)]
    grid = [g for g in grid if abs(g) <= top and (g.denominator == 2) == half]

    def fill(prefix):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        hi = prefix[-1] if prefix else top
        for g in grid:
            ok = (Fraction(0) <= g <= hi) if i < n - 1 else (abs(g) <= hi)
            if ok:
                yield from fill(prefix + [g])

    cands = sorted(set(fill([])))
    pts = rng.uniform(0.2, 2.9, size=(2 * len(cands) + 8, n))
    lhs = weyl_character(tau, pts, "B")
    basis = np.stack([weyl_character(c, pts, "D") for c in cands], axis=1)
    sol, *_ = np.linalg.lstsq(basis, lhs, rcond=None)
    resid = np.abs(basis @ sol - lhs).max()
    if resid > 1e-6:
        raise AssertionError(f"character system residual {resid:.2e}")
    out = {}
    for c, x in zip(cands, sol):
        m = round(x.real)
        if abs(x - m) > 1e-6:
            raise AssertionError(f"non-integer multiplicity {x} at {c}")
        if m:
            out[c] = m
    return out


def selberg_log_product(s: complex, m_twist: int, ls, cutoff: float) -> complex:
    """Dimension-3 Selberg log by the Euler product over lattice points.

    log Z = sum over classes and integers a, b >= 0 of
    log(1 - tr chi * e^{i (a - b + m) theta} e^{-(s + 1 + a + b) l0}),
    for one-dimensional twists; the library instead sums the power series
    over class powers with a determinant factor. Factors with
    (s + 1 + a + b) l0 > cutoff are dropped.
    """
    total = 0.0 + 0.0j
    for c in ls.classes:
        if c.chi.shape != (1, 1):
            raise AssertionError("product oracle needs one-dimensional twists")
        w = complex(c.chi[0, 0])
        kmax = int(cutoff / c.l0 - s.real - 1)
        for a in range(0, max(0, kmax) + 1):
            for b in range(0, max(0, kmax - a) + 1):
                x = w * cmath.exp(1j * (a - b + m_twist) * c.angles[0]) * cmath.exp(
                    -(s + 1 + a + b) * c.l0
                )
                total += cmath.log(1 - x)
    return total


def vandermonde_coeffs(anchors) -> np.ndarray:
    """Partial-fraction coefficients solved from the moment conditions.

    Solves sum_i c_i (s_i^2)^l = 0 for l < N-1 and = (-1)^{N-1} at
    l = N-1, instead of forming the product over square differences.
    """
    sq = np.asarray([complex(a) ** 2 for a in anchors])
    N = len(sq)
    V = np.vander(sq, N, increasing=True).T
    rhs = np.zeros(N, dtype=complex)
    rhs[N - 1] = (-1.0) ** (N - 1)
    return np.linalg.solve(V, rhs)


def heat_integral_mp(exact_coeffs, t: float, dps: int = 30) -> float:
    """integral of e^{-t lam^2} P(i lam) over the real line by mpmath quad."""
    with mp.workdps(dps):
        cs = [mp.mpf(c.numerator) / c.denominator for c in exact_coeffs]

        def f(lam):
            u = -(lam**2)
            acc = mp.mpf(0)
            for c in reversed(cs):
                acc = acc * u + c
            return mp.e ** (-t * lam**2) * acc

        return float(mp.quad(f, [-mp.inf, 0, mp.inf]))


def resolvent_kernel_mp(s: complex, length: float, dps: int = 30) -> complex:
    """integral over t in (0, inf) of e^{-t s^2} e^{-l^2/4t} / sqrt(4 pi t)."""
    with mp.workdps(dps):
        sm = mp.mpc(s)

        def f(t):
            return mp.e ** (-t * sm * sm) * mp.e ** (-(length**2) / (4 * t)) / mp.sqrt(
                4 * mp.pi * t
            )

        return complex(mp.quad(f, [0, 1, mp.inf]))


def fd_derivative(f, s: complex, h: float = 1e-2) -> complex:
    """Five-point central difference, O(h^4)."""
    return (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)


def twist_growth_cert_loop(ls, lmax: float) -> tuple[float, float]:
    """(K, k) of the twist growth certificate, one class at a time.

    k takes one spectral norm per class in a Python loop, in class order,
    with the same 1 + 1e-12 guard against unitary rounding; K takes one
    sample |tr chi^j| exp(-k j l0) per enumerated power.
    """
    k = 0.0
    for c in ls.classes:
        norm = float(np.linalg.norm(c.chi, 2))
        if norm > 1.0 + 1e-12:
            k = max(k, math.log(norm) / c.l0)
    K = float(ls.dim_chi)
    for c in ls.classes:
        chi_j = np.eye(ls.dim_chi, dtype=complex)
        for j in range(1, int(lmax / c.l0) + 1):
            chi_j = chi_j @ c.chi
            K = max(K, abs(np.trace(chi_j)) * math.exp(-k * j * c.l0))
    return K, k


def half_line_integral_reeval(f, rel_tol: float = 1e-9, h0: float = 0.5,
                              max_halvings: int = 8, u_cap: float = 690.0):
    """Log-axis trapezoid over (0, infinity) that re-evaluates every node.

    Same window expansion, node grid and summation as
    ``zetaflow.quadrature.half_line_integral``, but each refinement calls
    the integrand on the whole grid again instead of reusing the nodes of
    the coarser rule.
    """
    from zetaflow import DomainError

    def g(u):
        t = np.exp(u)
        return np.asarray(f(t), dtype=complex) * t

    block = 16
    lo, hi = 0.0, 0.0
    gmax = abs(complex(g(np.array([0.0]))[0]))
    for direction in (-1.0, 1.0):
        edge = 0.0
        quiet = 0
        while quiet < 2 and abs(edge) < u_cap:
            us = edge + direction * h0 * (1 + np.arange(block))
            edge = float(us[-1])
            chunk = np.abs(g(us))
            if not np.isfinite(chunk).all():
                raise DomainError("half-line integrand produced non-finite values")
            gmax = max(gmax, float(chunk.max()))
            quiet = quiet + 1 if float(chunk.max()) <= 1e-22 * gmax else 0
        if direction < 0:
            lo = edge
        else:
            hi = edge

    def trap(h):
        us = np.arange(lo, hi + 0.5 * h, h)
        return h * complex(np.sum(g(us)))

    prev = trap(h0)
    diff = math.inf
    for _ in range(max_halvings):
        h0 *= 0.5
        cur = trap(h0)
        diff = abs(cur - prev)
        if diff <= rel_tol * max(abs(cur), 1e-300):
            return cur, diff
        prev = cur
    raise DomainError(
        f"half-line quadrature did not converge to rel_tol {rel_tol:g} "
        f"(last refinement difference {diff:.2e})"
    )


@dataclass(frozen=True, eq=False)
class ClassPower:
    """The j-th power of a primitive class, with derived data."""

    class_index: int
    j: int
    length: float
    angles: tuple[float, ...]
    chi_trace: complex


def powers_up_to(ls, lmax: float) -> list[ClassPower]:
    """All powers of all primitive classes with length <= lmax, sorted by
    (length, class index, j). Growing lmax extends the list prefix-stably.

    One scalar record per power, for per-power loops over the columns the
    library's prepared plan evaluates as whole arrays.
    """
    t = ls.power_table(lmax)
    return [
        ClassPower(
            class_index=int(t.class_index[i]),
            j=int(t.j[i]),
            length=float(t.length[i]),
            angles=tuple(float(a) for a in t.angles[i]),
            chi_trace=complex(t.chi_trace[i]),
        )
        for i in range(t.size)
    ]


def L_sym(gd, cp: ClassPower, sigma) -> complex:
    """Per-power symbol: tr chi times char_sigma at the power angles times
    exp(-|rho| length) over the det term.

    Scalar route, one power at a time, against the library's batched
    series kernels.
    """
    from zetaflow import det_term, weyl_character

    char = weyl_character(sigma, np.asarray(cp.angles), "D")
    return (
        cp.chi_trace
        * char
        * math.exp(-gd.rho_norm * cp.length)
        / det_term(gd, cp.length, cp.angles)
    )
