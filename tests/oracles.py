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
import itertools
import json
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


def hyperbolic_sum_whole(plan, sigma_table, t: float, rho: float) -> complex:
    """heat._hyperbolic_sums at the one time t and |rho| = rho, with the
    prefactors of the whole plan, l0 tr chi char_sigma e^{-|rho| L} / det,
    their det terms det_rows of every power, and the kernel of every live chunk (one whose first
    exponent -L^2 / 4t is at least -746) exponentiated whole, its
    underflowed terms included, and every term summed: the sum from before
    the chunk where the kernel underflows was cut at its first dead power."""
    live = [r for r in plan.chunks() if -(plan.length(r.start) ** 2) / (4.0 * t) >= -746.0]
    if not live:
        return 0j
    chars = sigma_table.evaluate(plan.angles())
    base = (plan.l0() * plan.chi_trace * chars * np.exp(-rho * plan.length())
            / plan.det_rows())
    scale = math.sqrt(4.0 * math.pi * t)
    return block_sum_whole(np.concatenate(
        [base[r] * (np.exp(-plan.length(r) ** 2 / (4.0 * t)) / scale) for r in live]))


def weyl_orbit_signed_permutations(w, family: str) -> set[tuple]:
    """The Weyl orbit of ``w`` as a set of signed permutations, listed
    whole instead of closed under reflections: any signs for B_n; for D_n
    evenly many sign changes, unless some coordinate is 0, whose sign
    change is a no-op that makes every pattern even."""
    w = tuple(w)
    free = family == "B" or 0 in w
    return {
        tuple(sign * c for sign, c in zip(signs, perm))
        for perm in itertools.permutations(w)
        for signs in itertools.product((1, -1), repeat=len(w))
        if free or signs.count(-1) % 2 == 0
    }


def character_table_loop(family: str, weight, angles) -> np.ndarray:
    """The weight-route character at angles of shape (..., n), one table on
    its own: one pass over all the angles per weight, in sorted weight
    order, each weight exponentiated by itself. This is the table
    evaluator from before tables shared one exponential per distinct
    weight, the bit-for-bit reference of chars.evaluate_all."""
    from zetaflow.chars import weight_multiplicities
    from zetaflow.weights import as_weight

    items = sorted(weight_multiplicities(family, as_weight(weight)).items())
    th = np.asarray(angles, dtype=float)
    cols = np.moveaxis(th, -1, 0)
    out = np.zeros(th.shape[:-1], dtype=complex)
    phase, product = np.empty(out.shape), np.empty(out.shape)
    term = np.empty_like(out)
    for mu, m in items:
        mu = [float(c) for c in mu]
        np.multiply(cols[0], mu[0], out=phase)
        for col, c in zip(cols[1:], mu[1:]):
            phase += np.multiply(col, c, out=product)
        np.exp(np.multiply(phase, 1j, out=term), out=term)
        out += np.multiply(term, float(m), out=term)
    return out


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


def m_tau_coeffs_greedy(sigma, max_peels: int = 64) -> dict[tuple, int]:
    """Restriction inverse at a Weyl-invariant type by greedy peeling.

    Takes the top of the remainder, largest weight first in (coordinate
    magnitude sum, lex) order, adds it with its coefficient, and subtracts
    its restriction, until nothing is left. Raises when that needs more
    than ``max_peels`` steps, which happens from rank 7 on.
    """
    from zetaflow import branch_weights

    s = tuple(Fraction(c) for c in sigma)
    remainder = {s: 1}
    coeffs: dict[tuple, int] = {}
    for _ in range(max_peels):
        remainder = {w: c for w, c in remainder.items() if c != 0}
        if not remainder:
            return {w: c for w, c in coeffs.items() if c != 0}
        top = max(remainder, key=lambda w: (sum(abs(c) for c in w), w))
        tau = top[:-1] + (abs(top[-1]),)
        c = remainder[top]
        coeffs[tau] = coeffs.get(tau, 0) + c
        for sp in branch_weights(tau):
            remainder[sp] = remainder.get(sp, 0) - c
    raise AssertionError(f"greedy inversion did not terminate within {max_peels} peels")


def exterior_power_peel(n: int, p: int) -> list[tuple]:
    """Highest weights of the p-th exterior power of the standard
    representation of D_n, by peeling the exact weight multiset.

    Builds the multiset of sums of p distinct weights from +-e_i, then
    repeatedly removes the full weight system of its lexicographically
    largest dominant weight, in that order; a dimension count guards the
    result.
    """
    from zetaflow import weyl_dim
    from zetaflow.chars import weight_multiplicities
    from zetaflow.weights import is_dominant

    basis = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    lines = basis + [tuple(-c for c in b) for b in basis]
    multiset: dict[tuple, int] = {}
    for combo in itertools.combinations(lines, p):
        w = tuple(sum(col, Fraction(0)) for col in zip(*combo)) if combo else (Fraction(0),) * n
        multiset[w] = multiset.get(w, 0) + 1
    out = []
    while multiset:
        psi = max(w for w in multiset if is_dominant(w, "D"))
        for w, m in weight_multiplicities("D", psi).items():
            left = multiset.get(w, 0) - m
            if left < 0:
                raise AssertionError("exterior power peeling went negative")
            if left:
                multiset[w] = left
            else:
                multiset.pop(w, None)
        out.append(psi)
    if sum(weyl_dim(w, "D") for w in out) != math.comb(2 * n, p):
        raise AssertionError("exterior power dimensions do not add up")
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
    for c in classes(ls):
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


def twist_rate_loop(ls) -> float:
    """The twist growth rate k, one spectral norm per class in a Python
    loop, in class order, with the same 1 + 1e-12 guard against unitary
    rounding."""
    k = 0.0
    for c in classes(ls):
        norm = float(np.linalg.norm(c.chi, 2))
        if norm > 1.0 + 1e-12:
            k = max(k, math.log(norm) / c.l0)
    return k


def class_tail_loop(ls, lmax: float, a: float, weight: str, scale: float,
                    det: bool = True) -> float:
    """The per-class tail bound past lmax, one class at a time in scalar
    arithmetic: J_c counted from the enumerated powers, r_c the class's
    spectral norm (at least 1), q_c = r_c e^{-a l0_c}, and the classes'
    terms w_c q_c^(J_c + 1) / (1 - q_c), with w_c = 1 / (J_c + 1) for
    weight "inv_j" and l0_c for "l0", added by math.fsum."""
    counts = [0] * ls.l0.size
    for cp in powers_up_to(ls, lmax):
        counts[cp.class_index] += 1
    terms = []
    for c, J in zip(classes(ls), counts):
        q = max(1.0, float(np.linalg.norm(c.chi, 2))) * math.exp(-a * c.l0)
        w = c.l0 if weight == "l0" else 1.0 / (J + 1)
        terms.append(w * q ** (J + 1) / (1.0 - q))
    floor = (1.0 - math.exp(-lmax)) ** (2 * ls.gd.n) if det else 1.0
    return scale * ls.dim_chi * math.fsum(terms) / floor


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
class PrimitiveClass:
    """One primitive class of a length spectrum as scalars: length, angles, twist."""

    l0: float
    angles: tuple[float, ...]
    chi: np.ndarray


def classes(ls) -> tuple[PrimitiveClass, ...]:
    """One PrimitiveClass per class, row i of the spectrum's columns, for
    per-class loops over data the library holds only as whole columns."""
    angles = map(tuple, ls.angles.tolist())
    return tuple(map(PrimitiveClass, ls.l0.tolist(), angles, ls.chi))


def length_spectrum_to_dict(ls) -> dict:
    """The spectrum's JSON document as Python objects, built class by class;
    ``zetaflow.spectra.length_spectrum_to_json`` must write exactly
    ``json.dumps`` of it with ``indent=1``."""
    cells = np.stack([ls.chi.real, ls.chi.imag], axis=-1).tolist()
    classes = [{"l0": l0, "angles": angles, "chi": chi}
               for l0, angles, chi in zip(ls.l0.tolist(), ls.angles.tolist(), cells)]
    return {"d": ls.gd.d, "volume": ls.volume, "dim_chi": ls.dim_chi, "classes": classes}


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
    angles, length = t.angles(), t.length()
    return [
        ClassPower(
            class_index=int(t.class_index[i]),
            j=int(t.j[i]),
            length=float(length[i]),
            angles=tuple(float(a) for a in angles[i]),
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


def trace_powers(chi: np.ndarray, jmax: int) -> np.ndarray:
    """tr(chi^j) for j = 1..jmax of one twist matrix.

    The sum of the eigenvalues' j-th powers, every twist alike, defective
    ones included; one eigvals call per class, against the library's single
    batched one.
    """
    if jmax < 1:
        return np.empty(0, dtype=complex)
    if chi.shape == (1, 1):
        lam = complex(chi[0, 0])
        return lam ** np.arange(1, jmax + 1)
    powers = np.linalg.eigvals(chi)[None, :] ** np.arange(1, jmax + 1)[:, None]
    return powers.sum(axis=1)


def power_table_loop(ls, lmax: float) -> dict[str, np.ndarray]:
    """The power columns of the prepared plan, built one class at a time.

    For each class of ``classes(ls)``: its powers j = 1..jmax as
    arrays, traces by ``trace_powers``; then one lexsort by
    (length, class index, j) over the concatenation. j and the class
    index come out as int32, the plan's dtype for both.
    """
    lengths, l0s, js, idxs, traces, angs = [], [], [], [], [], []
    for i, c in enumerate(classes(ls)):
        jmax = int(math.floor(lmax / c.l0 * (1.0 + 1e-12) + 1e-12))
        if jmax < 1:
            continue
        jj = np.arange(1, jmax + 1, dtype=float)
        lengths.append(jj * c.l0)
        l0s.append(np.full(jmax, c.l0))
        js.append(jj)
        idxs.append(np.full(jmax, i, dtype=np.int64))
        traces.append(trace_powers(c.chi, jmax))
        angs.append(jj[:, None] * np.asarray(c.angles)[None, :])
    if not lengths:
        return {
            "length": np.empty(0), "l0": np.empty(0), "j": np.empty(0, dtype=np.int32),
            "class_index": np.empty(0, dtype=np.int32),
            "chi_trace": np.empty(0, dtype=complex), "angles": np.empty((0, ls.gd.n)),
        }
    length = np.concatenate(lengths)
    order = np.lexsort((np.concatenate(js), np.concatenate(idxs), length))
    return {
        "length": length[order],
        "l0": np.concatenate(l0s)[order],
        "j": np.concatenate(js)[order].astype(np.int32),
        "class_index": np.concatenate(idxs)[order].astype(np.int32),
        "chi_trace": np.concatenate(traces)[order],
        "angles": np.concatenate(angs)[order],
    }


def synthesize_loop(gd, count: int, systole: float, seed: int, dim_chi: int = 1,
                    chi_norm: float = 1.0):
    """``zetaflow.synthesize`` with its twists drawn one class at a time.

    Same generator and draw order: volume, jitter, angles, then per class
    the real and imaginary parts of u, for a growing twist those of v and
    the singular values, each Haar unitary from its own QR.
    """
    from zetaflow import LengthSpectrum
    from zetaflow.spectra import canonicalize_angles

    def haar_unitary(rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(a)
        d = np.diagonal(r)
        return q * (d / np.abs(d))[None, :]

    def random_twist(rng, dim):
        u = haar_unitary(rng, dim)
        if chi_norm == 1.0:
            return u
        v = haar_unitary(rng, dim)
        svals = rng.uniform(1.0, chi_norm, size=dim)
        return u @ np.diag(svals) @ v

    rng = np.random.default_rng(seed)
    volume = float(rng.uniform(0.5, 5.0))
    b = 2.0 * gd.rho_norm
    jitter = rng.uniform(-0.35, 0.35, size=count)
    targets = np.arange(count) + 0.5 + jitter
    lengths = np.log(np.exp(b * systole) + b * targets) / b
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(count, gd.n))
    chi = np.array([random_twist(rng, dim_chi) for _ in range(count)], dtype=complex)
    return LengthSpectrum(gd=gd, l0=lengths, angles=canonicalize_angles(angles),
                          chi=chi.reshape(count, dim_chi, dim_chi), volume=volume, dim_chi=dim_chi)


def block_sum_whole(values) -> complex:
    """The block sum of one whole array: the 4096-element np.sum partial of
    every block, then one Neumaier pass over their real parts and one over
    their imaginary parts."""
    v = np.asarray(values)
    if v.size == 0:
        return 0j

    def neumaier(parts):
        s = c = 0.0
        for x in parts:
            t = s + x
            c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
            s = t
        return s + c

    partials = [np.sum(v[i : i + 4096]) for i in range(0, v.size, 4096)]
    return complex(neumaier([float(np.real(p)) for p in partials]),
                   neumaier([float(np.imag(p)) for p in partials]))


class WholeArrayPlan:
    """The prepared plan's derived columns and kernels as whole-array
    formulas over its three stored columns, every plan-sized temporary alive
    at once: the reference for the plan's chunked evaluation."""

    def __init__(self, ls, lmax: float):
        t = ls.power_table(lmax)
        self.gd = ls.gd
        self.size = t.size
        self.j, self.chi_trace = t.j, t.chi_trace
        self.length = t.j * ls.l0[t.class_index]
        self.l0 = ls.l0[t.class_index]
        self.angles = t.j[:, None] * ls.angles[t.class_index]
        self.inv_j = 1.0 / t.j
        e = np.exp(-self.length)[:, None]
        self.det = np.prod(1.0 - 2.0 * e * np.cos(self.angles) + e * e, axis=1)

    def chars(self, tables) -> np.ndarray:
        acc = np.ones(self.size, dtype=complex)
        for t in tables:
            acc = acc * t.evaluate(self.angles)
        return acc

    def heat_base(self, sigma_table) -> np.ndarray:
        chars = self.chars((sigma_table,))
        rho = float(self.gd.rho_norm)
        return self.l0 * self.chi_trace * chars * np.exp(-rho * self.length) / self.det

    def terms(self, tables, s: complex, kind: str) -> np.ndarray:
        """The terms of the series of zeta._series_value, one per power."""
        chars = self.chars(tables)
        rho = float(self.gd.rho_norm)
        if kind == "ruelle":
            return -self.inv_j * self.chi_trace * chars * np.exp(-s * self.length)
        weight = -self.inv_j if kind == "selberg" else self.l0
        return weight * self.chi_trace * chars * np.exp(-(s + rho) * self.length) / self.det

    def series(self, tables, s: complex, kind: str) -> complex:
        """The truncated series value of zeta._series_value."""
        return block_sum_whole(self.terms(tables, s, kind))

    def hyperbolic_sum(self, sigma_table, t: float) -> complex:
        """The hyperbolic heat contribution at time t of heat._hyperbolic_sums."""
        if not self.size or math.exp(-(self.length[0] * self.length[0]) / (4.0 * t)) == 0.0:
            return 0j
        kernel = np.exp(-self.length**2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        return block_sum_whole(self.heat_base(sigma_table) * kernel)


def read_table(path) -> list:
    """Parse a table written by ``zetaflow.tables.emit_table`` (either
    format) back into ResultRows."""
    from zetaflow import ValidationError
    from zetaflow.tables import HEADER, ResultRow

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        records = json.loads(text)
        return [
            ResultRow(
                s=complex(rec["s_re"], rec["s_im"]),
                value=complex(rec["value_re"], rec["value_im"]),
                tail_bound=float(rec["tail_bound"]),
            )
            for rec in records
        ]
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or tuple(lines[0].split(",")) != HEADER:
        raise ValidationError(f"unrecognized table header in {path}")
    out = []
    for ln in lines[1:]:
        sr, si, vr, vi, tb = (float(x) for x in ln.split(","))
        out.append(ResultRow(s=complex(sr, si), value=complex(vr, vi), tail_bound=tb))
    return out
