"""Numerical verification suites.

Each suite re-derives a family of identities the library relies on and
reports the worst observed error against a fixed tolerance. The checks are
deliberately redundant with the unit tests: they run against freshly drawn
random inputs from a caller-supplied seed, so a verify run is evidence
about this build on this machine, not about the test fixtures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .branching import (
    branch_weights,
    branching_multiplicity,
    exterior_decomposition,
    m_tau_coeffs,
    tau_pm_split,
)
from .chars import weyl_character
from .continuation import (
    anchor_set,
    cauchy_plancherel_identity,
    continued_from,
    contour_residue,
    heat_resolvent_identity,
    moment_sum,
    partial_fraction_coeffs,
    resolvent_trace_geometric,
    resolvent_trace_spectral,
    resolvent_trace_via_heat,
    singularities,
    small_t_combination,
)
from .errors import ValidationError
from .heat import heat_totals, plancherel_heat_integral
from .plancherel import PlancherelPolynomial, plancherel_polynomial
from .spectra import (
    EigenSpectrum,
    LengthSpectrum,
    counting_function,
    synthesize,
)
from .weights import GroupData, weyl_action, weyl_dim
from .zeta import (
    TruncationPolicy,
    abscissa_estimate,
    exterior_class_sum,
    log_derivative,
    ruelle_factorization,
    ruelle_log,
    selberg_log,
    series_grid,
)


class CheckResult(NamedTuple):
    name: str
    max_error: float
    tolerance: float
    passed: bool


def _check(name: str, err: float, tol: float) -> CheckResult:
    err = float(err)
    return CheckResult(name, err, float(tol), math.isfinite(err) and err <= tol)


def _separated_anchors(rng: np.random.Generator, count: int) -> tuple[float, ...]:
    anchors: list[float] = []
    while len(anchors) < count:
        a = float(rng.uniform(0.7, 6.0))
        if all(abs(a - b) >= 0.1 for b in anchors):
            anchors.append(a)
    return tuple(sorted(anchors))


def _loglog_slope(ts: np.ndarray, ws: np.ndarray) -> float:
    return float(np.polyfit(np.log(ts), np.log(np.abs(ws)), 1)[0])


def fitted_growth_exponent(ls: LengthSpectrum) -> float:
    """Slope of log N(R) against R at 40 radii over the upper half of the
    length range.

    The lower half is skipped because the counting function there is too
    coarse to fit; the top of the range keeps the full population.
    """
    lengths = np.sort(ls.l0)
    if len(lengths) < 10:
        raise ValidationError("need at least 10 primitive classes to fit a growth exponent")
    lo, hi = lengths[len(lengths) // 2], lengths[-1]
    rs = np.linspace(lo, hi, 40)
    counts = np.array([counting_function(ls, float(r)) for r in rs], dtype=float)
    return float(np.polyfit(rs, np.log(counts), 1)[0])


# ---------------------------------------------------------------- anchors


def _matrix_partial_fractions(rng: np.random.Generator) -> float:
    worst = 0.0
    for count in range(2, 7):
        while True:
            v = rng.normal(size=(5, 5))
            if np.linalg.cond(v) < 100.0:
                break
        lam = np.sort(rng.uniform(0.5, 5.0, size=5)) + 0.2 * np.arange(5)
        a = v @ np.diag(lam) @ np.linalg.inv(v)
        aset = anchor_set(_separated_anchors(rng, count))
        coeffs = partial_fraction_coeffs(aset)
        eye = np.eye(5)
        invs = [np.linalg.inv(a + (s * s) * eye) for s in aset.anchors]
        lhs = eye.copy()
        for inv in invs:
            lhs = lhs @ inv
        rhs = sum(c * inv for c, inv in zip(coeffs, invs))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _moment_vanishing(rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(2, 7))
        aset = anchor_set(_separated_anchors(rng, count))
        coeffs = partial_fraction_coeffs(aset)
        for l in range(count - 1):
            scale = sum(abs(c) * abs(s) ** (2 * l) for c, s in zip(coeffs, aset.anchors))
            worst = max(worst, abs(moment_sum(aset, l)) / scale)
        worst = max(worst, abs(moment_sum(aset, count - 1) - (-1.0) ** (count - 1)))
    worst = max(worst, abs(moment_sum(anchor_set((1.0, 2.0, 3.0)), 1)))
    return worst


def _combination_decay() -> float:
    ts = np.geomspace(1e-4, 1e-3, 9)
    deficit = 0.0
    for count in (3, 4, 5, 6, 7):
        aset = anchor_set(tuple(float(j) for j in range(1, count + 1)))
        slope = _loglog_slope(ts, small_t_combination(aset, ts))
        deficit = max(deficit, (count - 1) - slope)
    return max(0.0, deficit)


def suite_lemma6(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        _check("matrix partial fractions (N=2..6)", _matrix_partial_fractions(rng), 1e-9),
        _check("anchor moment vanishing", _moment_vanishing(rng), 1e-9),
        _check("small-time combination decay", _combination_decay(), 0.1),
    ]


# ------------------------------------------------------------- characters

_B_WEIGHTS = {
    1: [(0,), (1,), (3,), (Fraction(1, 2),), (Fraction(5, 2),)],
    2: [(1, 0), (2, 1), (3, 1), (Fraction(3, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2))],
    3: [(1, 1, 0), (2, 1, 1), (Fraction(3, 2), Fraction(3, 2), Fraction(1, 2))],
}

_D_WEIGHTS = {
    2: [(1, 0), (2, 1), (2, -1), (Fraction(3, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 2))],
    3: [(1, 1, 0), (2, 1, -1), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))],
}


def suite_characters(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    route_err = 0.0
    dim_err = 0.0
    for family, batches in (("B", _B_WEIGHTS), ("D", _D_WEIGHTS)):
        for n, weights in batches.items():
            for w in weights:
                th = rng.uniform(0.3, 2.8, size=(25, n))
                alt = weyl_character(w, th, family, route="alternant")
                tab = weyl_character(w, th, family, route="weights")
                scale = np.maximum(1.0, np.abs(tab))
                route_err = max(route_err, float(np.max(np.abs(alt - tab) / scale)))
                at_zero = complex(weyl_character(w, np.zeros(n), family, route="weights"))
                dim = weyl_dim(tuple(Fraction(c) for c in w), family)
                dim_err = max(dim_err, abs(at_zero - dim))
    return [
        _check("alternant vs weight table", route_err, 1e-9),
        _check("character at zero equals dimension", dim_err, 1e-12),
    ]


# -------------------------------------------------------------- branching

_SIGMA_SPLIT = {
    2: [(1, 1), (2, -1), (3, 2), (Fraction(3, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(-3, 2))],
    3: [(1, 1, 1), (2, 2, -1), (3, 1, 1), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))],
}

_SIGMA_INVARIANT = {
    1: [(0,)],
    2: [(0, 0), (1, 0), (3, 0)],
    3: [(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 3, 0)],
}

_TAU_BATCH = {
    2: [(2, 1), (3, 0), (Fraction(3, 2), Fraction(1, 2))],
    3: [(2, 1, 1), (3, 2, 0), (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))],
}


def _restriction_candidates(taus) -> set:
    cands = set()
    for tau in taus:
        for w in branch_weights(tau):
            cands.add(w)
    return cands


def suite_branching(seed: int = 0) -> list[CheckResult]:
    del seed  # exact integer identities; nothing random to draw
    dim_err = 0
    for taus in _TAU_BATCH.values():
        for tau in taus:
            tau = tuple(Fraction(c) for c in tau)
            # interlacing branching is multiplicity free, so summing the
            # constituent dimensions must recover the ambient dimension
            total = sum(weyl_dim(w, "D") for w in branch_weights(tau))
            dim_err = max(dim_err, abs(total - weyl_dim(tau, "B")))
            for sp in sorted(_restriction_candidates([tau]))[:6]:
                count = sum(1 for w in branch_weights(tau) if w == sp)
                dim_err = max(dim_err, abs(branching_multiplicity(tau, sp) - count))

    split_err = 0
    for sigmas in _SIGMA_SPLIT.values():
        for sigma in sigmas:
            sigma = tuple(Fraction(c) for c in sigma)
            plus, minus = tau_pm_split(sigma)
            for sp in _restriction_candidates([*plus, *minus]):
                net = sum(c * branching_multiplicity(t, sp) for t, c in plus.items()) - sum(
                    c * branching_multiplicity(t, sp) for t, c in minus.items()
                )
                want = int(sp == sigma) + int(sp == weyl_action(sigma))
                split_err = max(split_err, abs(net - want))

    inversion_err = 0
    for sigmas in _SIGMA_INVARIANT.values():
        for sigma in sigmas:
            sigma = tuple(Fraction(c) for c in sigma)
            coeffs = m_tau_coeffs(sigma)
            for sp in _restriction_candidates(coeffs):
                net = sum(c * branching_multiplicity(t, sp) for t, c in coeffs.items())
                inversion_err = max(inversion_err, abs(net - int(sp == sigma)))

    ext_err = 0
    for d in (3, 5, 7):
        gd = GroupData(d)
        total = 0
        for p in range(0, d):
            # each constituent is listed once, with multiplicity one
            dim = sum(weyl_dim(w, "D") for w in exterior_decomposition(gd, p))
            total += dim
            ext_err = max(ext_err, abs(dim - math.comb(d - 1, p)))
        ext_err = max(ext_err, abs(total - 2 ** (d - 1)))

    return [
        _check("restriction preserves dimension", dim_err, 0),
        _check("plus/minus split restricts to sigma + w sigma", split_err, 0),
        _check("restriction inversion delta", inversion_err, 0),
        _check("exterior power decomposition dimensions", ext_err, 0),
    ]


# ------------------------------------------------------------- plancherel


def heat_integral_reference(P: PlancherelPolynomial, t: float) -> complex:
    """Trapezoid quadrature of the identity-term integrand on a window wide
    enough that the Gaussian tail sits below the target accuracy. The
    integrand is analytic and decays fast, so the trapezoid rule converges
    spectrally here."""
    half = math.sqrt(56.0 / t)
    lam = np.linspace(-half, half, 40001)
    vals = np.exp(-t * lam * lam) * P.evaluate_many(1j * lam)
    h = lam[1] - lam[0]
    return complex(h * (vals.sum() - 0.5 * (vals[0] + vals[-1])))


def suite_plancherel(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    closed_err = 0
    gd3 = GroupData(3)
    for k in (0, 1, 2, 5, Fraction(1, 2), Fraction(7, 2)):
        P = plancherel_polynomial(gd3, (k,))
        want = (-Fraction(k) ** 2, Fraction(1))
        closed_err = max(closed_err, int(P.exact != want))

    even_err = 0.0
    for d in (3, 5, 7, 9):
        gd = GroupData(d)
        sigma = (1,) + (0,) * (gd.n - 1)
        P = plancherel_polynomial(gd, sigma)
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            even_err = max(even_err, abs(P(z) - P(-z)))

    heat_err = 0.0
    for d in (3, 5, 7):
        gd = GroupData(d)
        for sigma in ((0,) * gd.n, (1,) + (0,) * (gd.n - 1)):
            P = plancherel_polynomial(gd, sigma)
            for t in (0.05, 0.3, 1.0):
                ref = heat_integral_reference(P, t)
                got = plancherel_heat_integral(P, t)
                heat_err = max(heat_err, abs(got - ref) / max(1e-30, abs(ref)))

    return [
        _check("rank one closed form", closed_err, 0),
        _check("evenness in z", even_err, 0),
        _check("heat integral vs quadrature", heat_err, 1e-9),
    ]


# ------------------------------------------------------------------- zeta


def suite_zeta(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gd = GroupData(3)
    ls = synthesize(gd, 200, systole=0.5, seed=int(rng.integers(2**31)))
    sigma = (0,)
    tp = TruncationPolicy(lmax=40.0, tail_eps=1e-13)
    a = abscissa_estimate(ls)

    h = 1e-2  # the step of a five-point central difference of log Z
    points = [complex(a + 1.0 + rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0))
              for _ in range(10)]
    directs = series_grid("logderiv", points, sigma, ls, tp)
    logs = series_grid("selberg", [z for s in points for z in (s + 2 * h, s + h, s - h, s - 2 * h)],
                       sigma, ls, tp)
    fd_err = 0.0
    for i, direct in enumerate(v.value for v in directs):
        f2, f1, fm1, fm2 = (v.value for v in logs[4 * i:4 * i + 4])
        fd = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
        fd_err = max(fd_err, abs(direct - fd) / max(1e-30, abs(direct)))

    fact_err = 0.0
    for d in (3, 5):
        gdd = GroupData(d)
        lsd = synthesize(gdd, 100, systole=0.6, seed=int(rng.integers(2**31)))
        sig = (0,) * gdd.n
        tpd = TruncationPolicy(lmax=30.0 if d == 3 else 14.0, tail_eps=1e-2)
        ar = abscissa_estimate(lsd, kind="ruelle")
        points = [complex(ar + 1.0 + rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
                  for _ in range(5)]
        for lhs, rhs in ruelle_factorization(points, sig, lsd, tpd):
            fact_err = max(fact_err, abs(lhs.value - rhs.value))

    bracket_err = 0.0
    for d in (3, 5):
        gdd = GroupData(d)
        lengths, angles = [], []
        for _ in range(500):
            lengths.append(float(rng.uniform(0.4, 4.0)))
            angles.append(rng.uniform(0.0, 2.0 * math.pi, size=gdd.n))
        brackets = exterior_class_sum(gdd, lengths, angles).tolist()
        bracket_err = max(bracket_err, *(abs(b - 1.0) for b in brackets))

    return [
        _check("log derivative vs finite differences", fd_err, 1e-6),
        _check("ruelle factorization", fact_err, 1e-8),
        _check("per-class factorization bracket", bracket_err, 1e-12),
    ]


# ----------------------------------------------------------------- growth


def _abs_terms(ls: LengthSpectrum, s: complex, lmax: float, kind: str) -> float:
    """The sum of |term| over the series of kind for sigma = 0, at s up to
    lmax: what the rounding of that series scales with."""
    plan = ls.power_table(lmax)
    weight = plan.l0() if kind == "logderiv" else plan.inv_j()
    # e^{-a L} made in the derived length column
    decay = plan.length()
    a = s.real if kind == "ruelle" else s.real + ls.gd.rho_norm
    np.exp(np.multiply(-a, decay, out=decay), out=decay)
    if kind == "ruelle":
        return float(np.sum(weight * np.abs(plan.chi_trace) * decay))
    return float(np.sum(weight * np.abs(plan.chi_trace) * decay / plan.det_rows()))


def suite_growth(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gd = GroupData(3)
    ls = synthesize(gd, 5000, systole=0.5, seed=int(rng.integers(2**31)))
    target = 2.0 * gd.rho_norm
    fit_err = abs(fitted_growth_exponent(ls) - target) / target

    # the part a short cutoff drops, against its bound plus a rounding
    # allowance R = 64 u sum |terms|, and against the bound alone once it
    # is larger than 10 R: the worst ratio of dropped part to allowance
    twisted = synthesize(gd, 400, systole=0.5, seed=int(rng.integers(2**31)), dim_chi=3, chi_norm=1.3)
    sigma = (0,)
    long = TruncationPolicy(lmax=40.0, tail_eps=math.inf)
    tail_err = 0.0
    for kind, series in (("selberg", selberg_log), ("ruelle", ruelle_log),
                         ("logderiv", log_derivative)):
        for _ in range(2):
            s = complex(abscissa_estimate(twisted, kind) + rng.uniform(0.1, 1.0),
                        rng.uniform(-2.0, 2.0))
            reference = series(s, sigma, twisted, long).value
            rounding = 64.0 * 2.0**-53 * _abs_terms(twisted, s, long.lmax, kind)
            for lmax in (3.0, 6.0):
                short = series(s, sigma, twisted, TruncationPolicy(lmax, math.inf))
                dropped = abs(short.value - reference)
                allowed = short.tail_bound + (rounding if dropped <= 10.0 * rounding else 0.0)
                if dropped:
                    tail_err = max(tail_err, dropped / allowed if allowed else math.inf)

    return [
        _check("counting exponent vs 2|rho|", fit_err, 0.15),
        _check("per-class tail covers the dropped terms", tail_err, 1.0),
    ]


# ------------------------------------------------------------------- heat


def suite_heat(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    ts = np.geomspace(1e-4, 1e-3, 9)
    slope_err = 0.0
    for d in (3, 5):
        gd = GroupData(d)
        ls = synthesize(gd, 20, systole=0.8, seed=int(rng.integers(2**31)))
        sigma = (0,) * gd.n
        tp = TruncationPolicy(lmax=10.0)
        totals = heat_totals(ls, sigma, ts, tp)
        target = -d / 2.0
        slope_err = max(slope_err, abs(_loglog_slope(ts, totals) - target) / abs(target))
        count = gd.n + 2
        aset = anchor_set(tuple(float(j) for j in range(1, count + 1)))
        combo = small_t_combination(aset, ts) * totals
        target = (count - 1) - d / 2.0
        slope_err = max(slope_err, abs(_loglog_slope(ts, combo) - target) / abs(target))
    return [_check("small-time heat trace slopes", slope_err, 0.05)]


# -------------------------------------------------------------- identities


def suite_identities(seed: int = 0) -> list[CheckResult]:
    del seed  # fixed evaluation grids
    hr_err = 0.0
    for s in (1.0, 2.0, 2.0 + 1.0j, 3.0 - 1.0j, 0.5):
        for length in (0.2, 1.0, 2.5, 5.0):
            lhs, rhs = heat_resolvent_identity(s, length)
            hr_err = max(hr_err, abs(lhs - rhs) / abs(rhs))

    one = PlancherelPolynomial(coeffs=(1.0 + 0j,), exact=(Fraction(1),))
    square = PlancherelPolynomial(coeffs=(0j, 1.0 + 0j), exact=(Fraction(0), Fraction(1)))
    points = (1.0, 2.0, 0.5, 0.7 + 0.3j, 1.5 - 0.4j)
    cauchy_one = 0.0
    cauchy_sq = 0.0
    for s in points:
        lhs, rhs = cauchy_plancherel_identity(s, one)
        cauchy_one = max(cauchy_one, abs(lhs - rhs))
        lhs, rhs = cauchy_plancherel_identity(s, square)
        cauchy_sq = max(cauchy_sq, abs(lhs - rhs) / abs(rhs))

    group_err = 0.0
    for d in (3, 5):
        gd = GroupData(d)
        P = plancherel_polynomial(gd, (1,) + (0,) * (gd.n - 1))
        # points chosen off the real zeros of the densities
        for s in (1.3, 2.0 + 0.5j):
            lhs, rhs = cauchy_plancherel_identity(s, P)
            group_err = max(group_err, abs(lhs - rhs) / abs(rhs))

    return [
        _check("heat kernel resolvent identity", hr_err, 1e-7),
        _check("cauchy integral, constant density", cauchy_one, 1e-10),
        _check("cauchy integral, quadratic density", cauchy_sq, 1e-6),
        _check("cauchy integral, group densities", group_err, 1e-6),
    ]


# -------------------------------------------------------------- resolvent


def suite_resolvent(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gd = GroupData(3)
    ls = synthesize(gd, 200, systole=0.5, seed=int(rng.integers(2**31)))
    sigma = (0,)
    # slowest anchor has unit gap deficit 0.5, so the certified tail at
    # lmax 40 sits around 1e-6 and enters the total damped by c_i / 2 s_i
    tp = TruncationPolicy(lmax=40.0, tail_eps=1e-5)
    route_err = 0.0
    for anchors in ((2.0, 3.0), (1.5, 2.5, 3.5)):
        aset = anchor_set(anchors)
        geo = resolvent_trace_geometric(ls, sigma, aset, tp).value
        heat = resolvent_trace_via_heat(ls, sigma, aset, tp).value
        route_err = max(route_err, abs(geo - heat) / abs(geo))

    entries = tuple(
        (float(t), int(m)) for t, m in zip(rng.uniform(0.5, 9.0, 6), rng.integers(1, 4, 6))
    )
    es = EigenSpectrum(entries=entries)
    cl = continued_from(es, gd, sigma, dim_chi=1, volume=1.0)
    direct_err = 0.0
    for s in (1.7, 2.3 + 0.4j):
        poly = 2.0 * math.pi * cl.dim_chi * cl.volume * cl.P(s)
        recovered = (cl(s) + poly) / (2.0 * s)
        direct = sum(m / (s * s + t) for t, m in es.entries)
        direct_err = max(direct_err, abs(recovered - direct) / abs(direct))
    spectral = resolvent_trace_spectral(es, anchor_set((1.7, 2.6)))
    by_hand = sum(m / ((t + 1.7**2) * (t + 2.6**2)) for t, m in es.entries)
    direct_err = max(direct_err, abs(spectral - by_hand) / abs(by_hand))

    return [
        _check("geometric vs heat resolvent route", route_err, 1e-5),
        _check("continuation matches eigenvalue sums", direct_err, 1e-12),
    ]


# --------------------------------------------------------------- residues


def _random_eigen(rng: np.random.Generator, with_zero: bool) -> EigenSpectrum:
    entries: list[tuple[complex, int]] = []
    used: list[complex] = []
    count = int(rng.integers(3, 7))
    while len(entries) < count:
        if rng.uniform() < 0.25:
            t = complex(rng.uniform(0.5, 10.0), rng.uniform(-2.0, 2.0))
        else:
            t = complex(rng.uniform(0.5, 10.0))
        if all(abs(t - u) > 0.3 for u in used):
            used.append(t)
            entries.append((t, int(rng.integers(1, 4))))
    if with_zero:
        entries.append((0j, int(rng.integers(1, 3))))
    return EigenSpectrum(entries=tuple(entries))


def suite_residues(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    gd = GroupData(3)
    order_err = 0
    raw_err = 0.0
    for i in range(20):
        es = _random_eigen(rng, with_zero=(i == 0))
        cl = continued_from(es, gd, (0,), dim_chi=1, volume=1.0)
        for point, order in singularities(cl):
            raw = contour_residue(cl, point)
            raw_err = max(raw_err, abs(raw - round(raw.real)))
            order_err = max(order_err, abs(round(raw.real) - order))
    return [
        _check("residues recover multiplicities", order_err, 0),
        _check("residue contour residual", raw_err, 1e-6),
    ]


# ------------------------------------------------------------------ suites

SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "lemma6": suite_lemma6,
    "characters": suite_characters,
    "branching": suite_branching,
    "plancherel": suite_plancherel,
    "zeta": suite_zeta,
    "growth": suite_growth,
    "heat": suite_heat,
    "identities": suite_identities,
    "resolvent": suite_resolvent,
    "residues": suite_residues,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or every suite for name 'all'."""
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        known = ", ".join(["all", *SUITES])
        raise ValidationError(f"unknown suite {name!r}; known suites: {known}")
    return SUITES[name](seed)


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  max error {r.max_error:.3e}  tolerance {r.tolerance:.1e}  {status}"
        )
    return "\n".join(lines) + "\n"
