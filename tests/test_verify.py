import numpy as np
import pytest

from zetaflow import branching, chars, continuation, plancherel, spectra, verify
from zetaflow import CheckResult, ValidationError, fitted_growth_exponent, run_suite, synthesize
from zetaflow.verify import SUITES, format_results


def test_every_suite_passes():
    for name in SUITES:
        results = run_suite(name)
        assert results, name
        for r in results:
            assert isinstance(r, CheckResult)
            assert r.passed, f"{name}: {r.name} error {r.max_error:g} tol {r.tolerance:g}"


def test_all_concatenates_everything():
    combined = run_suite("all")
    total = sum(len(run_suite(name)) for name in SUITES)
    assert len(combined) == total


def test_unknown_suite_is_rejected():
    with pytest.raises(ValidationError) as info:
        run_suite("nope")
    assert "lemma6" in str(info.value)


def test_seed_changes_inputs_not_outcomes():
    a = run_suite("lemma6", seed=0)
    b = run_suite("lemma6", seed=1)
    assert [r.name for r in a] == [r.name for r in b]
    assert all(r.passed for r in b)
    assert any(x.max_error != y.max_error for x, y in zip(a, b))


def test_format_results_layout():
    results = run_suite("plancherel")
    text = format_results(results)
    lines = text.splitlines()
    assert len(lines) == len(results)
    for line, r in zip(lines, results):
        assert line.startswith(r.name)
        assert ("ok" in line) == r.passed


def test_fitted_growth_exponent(gd3):
    ls = synthesize(gd3, 3000, systole=0.5, seed=9)
    fit = fitted_growth_exponent(ls)
    assert abs(fit - 2.0) <= 0.3
    with pytest.raises(ValidationError):
        fitted_growth_exponent(synthesize(gd3, 5, systole=0.5, seed=9))


def test_characters_suite_fails_on_a_perturbed_weight_table(monkeypatch):
    original = chars.weight_multiplicities

    def flipped(family, lam):
        system = dict(original(family, lam))
        mu = min(system)
        system[mu] = -system[mu]
        return system

    monkeypatch.setattr(chars, "weight_multiplicities", flipped)
    # tables built from the flipped systems must not outlive this test
    chars._character_table.cache_clear()
    try:
        results = run_suite("characters")
    finally:
        chars._character_table.cache_clear()
    assert [r.passed for r in results] == [False, False]


def test_growth_suite_fails_without_the_twist_rate(monkeypatch):
    # k = 0 certifies only the traces seen up to the default cutoff
    monkeypatch.setattr(spectra.LengthSpectrum, "twist_rate", property(lambda self: 0.0))
    try:
        results = run_suite("growth")
    finally:
        monkeypatch.undo()
    assert [(r.name, r.passed) for r in results] == [
        ("counting exponent vs 2|rho|", True),
        ("growth certificate validates", False),
    ]


def test_zeta_suite_fails_on_a_dropped_exterior_piece(monkeypatch):
    # zeta imports exterior_decomposition when it runs, so the branching
    # module's name is the one it reads
    original = branching.exterior_decomposition

    def dropped(gd, p):
        pieces = original(gd, p)
        return pieces[:-1] if p == 1 else pieces

    monkeypatch.setattr(branching, "exterior_decomposition", dropped)
    try:
        results = run_suite("zeta")
    finally:
        monkeypatch.undo()
    assert [(r.name, r.passed) for r in results] == [
        ("log derivative vs finite differences", True),
        ("ruelle factorization", False),
        ("per-class factorization bracket", False),
    ]


def _outcomes_under(monkeypatch, suite, *patches):
    """(name, passed) per check of run_suite(suite) with every
    (owner, attribute, value) of patches in place; undone in a finally."""
    try:
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, value)
        return [(r.name, r.passed) for r in run_suite(suite)]
    finally:
        monkeypatch.undo()


def test_lemma6_suite_fails_on_perturbed_anchor_combinations(monkeypatch):
    coeffs = continuation.partial_fraction_coeffs
    combination = continuation.small_t_combination

    def scaled(aset):
        return tuple(c * (1 + 1e-6) for c in coeffs(aset))

    # both bindings: verify reads the coefficients, moment_sum its own copy
    assert _outcomes_under(monkeypatch, "lemma6", (verify, "partial_fraction_coeffs", scaled),
                           (continuation, "partial_fraction_coeffs", scaled)) == [
        ("matrix partial fractions (N=2..6)", False),
        ("anchor moment vanishing", False),
        ("small-time combination decay", True),
    ]

    def floored(aset, t):
        return combination(aset, t) + 1e-9 * coeffs(aset)[0]

    def plain(aset, t):
        # sum_i c_i exp(-t s_i^2) without the Taylor-remainder route
        return sum(c * np.exp(-np.asarray(t) * (a * a)) for c, a in zip(coeffs(aset), aset.anchors))

    for patch in (floored, plain):
        assert _outcomes_under(monkeypatch, "lemma6", (verify, "small_t_combination", patch)) == [
            ("matrix partial fractions (N=2..6)", True),
            ("anchor moment vanishing", True),
            ("small-time combination decay", False),
        ]


def test_plancherel_suite_fails_on_a_perturbed_density(monkeypatch):
    call = plancherel.PlancherelPolynomial.__call__
    exact = plancherel._exact_coeffs
    heat_integral = verify.plancherel_heat_integral
    names = ["rank one closed form", "evenness in z", "heat integral vs quadrature"]

    def doubled(gd, sigma):
        return tuple(2 * c for c in exact(gd, sigma)) if gd.n == 1 else exact(gd, sigma)

    for patch, failing in (
        ((plancherel.PlancherelPolynomial, "__call__", lambda P, z: call(P, z) + 1e-3 * z),
         "evenness in z"),
        ((plancherel, "_exact_coeffs", doubled), "rank one closed form"),
        ((verify, "plancherel_heat_integral", lambda P, t: heat_integral(P, t) * (1 + 1e-6)),
         "heat integral vs quadrature"),
    ):
        assert _outcomes_under(monkeypatch, "plancherel", patch) == [
            (name, name != failing) for name in names
        ]


def test_heat_suite_fails_on_a_tilted_heat_trace(monkeypatch):
    totals = verify.heat_totals

    def tilted(ls, sigma, ts, policy):
        return totals(ls, sigma, ts, policy) * np.asarray(ts) ** 0.1

    assert _outcomes_under(monkeypatch, "heat", (verify, "heat_totals", tilted)) == [
        ("small-time heat trace slopes", False),
    ]


def test_residues_suite_fails_on_a_shifted_residue(monkeypatch):
    residue = verify.contour_residue
    shifted = (verify, "contour_residue", lambda cl, point: residue(cl, point) + 0.6)
    assert _outcomes_under(monkeypatch, "residues", shifted) == [
        ("residues recover multiplicities", False),
        ("residue contour residual", False),
    ]


def test_branching_suite_fails_on_each_mutated_quantity(monkeypatch):
    names = ["restriction preserves dimension",
             "plus/minus split restricts to sigma + w sigma",
             "restriction inversion delta",
             "exterior power decomposition dimensions"]
    weights = verify.branch_weights
    split = verify.tau_pm_split
    coeffs = verify.m_tau_coeffs
    decomposition = verify.exterior_decomposition

    def doubled(rep):
        return {t: 2 * c for t, c in rep.items()}

    def doubled_plus(sigma):
        plus, minus = split(sigma)
        return doubled(plus), minus

    def dropped_piece(gd, p):
        pieces = decomposition(gd, p)
        return pieces[:-1] if p == 1 else pieces

    # verify's own bindings only, so no lru_cache behind them sees a mutation
    for patch, failing in (
        ((verify, "branch_weights", lambda tau: list(weights(tau))[:-1]), names[0]),
        ((verify, "tau_pm_split", doubled_plus), names[1]),
        ((verify, "m_tau_coeffs", lambda sigma: doubled(coeffs(sigma))), names[2]),
        ((verify, "exterior_decomposition", dropped_piece), names[3]),
    ):
        assert _outcomes_under(monkeypatch, "branching", patch) == [
            (name, name != failing) for name in names
        ]


def _scaled_value(evaluate, factor):
    """evaluate with the value of its SeriesValue result times factor."""
    def scaled(*args):
        result = evaluate(*args)
        return result._replace(value=result.value * factor)
    return scaled


def test_zeta_suite_fails_on_a_perturbed_log_derivative(monkeypatch):
    scaled = _scaled_value(verify.log_derivative, 1 + 1e-5)
    assert _outcomes_under(monkeypatch, "zeta", (verify, "log_derivative", scaled)) == [
        ("log derivative vs finite differences", False),
        ("ruelle factorization", True),
        ("per-class factorization bracket", True),
    ]


def test_identities_suite_fails_on_each_mutated_identity(monkeypatch):
    names = ["heat kernel resolvent identity",
             "cauchy integral, constant density",
             "cauchy integral, quadratic density",
             "cauchy integral, group densities"]
    heat_identity = verify.heat_resolvent_identity
    cauchy = verify.cauchy_plancherel_identity

    def cauchy_off(picked):
        # the left side of the Cauchy identity off by 1e-5, relative, for
        # the densities picked only
        def mutated(s, P):
            lhs, rhs = cauchy(s, P)
            return (lhs * (1 + 1e-5) if picked(P) else lhs), rhs
        return mutated

    def heat_off(s, length):
        lhs, rhs = heat_identity(s, length)
        return lhs * (1 + 1e-6), rhs

    def constant(P):
        return len(P.coeffs) == 1

    def quadratic(P):
        return P.exact == (0, 1)

    for patch, failing in (
        ((verify, "heat_resolvent_identity", heat_off), names[0]),
        ((verify, "cauchy_plancherel_identity", cauchy_off(constant)), names[1]),
        ((verify, "cauchy_plancherel_identity", cauchy_off(quadratic)), names[2]),
        ((verify, "cauchy_plancherel_identity",
          cauchy_off(lambda P: not constant(P) and not quadratic(P))), names[3]),
    ):
        assert _outcomes_under(monkeypatch, "identities", patch) == [
            (name, name != failing) for name in names
        ]


def test_resolvent_suite_fails_on_each_mutated_route(monkeypatch):
    names = ["geometric vs heat resolvent route", "continuation matches eigenvalue sums"]
    spectral = verify.resolvent_trace_spectral
    for patch, failing in (
        ((verify, "resolvent_trace_geometric",
          _scaled_value(verify.resolvent_trace_geometric, 1 + 1e-4)), names[0]),
        ((verify, "resolvent_trace_spectral", lambda es, aset: spectral(es, aset) * (1 + 1e-9)),
         names[1]),
    ):
        assert _outcomes_under(monkeypatch, "resolvent", patch) == [
            (name, name != failing) for name in names
        ]
