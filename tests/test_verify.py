import pytest

from zetaflow import chars
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
    monkeypatch.setattr(chars, "_table_cache", {})
    results = run_suite("characters")
    assert [r.passed for r in results] == [False, False]
