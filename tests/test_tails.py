"""The tail bound of every series and of the geometric heat trace covers
what its cutoff drops. Against a reference at a long cutoff, the
difference is at most bound + R everywhere, and at most the bound wherever
it is above 10 R, where R = 64 u sum |terms| (u = 2^-53) is the rounding
allowance of the reference's terms. The spectra run at d = 3, 5 and 7,
with growing twists at d = 3 and 5. From the other side, a tail_eps just
below a printed tail refuses it, a Ruelle point just left of its abscissa
is refused, and on a class at its majorants the heat tail is within a
factor 2 of what it drops."""

import functools
import math

import numpy as np
import pytest

from oracles import WholeArrayPlan, read_table
from zetaflow import (
    DomainError,
    GroupData,
    LengthSpectrum,
    TruncationPolicy,
    abscissa_estimate,
    geometric_heat_trace,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    save,
    selberg_log,
    synthesize,
    z_p_log,
)
from zetaflow import cli, spectra
from zetaflow.branching import exterior_decomposition
from zetaflow.chars import character_table
from zetaflow.heat import plancherel_heat_integral
from zetaflow.plancherel import plancherel_polynomial

U = 2.0**-53
REFERENCE = TruncationPolicy(lmax=30.0, tail_eps=math.inf)

# d: (synthesize arguments, sigma, short cutoffs). d = 5 has a growing twist
# of dimension 2 with sigma = (1, 0), so dim_eff = 4.
SPECTRA = {
    3: (dict(count=200, systole=0.5, seed=7, dim_chi=2, chi_norm=1.2), (1,), (2.0, 4.0)),
    5: (dict(count=60, systole=0.6, seed=8, dim_chi=2, chi_norm=1.2), (1, 0), (1.5, 3.0)),
    7: (dict(count=40, systole=0.6, seed=9, dim_chi=3), (1, 0, 0), (1.0, 2.0)),
}

# kind: (evaluator, the abscissa its points sit right of)
SERIES = {
    "selberg_log": (selberg_log, "selberg"),
    "ruelle_log": (ruelle_log, "ruelle"),
    "log_derivative": (log_derivative, "logderiv"),
    "z_p_log": (lambda s, sigma, ls, tp: z_p_log(s, 1, sigma, ls, tp), "ruelle"),
    "ruelle_factorized_log": (ruelle_factorized_log, "ruelle"),
}


@functools.lru_cache(maxsize=None)
def _spectrum(d: int):
    return synthesize(GroupData(d), **SPECTRA[d][0])


def _series_pieces(ls, sig, s: complex, kind: str) -> list[tuple]:
    """(tables, point, series kind) of each Selberg-type or Ruelle series
    that the evaluator of kind sums."""
    if kind == "selberg_log":
        return [((sig,), s, "selberg")]
    if kind == "ruelle_log":
        return [((sig,), s, "ruelle")]
    if kind == "log_derivative":
        return [((sig,), s, "logderiv")]
    powers = [1] if kind == "z_p_log" else range(2 * ls.gd.n + 1)
    return [((sig, character_table("D", psi)), s + ls.gd.rho_norm - p, "selberg")
            for p in powers for psi in exterior_decomposition(ls.gd, p)]


def _series_cases(d: int) -> list[tuple]:
    """(label, bound, observed, R) for each series kind, two points and
    each short cutoff."""
    ls = _spectrum(d)
    sigma, cutoffs = SPECTRA[d][1:]
    sig = character_table("D", sigma)
    whole = WholeArrayPlan(ls, REFERENCE.lmax)
    cases = []
    for kind, (evaluate, abscissa) in SERIES.items():
        for gap in (0.3, 1.0):
            s = complex(abscissa_estimate(ls, abscissa) + gap, 0.7)
            reference = evaluate(s, sigma, ls, REFERENCE).value
            size = sum(float(np.abs(whole.terms(tables, point, k)).sum())
                       for tables, point, k in _series_pieces(ls, sig, s, kind))
            for lmax in cutoffs:
                short = evaluate(s, sigma, ls, TruncationPolicy(lmax=lmax, tail_eps=math.inf))
                cases.append(((kind, d, s, lmax), short.tail_bound,
                              abs(short.value - reference), 64.0 * U * size))
    return cases


def _heat_cases(d: int) -> list[tuple]:
    """(label, bound, observed, R) of the heat trace at five times for
    each short cutoff, three with lmax / 4t above |rho| + k and two at or
    below it, where a tail from the growth of the lengths would need a
    longer cutoff; the identity term is one of the terms."""
    ls = _spectrum(d)
    sigma, cutoffs = SPECTRA[d][1:]
    sig = character_table("D", sigma)
    whole = WholeArrayPlan(ls, REFERENCE.lmax)
    P = plancherel_polynomial(ls.gd, sigma)
    cases = []
    for lmax in cutoffs:
        for fraction in (0.2, 0.5, 0.9, 1.0, 3.0):
            # lmax / 4t = (|rho| + k) / fraction
            t = fraction * lmax / (4.0 * (ls.gd.rho_norm + ls.twist_rate))
            reference = geometric_heat_trace(ls, sigma, [t], REFERENCE)[0].value
            identity = ls.dim_chi * ls.volume * plancherel_heat_integral(P, t)
            kernel = np.exp(-whole.length**2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            size = abs(identity) + float(np.abs(whole.heat_base(sig) * kernel).sum())
            short = geometric_heat_trace(ls, sigma, [t], TruncationPolicy(lmax=lmax,
                                                                           tail_eps=math.inf))[0]
            cases.append((("heat", d, t, lmax), short.tail_bound,
                          abs(short.value - reference), 64.0 * U * size))
    return cases


def _uncovered(cases: list[tuple]) -> list[tuple]:
    return [label for label, bound, observed, rounding in cases
            if observed > bound + rounding or (observed > 10.0 * rounding and observed > bound)]


def _above_rounding(cases: list[tuple]) -> set:
    """The kinds that drop more than 10 R somewhere, where a bound below
    the dropped part fails."""
    return {label[0] for label, _, observed, rounding in cases if observed > 10.0 * rounding}


@pytest.mark.parametrize("d", sorted(SPECTRA))
def test_series_tails_cover_the_dropped_terms(d):
    cases = _series_cases(d)
    assert _uncovered(cases) == []
    assert _above_rounding(cases) == set(SERIES)


@pytest.mark.parametrize("d", sorted(SPECTRA))
def test_heat_tail_covers_the_dropped_terms(d):
    cases = _heat_cases(d)
    assert _uncovered(cases) == []
    assert _above_rounding(cases) == {"heat"}


def test_a_tail_that_starts_one_power_late_is_caught(monkeypatch):
    # J_c + 1 counted for J_c, so the tail starts at q_c^(J_c + 2) and
    # leaves out each class's first dropped power
    original, max_power = spectra.LengthSpectrum.class_tail, spectra._max_power

    def late(ls, *args):
        with monkeypatch.context() as m:
            m.setattr(spectra, "_max_power", lambda *count: max_power(*count) + 1)
            return original(ls, *args)

    monkeypatch.setattr(spectra.LengthSpectrum, "class_tail", late)
    for d in SPECTRA:
        assert _uncovered(_series_cases(d)), d
        assert _uncovered(_heat_cases(d)), d


def _printed_tail(capsys, argv: list[str], table) -> tuple[int, list, str]:
    """The exit status, the rows it writes to table and the error text of
    one command-line job."""
    table.unlink(missing_ok=True)
    code = cli.main([*argv, "--output", str(table)])
    return code, (read_table(table) if code == 0 else []), capsys.readouterr().err


@pytest.mark.parametrize("command", ["selberg", "heat-trace"])
def test_the_printed_tail_is_the_refusal_threshold(command, tmp_path, capsys):
    # tail_eps a hair below the tail a job prints refuses it, a hair above
    # accepts it with the same rows: the gate compares the tail itself
    ls = _spectrum(3)
    save(ls, tmp_path / "spectrum.json")
    point = (["--s", repr(abscissa_estimate(ls) + 0.5)] if command == "selberg"
             else ["--t", "0.5"])
    argv = [command, "--spectrum", str(tmp_path / "spectrum.json"), "--sigma", "1",
            "--lmax", "4", *point, "--tail-eps"]
    table = tmp_path / "table.csv"
    code, rows, _ = _printed_tail(capsys, [*argv, "1"], table)
    assert code == 0 and len(rows) == 1
    tail = rows[0].tail_bound
    assert 0.0 < tail < 1.0
    code, _, err = _printed_tail(capsys, [*argv, repr(tail * (1.0 - 1e-9))], table)
    assert code == 2 and "certified " in err and f"tail {tail:.3e} exceeds" in err
    assert _printed_tail(capsys, [*argv, repr(tail * (1.0 + 1e-9))], table)[:2] == (0, rows)


def test_a_factorization_piece_tail_is_its_refusal_threshold():
    # z_p_log at p = 1 on d = 5 has one piece, so its tail is that piece's
    ls = _spectrum(5)
    sigma = SPECTRA[5][1]
    assert len(exterior_decomposition(ls.gd, 1)) == 1
    s = complex(abscissa_estimate(ls, "ruelle") + 0.5, 0.3)
    value = z_p_log(s, 1, sigma, ls, TruncationPolicy(lmax=3.0, tail_eps=1.0))
    tail = value.tail_bound
    assert 0.0 < tail < 1.0
    with pytest.raises(DomainError, match=f"certified tail {tail:.3e} exceeds"):
        z_p_log(s, 1, sigma, ls, TruncationPolicy(lmax=3.0, tail_eps=tail * (1.0 - 1e-9)))
    assert z_p_log(s, 1, sigma, ls, TruncationPolicy(lmax=3.0, tail_eps=tail * (1.0 + 1e-9))) \
        == value


def test_a_ruelle_point_just_left_of_its_abscissa_is_refused():
    # the Ruelle abscissa is 2|rho| + k with the twist's growth rate k; right
    # of 2|rho| + k/2 every class's ratio is already below 1, so only the
    # abscissa refuses a point between the two
    ls = _spectrum(3)
    k = ls.twist_rate
    assert k > 0.1
    s = complex(2.0 * ls.gd.rho_norm + k - 0.05, 0.2)
    tp = TruncationPolicy(lmax=4.0, tail_eps=math.inf)
    with pytest.raises(DomainError, match="series for kind 'ruelle' does not converge"):
        ruelle_log(s, SPECTRA[3][1], ls, tp)
    ruelle_log(s + 0.1, SPECTRA[3][1], ls, tp)


def test_the_heat_tail_is_tight_on_a_class_at_its_majorants():
    # one class with angles 0, so char_sigma = dim sigma at every power, and
    # chi = r I, so |tr chi^j| = dim_chi r^j; lmax just below its second
    # power, so the first dropped power dominates what is dropped and
    # bound / dropped is near 1 at every time
    gd = GroupData(5)
    ls = LengthSpectrum(gd, [1.0], [[0.0, 0.0]], [1.5 * np.eye(2)], 1.0, 2)
    sigma = (1, 0)
    sig = character_table("D", sigma)
    assert sig.norm_bound() == 4.0
    lmax = 2.0 * (1.0 - 1e-6)
    short, whole = WholeArrayPlan(ls, lmax), WholeArrayPlan(ls, REFERENCE.lmax)
    assert short.size == 1
    for t in (0.25, 0.5, 1.0, 2.0):
        bound = geometric_heat_trace(ls, sigma, [t], TruncationPolicy(lmax, math.inf))[0].tail_bound
        dropped = abs(whole.hyperbolic_sum(sig, t) - short.hyperbolic_sum(sig, t))
        kernel = np.exp(-whole.length**2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        rounding = 64.0 * U * float(np.abs(whole.heat_base(sig) * kernel).sum())
        assert dropped > 1e6 * rounding, t
        assert dropped <= bound <= 2.0 * dropped, (t, bound, dropped)


@pytest.mark.parametrize("evaluate, kind", [(selberg_log, "selberg"), (ruelle_log, "ruelle"),
                                            (log_derivative, "logderiv")])
def test_the_series_tails_are_tight_on_a_class_at_its_majorants(evaluate, kind):
    # as for the heat tail: angles 0 and chi = r I put every dropped power at
    # its majorant, all of one sign at a real s, and with lmax just below the
    # second power the first dropped power dominates, so bound / dropped is
    # near 1; a tail halved, or one without its dim_chi, falls below it
    gd = GroupData(5)
    ls = LengthSpectrum(gd, [1.0], [[0.0, 0.0]], [1.5 * np.eye(2)], 1.0, 2)
    sigma = (1, 0)
    sig = character_table("D", sigma)
    lmax = 2.0 * (1.0 - 1e-6)
    assert WholeArrayPlan(ls, lmax).size == 1
    s = complex(abscissa_estimate(ls, kind) + 1.0)
    short = evaluate(s, sigma, ls, TruncationPolicy(lmax, math.inf))
    dropped = abs(evaluate(s, sigma, ls, REFERENCE).value - short.value)
    terms = WholeArrayPlan(ls, REFERENCE.lmax).terms((sig,), s, kind)
    assert dropped > 1e6 * 64.0 * U * float(np.abs(terms).sum())
    assert dropped <= short.tail_bound <= 2.0 * dropped, (short.tail_bound, dropped)
