"""The tail bound of every series and of the geometric heat trace covers
what its cutoff drops. Against a reference at a long cutoff, the
difference is at most bound + R everywhere, and at most the bound wherever
it is above 10 R, where R = 64 u sum |terms| (u = 2^-53) is the rounding
allowance of the reference's terms. The spectra run at d = 3, 5 and 7,
with growing twists at d = 3 and 5."""

import functools
import math

import numpy as np
import pytest

from oracles import WholeArrayPlan
from zetaflow import (
    GroupData,
    TruncationPolicy,
    abscissa_estimate,
    geometric_heat_trace,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
    synthesize,
    z_p_log,
)
from zetaflow import spectra
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
    # q_c^(J_c + 2) instead of q_c^(J_c + 1) leaves out each class's first
    # dropped power
    original = spectra._PowerTable.class_tail

    def late(plan, a, weight, scale, det=True):
        q = np.exp(plan._log_norms - a * plan._class_l0)
        return original(plan, a, weight * q, scale, det)

    monkeypatch.setattr(spectra._PowerTable, "class_tail", late)
    for d in SPECTRA:
        assert _uncovered(_series_cases(d)), d
        assert _uncovered(_heat_cases(d)), d
