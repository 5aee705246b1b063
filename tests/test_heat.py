import math

import numpy as np
import pytest

from oracles import L_sym, classes, heat_integral_mp, powers_up_to
from zetaflow import (
    DomainError,
    EigenSpectrum,
    GroupData,
    LengthSpectrum,
    TruncationPolicy,
    ValidationError,
    geometric_heat_trace,
    heat_totals,
    plancherel_polynomial,
    spectral_heat_trace,
)
from zetaflow.heat import plancherel_heat_integral


def test_spectral_trace_is_a_plain_sum():
    es = EigenSpectrum(entries=((0j, 2), (1.5 + 0j, 3), (4 + 1j, 1)))
    for t in (0.1, 0.7, 2.0):
        want = 2 + 3 * math.exp(-1.5 * t) + np.exp(-(4 + 1j) * t)
        assert spectral_heat_trace(es, t) == pytest.approx(want, rel=1e-14)


def test_plancherel_integral_against_mpmath():
    cases = [(3, (0,)), (3, (3,)), (5, (0, 0)), (5, (2, 1)), (7, (1, 1, 0)), (9, (1, 0, 0, 0))]
    for d, sigma in cases:
        P = plancherel_polynomial(GroupData(d), sigma)
        for t in (0.05, 0.3, 1.0, 4.0):
            got = plancherel_heat_integral(P, t)
            ref = heat_integral_mp(P.exact, t)
            assert abs(got - ref) <= 1e-10 * abs(ref), (d, sigma, t)


def test_rank_one_heat_integral_closed_form():
    # P(z) = z^2 - k^2 integrates to -(1/(2t) + k^2) sqrt(pi/t)
    gd = GroupData(3)
    for k in (0, 1, 3):
        P = plancherel_polynomial(gd, (k,))
        for t in (0.02, 0.4, 2.5):
            want = -(0.5 / t + k * k) * math.sqrt(math.pi / t)
            assert plancherel_heat_integral(P, t) == pytest.approx(want, rel=1e-12)


def test_geometric_trace_assembles_identity_and_classes(ls3):
    sigma = (0,)
    t = 0.05
    tp = TruncationPolicy(lmax=12.0, tail_eps=1.0)
    ev = geometric_heat_trace(ls3, sigma, t, tp)
    P = plancherel_polynomial(ls3.gd, sigma)
    assert ev.identity_part == pytest.approx(
        ls3.dim_chi * ls3.volume * plancherel_heat_integral(P, t), rel=1e-14
    )
    manual = 0j
    cs = classes(ls3)
    for cp in powers_up_to(ls3, 12.0):
        manual += (
            cs[cp.class_index].l0
            * L_sym(ls3.gd, cp, sigma)
            * math.exp(-cp.length**2 / (4 * t))
        )
    manual /= math.sqrt(4 * math.pi * t)
    assert ev.hyperbolic_part == pytest.approx(manual, rel=1e-11)
    assert ev.total == ev.identity_part + ev.hyperbolic_part
    assert ev.tail_bound < 1e-200  # Gaussian tail at lmax = 12, t = 0.05


def test_heat_totals_match_scalar_calls(ls3):
    sigma = (0,)
    tp = TruncationPolicy(lmax=10.0, tail_eps=1.0)
    ts = np.geomspace(2e-3, 0.5, 7)
    grid = heat_totals(ls3, sigma, ts, tp)
    for t, v in zip(ts, grid):
        assert v == geometric_heat_trace(ls3, sigma, float(t), tp).total


def test_tail_bound_is_honest_in_time(ls3_twisted):
    sigma = (1,)
    t = 0.04
    short = geometric_heat_trace(ls3_twisted, sigma, t, TruncationPolicy(lmax=6.0, tail_eps=1.0))
    long = geometric_heat_trace(ls3_twisted, sigma, t, TruncationPolicy(lmax=20.0, tail_eps=1.0))
    assert abs(short.total - long.total) <= short.tail_bound + 1e-15


def test_small_time_blowup_rate(ls3):
    # the identity term dominates like t^{-d/2} as t goes to 0
    tp = TruncationPolicy(lmax=10.0, tail_eps=1.0)
    ts = np.geomspace(1e-4, 1e-3, 9)
    ws = np.abs(heat_totals(ls3, (0,), ts, tp))
    slope = np.polyfit(np.log(ts), np.log(ws), 1)[0]
    assert abs(slope - (-1.5)) < 0.05 * 1.5


def test_large_time_needs_large_lmax(ls3):
    # at t = 5 the Gaussian no longer kills the far powers under lmax = 6
    with pytest.raises(DomainError):
        geometric_heat_trace(ls3, (0,), 5.0, TruncationPolicy(lmax=6.0, tail_eps=1e-10))


def test_cutoff_below_the_shortest_class_is_refused(ls3):
    shortest = float(ls3.l0.min())
    tp = TruncationPolicy(lmax=0.5 * shortest, tail_eps=1.0)
    with pytest.raises(DomainError, match=f"shortest class has length {shortest:g}"):
        geometric_heat_trace(ls3, (0,), 0.01, tp)
    # the check that the tail is controllable at t still comes first
    with pytest.raises(DomainError, match="not controllable"):
        geometric_heat_trace(ls3, (0,), 1.0, tp)
    # an empty spectrum has nothing to drop
    empty = LengthSpectrum(gd=ls3.gd, l0=[], angles=np.empty((0, 1)), chi=np.empty((0, 1, 1)),
                           volume=1.0, dim_chi=1)
    assert geometric_heat_trace(empty, (0,), 0.01, tp).tail_bound == 0.0


def test_time_validation(ls3):
    with pytest.raises(ValidationError):
        geometric_heat_trace(ls3, (0,), 0.0, TruncationPolicy(lmax=10.0))
    with pytest.raises(ValidationError):
        heat_totals(ls3, (0,), np.array([0.1, -0.2]), TruncationPolicy(lmax=10.0))


def test_heat_totals_below_the_kernel_underflow(ls3):
    # below t = lmin^2 / 2980 every exp(-L^2 / 4t) underflows and only the
    # identity part is left
    sigma = (0,)
    tp = TruncationPolicy(lmax=10.0, tail_eps=1.0)
    lmin = float(ls3.power_table(tp.lmax).length[0])
    ts = np.geomspace(1e-6, 0.5, 13)
    dead = np.exp(-(lmin**2) / (4.0 * ts)) == 0.0
    assert dead.any() and not dead.all()
    grid = heat_totals(ls3, sigma, ts, tp)
    P = plancherel_polynomial(ls3.gd, sigma)
    for t, v in zip(ts[dead], grid[dead]):
        assert v == ls3.dim_chi * ls3.volume * plancherel_heat_integral(P, float(t))
    for t, v in zip(ts, grid):
        assert v == geometric_heat_trace(ls3, sigma, float(t), tp).total


def test_plancherel_integral_against_mpmath_at_high_degree():
    # the Gamma-factor route has no cancellation at any degree: every term
    # has the sign of the leading one
    for d, lead in ((43, (3, 1)), (45, ()), (61, (2,))):
        gd = GroupData(d)
        P = plancherel_polynomial(gd, lead + (0,) * (gd.n - len(lead)))
        for t in (0.05, 1.0, 3.0):
            ref = heat_integral_mp(P.exact, t)
            assert abs(plancherel_heat_integral(P, t) - ref) <= 1e-14 * abs(ref), (d, t)


def test_nan_heat_time_is_refused(ls3):
    tp = TruncationPolicy(lmax=10.0)
    nan = float("nan")
    es = EigenSpectrum(entries=((1.5 + 0j, 1),))
    P = plancherel_polynomial(ls3.gd, (0,))
    for call in (lambda: spectral_heat_trace(es, nan), lambda: plancherel_heat_integral(P, nan),
                 lambda: geometric_heat_trace(ls3, (0,), nan, tp),
                 lambda: heat_totals(ls3, (0,), np.array([0.1, nan, -1.0]), tp)):
        with pytest.raises(ValidationError, match="heat time must be positive, got nan"):
            call()


def test_identity_term_past_the_float_range_is_refused():
    # (-1e300) Gamma(1/2) t^-1/2 rounds to -inf without raising
    P = plancherel_polynomial(GroupData(3), (10**150,))
    with pytest.raises(DomainError, match="overflows at t = 1e-30"):
        plancherel_heat_integral(P, 1e-30)
