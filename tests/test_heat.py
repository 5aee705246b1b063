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
    anchor_set,
    geometric_heat_trace,
    heat_totals,
    log_derivative,
    plancherel_polynomial,
    resolvent_trace_geometric,
    resolvent_trace_via_heat,
    ruelle_factorized_log,
    ruelle_log,
    save,
    selberg_log,
    spectral_heat_trace,
    synthesize,
    z_p_log,
)
from zetaflow import heat
from zetaflow.cli import main
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
    hyperbolic = ev.value - ls3.dim_chi * ls3.volume * plancherel_heat_integral(P, t)
    manual = 0j
    cs = classes(ls3)
    for cp in powers_up_to(ls3, 12.0):
        manual += (
            cs[cp.class_index].l0
            * L_sym(ls3.gd, cp, sigma)
            * math.exp(-cp.length**2 / (4 * t))
        )
    manual /= math.sqrt(4 * math.pi * t)
    assert hyperbolic == pytest.approx(manual, rel=1e-11)
    assert ev.tail_bound < 1e-200  # Gaussian tail at lmax = 12, t = 0.05


def test_heat_totals_match_scalar_calls(ls3):
    sigma = (0,)
    tp = TruncationPolicy(lmax=10.0, tail_eps=1.0)
    ts = np.geomspace(2e-3, 0.5, 7)
    grid = heat_totals(ls3, sigma, ts, tp)
    for t, v in zip(ts, grid):
        assert v == geometric_heat_trace(ls3, sigma, float(t), tp).value


def test_tail_bound_is_honest_in_time(ls3_twisted):
    sigma = (1,)
    t = 0.04
    short = geometric_heat_trace(ls3_twisted, sigma, t, TruncationPolicy(lmax=6.0, tail_eps=1.0))
    long = geometric_heat_trace(ls3_twisted, sigma, t, TruncationPolicy(lmax=20.0, tail_eps=1.0))
    assert abs(short.value - long.value) <= short.tail_bound + 1e-15


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
    # at a short time and at one where lmax / 4t is below |rho| alike
    for t in (0.01, 1.0):
        with pytest.raises(DomainError, match=f"shortest class has length {shortest:g}"):
            geometric_heat_trace(ls3, (0,), t, tp)
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
        assert v == geometric_heat_trace(ls3, sigma, float(t), tp).value


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
        with pytest.raises(ValidationError, match="heat time must be positive and finite, got nan"):
            call()


@pytest.mark.parametrize("route", ["heat-trace", "heat_totals", "spectral_heat_trace"])
def test_infinite_heat_time_is_refused(ls3, tmp_path, capsys, route):
    # t = inf used to give 0 (heat_totals, spectral_heat_trace) or advice
    # to raise lmax above inf (heat-trace)
    inf = float("inf")
    tp = TruncationPolicy(lmax=10.0)
    want = "heat time must be positive and finite, got inf"
    if route == "heat-trace":
        save(ls3, tmp_path / "spectrum.json")
        argv = ["heat-trace", "--spectrum", str(tmp_path / "spectrum.json"), "--t", "inf"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {want}\n")
        return
    call = {
        "heat_totals": lambda: heat_totals(ls3, (0,), np.array([0.1, inf]), tp),
        "spectral_heat_trace": lambda: spectral_heat_trace(EigenSpectrum(((1.5 + 0j, 1),)), inf),
    }[route]
    with pytest.raises(ValidationError, match=want):
        call()


def test_a_time_too_small_for_the_tail_formula_has_tail_zero(ls3):
    # 1 / beta^2 overflows below t ~ 1e-154 at lmax = 10; the factor
    # exp(-beta lmax) is 0 long before, and so is the tail
    tp = TruncationPolicy(lmax=10.0, tail_eps=1e-300)
    P = plancherel_polynomial(ls3.gd, (0,))
    for t in (1e-160, 1e-200):
        got = geometric_heat_trace(ls3, (0,), t, tp)
        assert got == (ls3.dim_chi * ls3.volume * plancherel_heat_integral(P, t), 0.0)


def test_the_trace_at_one_time_never_calls_heat_totals(ls3, monkeypatch):
    # the benchmark counts heat_totals calls and their time nodes as the
    # heat route's quadrature work; a heat-trace row must add to neither
    calls = []
    totals = heat.heat_totals

    def counted(*args):
        calls.append(args)
        return totals(*args)

    monkeypatch.setattr(heat, "heat_totals", counted)
    tp = TruncationPolicy(lmax=10.0, tail_eps=1.0)
    geometric_heat_trace(ls3, (0,), 0.3, tp)
    assert calls == []
    heat.heat_totals(ls3, (0,), np.array([0.3]), tp)
    assert len(calls) == 1


def test_identity_term_past_the_float_range_is_refused():
    # (-1e300) Gamma(1/2) t^-1/2 rounds to -inf without raising
    P = plancherel_polynomial(GroupData(3), (10**150,))
    with pytest.raises(DomainError, match="overflows at t = 1e-30"):
        plancherel_heat_integral(P, 1e-30)


def _overflowing_twist():
    # |chi| = 100 on the class of length 0.5: its traces 100^j pass the float
    # range from j = 155, length 77.5, on
    return LengthSpectrum(gd=GroupData(3), l0=[0.5, 1.0], angles=[[0.3], [1.0]],
                          chi=[[[100.0]], [[1.0]]], volume=1.0, dim_chi=1)


def _overflowing_twist_file(tmp_path):
    path = tmp_path / "spectrum.json"
    save(_overflowing_twist(), path)
    return str(path)


def _heat_trace(path, t, lmax, capsys):
    status = main(["heat-trace", "--spectrum", path, "--tail-eps", "1e300",
                   "--t", t, "--lmax", lmax])
    return status, *capsys.readouterr()


def test_the_heat_route_refuses_an_overflowing_trace_only_where_the_kernel_reaches_it(
        tmp_path, capsys):
    path = _overflowing_twist_file(tmp_path)
    # at t = 0.1 the kernel zeroes every overflowing power
    assert _heat_trace(path, "0.1", "80", capsys) == (
        0, "s_re,s_im,value_re,value_im,tail_bound\n0.1,0.0,1122.8367915925285,0.0,0.0\n", "")
    # at t = 1.5 too (-77.5^2 / 6 < -746), so the value is the one below the
    # overflow, and the tail bound reads the finite traces only
    status, out, err = _heat_trace(path, "1.5", "80", capsys)
    assert (status, err) == (0, "")
    [row] = out.splitlines()[1:]
    value, tail = float(row.split(",")[2]), float(row.split(",")[4])
    assert math.isfinite(tail)
    assert abs(value - 8.193773502783738e+43) <= 1e-12 * 8.193773502783738e+43
    # at t = 3 the kernel reaches the power of length 77.5: the plan's refusal
    assert _heat_trace(path, "3", "200", capsys) == (
        2, "", "domain error: the twist trace of the power of length 77.5 overflows double "
               "precision; lower lmax below 77.5\n")


def test_series_and_heat_trace_print_the_same_plan_refusals(tmp_path, capsys):
    path = _overflowing_twist_file(tmp_path)
    for lmax, t in (("200", "3"), ("0.3", "0.001")):
        assert main(["selberg", "--spectrum", path, "--tail-eps", "1e300",
                     "--s", "60", "--lmax", lmax]) == 2
        series = capsys.readouterr()
        assert _heat_trace(path, t, lmax, capsys) == (2, *series)
        assert series.out == "" and series.err.startswith(
            "domain error: the twist trace" if lmax == "200" else "domain error: no power has")


ANCHORS = anchor_set([2, 3])

# every evaluator that sums a plan, at a point where its sum converges
PLAN_SUMS = {
    "selberg_log": lambda ls, tp: selberg_log(6.0, (0,), ls, tp),
    "ruelle_log": lambda ls, tp: ruelle_log(6.0, (0,), ls, tp),
    "log_derivative": lambda ls, tp: log_derivative(6.0, (0,), ls, tp),
    "z_p_log": lambda ls, tp: z_p_log(6.0, 1, (0,), ls, tp),
    "ruelle_factorized_log": lambda ls, tp: ruelle_factorized_log(6.0, (0,), ls, tp),
    "geometric_heat_trace": lambda ls, tp: geometric_heat_trace(ls, (0,), 0.5, tp),
    "heat_totals": lambda ls, tp: heat_totals(ls, (0,), np.array([0.01, 0.5]), tp),
    "resolvent_trace_geometric": lambda ls, tp: resolvent_trace_geometric(ls, (0,), ANCHORS, tp),
    "resolvent_trace_via_heat": lambda ls, tp: resolvent_trace_via_heat(ls, (0,), ANCHORS, tp),
}


@pytest.mark.parametrize("name", sorted(PLAN_SUMS))
def test_every_plan_sum_refuses_a_cutoff_below_the_shortest_class(name):
    # heat_totals used to return the identity term alone, and the heat route
    # its integral, with a tail of 0
    ls = synthesize(GroupData(3), 200, 0.5, 7)
    tp = TruncationPolicy(lmax=0.5 * float(ls.l0.min()), tail_eps=1.0)
    with pytest.raises(DomainError, match="shortest class has length 0.72632, raise lmax"):
        PLAN_SUMS[name](ls, tp)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning",
                            "ignore:invalid value encountered in multiply:RuntimeWarning")
def test_a_grid_and_the_heat_route_refuse_an_overflowing_trace_the_kernel_reaches():
    # heat_totals used to give nan at t = 3, and the heat route blamed the
    # anchors for it
    ls = _overflowing_twist()
    tp = TruncationPolicy(lmax=80.0, tail_eps=1e300)
    refusal = ("the twist trace of the power of length 77.5 overflows double precision; "
               "lower lmax below 77.5")
    for call in (lambda: heat_totals(ls, (0,), np.array([0.5, 3.0]), tp),
                 lambda: resolvent_trace_via_heat(ls, (0,), ANCHORS, tp)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == refusal
    # at t = 0.5 alone the kernel zeroes every overflowing power: the total
    # is the one it always was, bit for bit
    [total] = heat_totals(ls, (0,), np.array([0.5]), tp)
    assert (total.real.hex(), total.imag.hex()) == ("0x1.8aeaca845bce0p+48", "0x0.0p+0")


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_an_empty_grid_sums_nothing_and_reaches_no_power(monkeypatch):
    times = []
    reached = heat._reached

    def spy(length, t):
        times.append(t)
        return reached(length, t)

    monkeypatch.setattr(heat, "_reached", spy)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1e300)
    totals = heat_totals(_overflowing_twist(), (0,), np.array([]), tp)
    assert totals.shape == (0,) and totals.dtype == complex and times == []
