import cmath
import math
import re

import numpy as np
import pytest

from oracles import L_sym, fd_derivative, powers_up_to, selberg_log_product
from zetaflow import (
    DomainError,
    GroupData,
    geometric_heat_trace,
    load_length_spectrum,
    save,
    LengthSpectrum,
    TruncationPolicy,
    ValidationError,
    abscissa_estimate,
    det_term,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
    synthesize,
    z_p_log,
)
from zetaflow.zeta import exterior_class_sum

# one class, l0 = 0.8, theta = 0.9, untwisted; references computed with
# 50-digit mpmath sums of the defining series and Euler product
SINGLE_SELBERG_S3 = -0.064119515757383229477
SINGLE_RUELLE_S4 = -0.041616272352858895022
SINGLE_LOGDERIV_S3 = 0.051914903452785631025


def _single_class(gd):
    return LengthSpectrum(gd=gd, l0=[0.8], angles=[[0.9]], chi=np.ones((1, 1, 1)),
                          volume=1.0, dim_chi=1)


def test_single_class_reference_values(gd3):
    ls = _single_class(gd3)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1e-13)
    assert selberg_log(3.0, (0,), ls, tp).value == pytest.approx(
        SINGLE_SELBERG_S3, abs=1e-15
    )
    assert ruelle_log(4.0, (0,), ls, tp).value == pytest.approx(
        SINGLE_RUELLE_S4, abs=1e-15
    )
    assert log_derivative(3.0, (0,), ls, tp).value == pytest.approx(
        SINGLE_LOGDERIV_S3, abs=1e-15
    )


def test_single_class_ruelle_closed_form(gd3):
    # untwisted trivial type: the Ruelle series telescopes to log(1 - e^{-s l0})
    ls = _single_class(gd3)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1e-13)
    for s in (3.0, 4.5, 3.0 + 2.0j):
        got = ruelle_log(s, (0,), ls, tp).value
        assert got == pytest.approx(cmath.log(1 - cmath.exp(-0.8 * s)), abs=1e-14)


def test_selberg_log_matches_euler_product(gd3):
    ls = synthesize(gd3, 40, systole=0.6, seed=5)
    tp = TruncationPolicy(lmax=46.0, tail_eps=1e-12)
    for m, s in [(0, 3.0), (0, 2.5 + 1.2j), (2, 3.2), (-1, 2.8 - 0.7j)]:
        got = selberg_log(s, (m,), ls, tp)
        ref = selberg_log_product(complex(s), m, ls, 46.0)
        assert abs(got.value - ref) < 1e-12, (m, s)
        assert got.tail_bound < 1e-13


def test_ruelle_log_matches_direct_power_sum(ls3_twisted):
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-6)
    s = 4.2 + 0.4j
    direct = 0j
    for cp in powers_up_to(ls3_twisted, 30.0):
        direct -= (
            cp.chi_trace
            * cmath.exp(1j * 1 * cp.angles[0])
            * cmath.exp(-s * cp.length)
            / cp.j
        )
    got = ruelle_log(s, (1,), ls3_twisted, tp)
    assert got.value == pytest.approx(direct, abs=1e-12)


def test_log_derivative_is_the_derivative(ls3):
    tp = TruncationPolicy(lmax=40.0, tail_eps=1e-11)
    rng = np.random.default_rng(30)
    a = abscissa_estimate(ls3, "selberg")
    for _ in range(6):
        s = a + 1.0 + rng.uniform(0, 1) + 1j * rng.uniform(-2, 2)
        ld = log_derivative(s, (0,), ls3, tp).value
        fd = fd_derivative(lambda z: selberg_log(z, (0,), ls3, tp).value, s)
        assert abs(fd - ld) <= 1e-6 * max(1.0, abs(ld)), s


def test_tail_bound_is_honest(ls3):
    sigma = (0,)
    for s in (2.5, 2.2 + 1.5j):
        short = selberg_log(s, sigma, ls3, TruncationPolicy(lmax=8.0, tail_eps=1.0))
        long = selberg_log(s, sigma, ls3, TruncationPolicy(lmax=60.0, tail_eps=1e-12))
        assert abs(short.value - long.value) <= short.tail_bound + 1e-15


def test_abscissa_refusal(ls3):
    a = abscissa_estimate(ls3, "selberg")
    assert a == pytest.approx(1.0)  # unitary twists: |rho| exactly
    assert abscissa_estimate(ls3, "ruelle") == pytest.approx(2.0)
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-8)
    with pytest.raises(DomainError) as info:
        selberg_log(0.5, (0,), ls3, tp)
    assert "0.5" in str(info.value)
    # no policy admits a point at or left of the abscissa: not an unlimited
    # tail budget, and not a cutoff below the shortest class
    for policy in (TruncationPolicy(lmax=60.0, tail_eps=math.inf),
                   TruncationPolicy(lmax=0.1, tail_eps=math.inf)):
        for s in (0.5, 1.0, 0.9 + 3j):
            with pytest.raises(DomainError) as info:
                selberg_log(s, (0,), ls3, policy)
            assert "abscissa" in str(info.value)
    with pytest.raises(DomainError):
        ruelle_log(2.0, (0,), ls3, TruncationPolicy(lmax=0.1, tail_eps=math.inf))


@pytest.mark.parametrize("s", [complex("nan"), complex("inf"), complex("1+nanj")])
@pytest.mark.parametrize("series", [
    selberg_log, ruelle_log, log_derivative, ruelle_factorized_log,
    lambda s, sigma, ls, tp: z_p_log(s, 1, sigma, ls, tp),
])
def test_a_non_finite_point_is_refused(ls3, gd3, series, s):
    tp = TruncationPolicy(lmax=10.0)
    empty = LengthSpectrum(gd=gd3, l0=[], angles=np.zeros((0, 1)), chi=np.ones((0, 1, 1)),
                           volume=1.0, dim_chi=1)
    want = re.escape(f"non-finite evaluation point s = {s}")
    for ls in (ls3, empty):
        with pytest.raises(ValidationError, match=want):
            series(s, (0,), ls, tp)


def test_tail_eps_gate(ls3):
    tp = TruncationPolicy(lmax=6.0, tail_eps=1e-14)
    with pytest.raises(DomainError) as info:
        selberg_log(2.1, (0,), ls3, tp)
    assert "tail" in str(info.value)


def test_empty_spectrum_gives_zero(gd3):
    ls = LengthSpectrum(gd=gd3, l0=np.empty(0), angles=np.empty((0, 1)),
                        chi=np.empty((0, 1, 1)), volume=1.0, dim_chi=1)
    tp = TruncationPolicy(lmax=10.0)
    for fn in (selberg_log, ruelle_log, log_derivative):
        out = fn(2.0, (0,), ls, tp)
        assert out.value == 0j and out.tail_bound == 0.0
    # every s lies right of an empty spectrum's abscissa
    for kind in ("selberg", "ruelle", "logderiv"):
        assert abscissa_estimate(ls, kind) == -math.inf


def test_det_term_refuses_the_wrong_number_of_angles(gd3, gd5):
    with pytest.raises(ValidationError, match="expected 1 angles, got 2"):
        det_term(gd3, 1.0, (0.1, 0.2))
    with pytest.raises(ValidationError, match="expected 2 angles, got 1"):
        det_term(gd5, 1.0, (0.1,))


def test_det_term_positive_and_factorized(gd3, gd5):
    rng = np.random.default_rng(31)
    for gd in (gd3, gd5):
        for _ in range(100):
            length = rng.uniform(0.2, 4.0)
            th = rng.uniform(0, 2 * np.pi, gd.n)
            dt = det_term(gd, length, th)
            ref = 1.0
            for t in th:
                ref *= abs(1 - cmath.exp(1j * t - length)) ** 2
            assert dt > 0
            assert dt == pytest.approx(ref, rel=1e-12)


def test_L_sym_formula(gd3, ls3_twisted):
    for cp in powers_up_to(ls3_twisted, 2.5):
        got = L_sym(gd3, cp, (1,))
        want = (
            cp.chi_trace
            * cmath.exp(1j * cp.angles[0])
            * math.exp(-cp.length)
            / det_term(gd3, cp.length, cp.angles)
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_exterior_class_sum_is_one(gd3, gd5):
    rng = np.random.default_rng(32)
    for gd in (gd3, gd5):
        for _ in range(200):
            length = rng.uniform(0.4, 4.0)
            th = rng.uniform(0, 2 * np.pi, gd.n)
            assert abs(exterior_class_sum(gd, length, th) - 1.0) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_batched_exterior_class_sum_equals_the_scalar_calls(d):
    gd = GroupData(d)
    rng = np.random.default_rng(33 + d)
    lengths = rng.uniform(0.05, 6.0, size=60)
    angles = rng.uniform(-7.0, 14.0, size=(60, gd.n))
    angles[:5] = 0.0  # fully singular, where the alternant would divide by 0
    batched = exterior_class_sum(gd, lengths, angles)
    assert batched.shape == (60,) and batched.dtype == complex
    for length, th, value in zip(lengths, angles, batched):
        one = exterior_class_sum(gd, float(length), th)
        assert type(one) is complex
        assert one == value
    assert exterior_class_sum(gd, lengths[:0], angles[:0]).shape == (0,)
    with pytest.raises(ValidationError):
        exterior_class_sum(gd, lengths, angles[:-1])
    with pytest.raises(ValidationError):
        exterior_class_sum(gd, 1.0, np.zeros(gd.n + 1))


def test_cutoff_below_the_shortest_class_is_refused(ls3):
    # nothing would be summed, so neither 0 nor a tail of 0 is an answer
    shortest = float(ls3.l0.min())
    tp = TruncationPolicy(lmax=0.5 * shortest, tail_eps=1.0)
    for op in (selberg_log, ruelle_log, log_derivative):
        with pytest.raises(DomainError, match=f"shortest class has length {shortest:g}"):
            op(6.0, (0,), ls3, tp)
    # the abscissa refusal still comes first
    with pytest.raises(DomainError, match="does not converge"):
        selberg_log(0.5, (0,), ls3, tp)
    # at the shortest length its first power is summed
    at = selberg_log(6.0, (0,), ls3, TruncationPolicy(lmax=shortest, tail_eps=1.0))
    assert at.value != 0


def _overflowing_twist(gd, l0=0.5):
    # |chi| = 100 on the class of length l0: its traces 100^j pass the float
    # range from j = 155, length 77.5 at l0 = 0.5, on
    return LengthSpectrum(gd=gd, l0=[l0, 1.0], angles=[[0.3], [1.0]],
                          chi=[[[100.0]], [[1.0]]], volume=1.0, dim_chi=1)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning",
                            "ignore:invalid value encountered in multiply:RuntimeWarning")
def test_a_cutoff_past_an_overflowing_twist_trace_is_refused(gd3):
    # those traces made the series nan, and the table writer then blamed s
    ls = _overflowing_twist(gd3)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1.0)
    assert ls.power_table(80.0).overflow_length == 77.5
    for op in (selberg_log, ruelle_log, log_derivative, ruelle_factorized_log):
        with pytest.raises(DomainError, match=re.escape(
                "the twist trace of the power of length 77.5 overflows double precision; "
                "lower lmax below 77.5")):
            op(60.0, (0,), ls, tp)
    # below it every trace is finite and the value holds
    assert ls.power_table(77.0).overflow_length is None
    assert selberg_log(60.0, (0,), ls, TruncationPolicy(lmax=77.0, tail_eps=1.0)) == (
        -2.715668763327e-11, 0.0)
    # the heat kernel zeroes those powers, and the heat route keeps its value
    assert geometric_heat_trace(ls, (0,), 0.1, tp) == (1122.8367915925285, 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_the_overflow_refusal_names_a_cutoff_that_is_accepted(gd3):
    # a length with more digits than a rounded print keeps: the bound named is
    # the length itself, and an lmax below it by more than the cutoff's
    # rounding allowance (1e-12 relative) is accepted
    ls = _overflowing_twist(gd3, l0=0.500079707)
    length = ls.power_table(80.0).overflow_length
    assert length == 155 * 0.500079707 and f"{length:g}" != repr(length)
    with pytest.raises(DomainError, match=re.escape(f"lower lmax below {length!r}")):
        selberg_log(60.0, (0,), ls, TruncationPolicy(lmax=80.0, tail_eps=1.0))
    below = length * (1.0 - 1e-11)
    assert f"{below:g}" == f"{length:g}"
    assert ls.power_table(below).overflow_length is None
    assert math.isfinite(selberg_log(60.0, (0,), ls, TruncationPolicy(lmax=below, tail_eps=1.0))
                         .value.real)


def test_ruelle_factorizes_through_exterior_powers(ls3, ls5):
    for ls, s in ((ls3, 4.6), (ls5, 8.4 + 0.7j)):
        sigma = (0,) * ls.gd.n
        tp = TruncationPolicy(lmax=18.0, tail_eps=1e-2)
        direct = ruelle_log(s, sigma, ls, tp)
        split = ruelle_factorized_log(s, sigma, ls, tp)
        assert abs(direct.value - split.value) < 1e-10, ls.gd.d


def test_z_p_log_shifts_into_selberg_series(ls3):
    # p = 0 is the Selberg series at s + |rho| in the trivial exterior type
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-9)
    s = 3.4
    a = z_p_log(s, 0, (0,), ls3, tp)
    b = selberg_log(s + 1.0, (0,), ls3, tp)
    assert a.value == pytest.approx(b.value, abs=1e-15)


def test_series_kind_validation(ls3):
    with pytest.raises(ValidationError):
        abscissa_estimate(ls3, "other")


def test_warm_plan_matches_cold_evaluation(tmp_path, gd5):
    ls = synthesize(gd5, 80, systole=0.6, seed=23, dim_chi=2, chi_norm=1.05)
    path = tmp_path / "spectrum.json"
    save(ls, path)
    tp = TruncationPolicy(lmax=14.0, tail_eps=1e-4)
    sigma = (0, 0)
    ops = (selberg_log, ruelle_log, log_derivative)
    grid = [complex(6.5 + 0.1 * i, 0.3 * i - 2.0) for i in range(25)]
    warm = load_length_spectrum(path)
    for i, s in enumerate(grid):
        for op in ops:
            op(s, sigma, warm, tp)
        geometric_heat_trace(warm, sigma, 0.1 + 0.01 * i, tp)
    for s in (grid[0], grid[12], grid[-1]):
        for op in ops:
            cold = load_length_spectrum(path)
            assert op(s, sigma, warm, tp) == op(s, sigma, cold, tp)
    cold = load_length_spectrum(path)
    assert geometric_heat_trace(warm, sigma, 0.2, tp) == geometric_heat_trace(cold, sigma, 0.2, tp)
