import cmath
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from oracles import half_line_integral_reeval, resolvent_kernel_mp, vandermonde_coeffs
from zetaflow import (
    AnchorSet,
    DomainError,
    EigenSpectrum,
    GroupData,
    SeriesValue,
    TruncationPolicy,
    ValidationError,
    anchor_set,
    cauchy_plancherel_identity,
    continued_from,
    contour_residue,
    heat_resolvent_identity,
    heat_totals,
    log_derivative,
    log_zeta_ratio,
    moment_sum,
    partial_fraction_coeffs,
    plancherel_polynomial,
    residue_order,
    resolvent_trace_geometric,
    resolvent_trace_spectral,
    resolvent_trace_via_heat,
    singularities,
    small_t_combination,
    synthesize,
)
from zetaflow import spectra
from zetaflow.quadrature import half_line_integral


def test_anchor_set_validation():
    with pytest.raises(ValidationError):
        anchor_set([2.0])
    with pytest.raises(ValidationError):
        anchor_set([2.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        anchor_set([2.0, -2.0])  # squares coincide
    assert anchor_set([1, 2, 3]).size == 3
    for bad in (complex("nan"), complex("inf"), complex("1+nanj")):
        with pytest.raises(ValidationError, match=re.escape(f"non-finite anchor {bad}")):
            anchor_set((bad, 2.0))


def test_an_anchor_set_made_directly_is_checked_as_anchor_set_checks_it():
    with pytest.raises(ValidationError, match="at least 2 points, got 1"):
        AnchorSet(anchors=(2.0,))
    with pytest.raises(ValidationError, match="coinciding squares"):
        partial_fraction_coeffs(AnchorSet(anchors=(2.0, -2.0)))
    assert AnchorSet(anchors=(1, 2.5)) == anchor_set([1, 2.5])
    assert AnchorSet(anchors=(1, 2.5)).anchors == (1 + 0j, 2.5 + 0j)


def test_partial_fraction_coefficients():
    # the (1, 2, 3) set works out to 1/24, -1/15, 1/40 by hand
    got = partial_fraction_coeffs(anchor_set([1.0, 2.0, 3.0]))
    want = (Fraction(1, 24), Fraction(-1, 15), Fraction(1, 40))
    for g, w in zip(got, want):
        assert g == pytest.approx(complex(w), rel=1e-15)
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        anchors = rng.uniform(0.7, 6.0, n) + 1j * rng.uniform(-0.5, 0.5, n)
        if np.abs(np.subtract.outer(anchors**2, anchors**2)
                  [~np.eye(n, dtype=bool)]).min() < 1e-2:
            continue
        got = np.array(partial_fraction_coeffs(anchor_set(anchors)))
        ref = vandermonde_coeffs(anchors)
        assert np.abs(got - ref).max() <= 1e-8 * np.abs(ref).max()


def test_moment_sums():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        anchors = np.sort(rng.uniform(0.5, 6.0, n))
        if np.diff(anchors).min() < 0.1:
            continue
        aset = anchor_set(anchors)
        coeffs = partial_fraction_coeffs(aset)
        scale = max(
            sum(abs(c) * abs(a) ** (2 * l) for c, a in zip(coeffs, anchors))
            for l in range(n)
        )
        for l in range(n - 1):
            assert abs(moment_sum(aset, l)) <= 1e-9 * scale, (anchors, l)
        top = moment_sum(aset, n - 1)
        assert top == pytest.approx((-1.0) ** (n - 1), rel=1e-9)
    with pytest.raises(ValidationError):
        moment_sum(anchor_set([1, 2]), 2)
    with pytest.raises(ValidationError):
        moment_sum(anchor_set([1, 2]), -1)


def test_small_t_combination_vanishes_to_high_order():
    for anchors in ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [0.8, 1.7, 2.6, 3.5, 4.4]):
        aset = anchor_set(anchors)
        n = len(anchors)
        ts = np.geomspace(1e-4, 1e-3, 9)
        ws = np.abs(small_t_combination(aset, ts))
        slope = np.polyfit(np.log(ts), np.log(ws), 1)[0]
        assert slope >= n - 1 - 0.1, anchors


def test_small_t_combination_regimes_agree_at_the_boundary():
    aset = anchor_set([1.0, 2.0, 3.0])
    naive = lambda t: sum(
        c * cmath.exp(-t * a * a)
        for c, a in zip(partial_fraction_coeffs(aset), aset.anchors)
    )
    # just above the switch the naive sum is still accurate enough to compare
    for t in (0.12, 0.3, 1.0):
        got = complex(small_t_combination(aset, t))
        assert got == pytest.approx(naive(t), rel=1e-10), t


def test_small_t_combination_scalar_matches_array():
    aset = anchor_set([1.0, 2.5, 4.0])
    ts = np.array([1e-4, 5e-3, 0.2, 2.0])
    arr = small_t_combination(aset, ts)
    for t, v in zip(ts, arr):
        assert complex(v) == small_t_combination(aset, float(t))


def _example_cl():
    es = EigenSpectrum(entries=((0j, 1), (2.0 + 0j, 2), (5.0 + 0j, 1)))
    gd = GroupData(3)
    return continued_from(es, gd, (0,), dim_chi=1, volume=2.0)


def test_continued_L_closed_form():
    cl = _example_cl()
    P = plancherel_polynomial(GroupData(3), (0,))
    for s in (1.3, 2.0 + 1.0j, 0.4 - 0.2j):
        want = 2 * s * (1 / (s * s) + 2 / (s * s + 2) + 1 / (s * s + 5))
        want -= 2 * math.pi * 1 * 2.0 * P(s)
        assert cl(s) == pytest.approx(want, rel=1e-13), s


def test_continued_L_refuses_poles():
    cl = _example_cl()
    for pole in (0j, 1j * math.sqrt(2.0), -1j * math.sqrt(5.0)):
        with pytest.raises(DomainError):
            cl(pole)


def test_singularities_and_residues():
    cl = _example_cl()
    sings = dict(singularities(cl))
    r2, r5 = 1j * math.sqrt(2.0), 1j * math.sqrt(5.0)
    assert sings[0j] == 2  # order two at the origin: both signs collapse
    assert sings[r2] == 2 and sings[-r2] == 2
    assert sings[r5] == 1 and sings[-r5] == 1
    for point, order in sings.items():
        raw = contour_residue(cl, point)
        assert abs(raw - order) < 1e-8, point
        assert residue_order(cl, point) == order
    # slightly off-pole queries are snapped to the pole
    assert residue_order(cl, r2 + 1e-9) == 2
    with pytest.raises(DomainError):
        residue_order(cl, 0.9 + 0.9j)


def test_log_zeta_ratio_integrates_the_continuation():
    cl = _example_cl()
    s0, s1 = 1.2, 3.4
    got = log_zeta_ratio(s0, s1, cl)
    with mp.workdps(30):
        ref = mp.quad(lambda x: complex(cl(complex(x))), [s0, s1])
    assert got == pytest.approx(complex(ref), abs=1e-10)


def test_log_zeta_ratio_rejects_paths_through_poles():
    cl = _example_cl()
    with pytest.raises(DomainError):
        log_zeta_ratio(-1.0, 1.0, cl)  # crosses the origin
    # a dogleg around the pole is fine
    val = log_zeta_ratio(-1.0, 1.0, cl, path=(-1.0 + 1j, 1.0 + 1j))
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_heat_resolvent_identity_pairs():
    rng = np.random.default_rng(42)
    for _ in range(12):
        # keep Re(s^2) > 0 so the time integral converges
        s = complex(rng.uniform(1.2, 3.0), rng.uniform(-1.0, 1.0))
        length = rng.uniform(0.2, 5.0)
        lhs, rhs = heat_resolvent_identity(s, length)
        assert rhs == pytest.approx(cmath.exp(-s * length) / (2 * s), rel=1e-15)
        assert abs(lhs - rhs) <= 1e-7 * abs(rhs), (s, length)
        mp_lhs = resolvent_kernel_mp(s, length)
        assert abs(mp_lhs - rhs) <= 1e-12 * abs(rhs)


def test_heat_resolvent_identity_needs_positive_re_s_squared():
    with pytest.raises(DomainError):
        heat_resolvent_identity(0.3 + 2.0j, 1.0)


def test_identity_and_residue_refusals(gd3):
    with pytest.raises(ValidationError, match="length must be positive, got 0.0"):
        heat_resolvent_identity(2.0, 0.0)
    P = plancherel_polynomial(gd3, (0,))
    for s in (0.0, -1 + 2j):
        with pytest.raises(DomainError, match=r"identity requires Re\(s\) > 0"):
            cauchy_plancherel_identity(s, P)
    cl = continued_from(EigenSpectrum(entries=()), gd3, (0,), 1, 1.0)
    with pytest.raises(DomainError, match="the continuation has no singularities"):
        residue_order(cl, 1.0)


def test_resolvent_spectral_route():
    es = EigenSpectrum(entries=((2.0 + 0j, 2), (5.0 + 0j, 1)))
    aset = anchor_set([1.0, 2.0])
    got = resolvent_trace_spectral(es, aset)
    want = 2 / ((2 + 1) * (2 + 4)) + 1 / ((5 + 1) * (5 + 4))
    assert got == pytest.approx(want, rel=1e-14)


def test_resolvent_geometric_and_heat_routes_agree(gd3):
    ls = synthesize(gd3, 80, systole=0.6, seed=14)
    tp = TruncationPolicy(lmax=36.0, tail_eps=1e-6)
    aset = anchor_set([2.0, 3.0])
    geo = resolvent_trace_geometric(ls, (0,), aset, tp)
    heat = resolvent_trace_via_heat(ls, (0,), aset, tp)
    assert abs(geo.value - heat.value) <= 1e-6 * abs(heat.value) + geo.tail_bound + heat.tail_bound


def test_the_geometric_route_sums_every_anchor_in_one_pass(gd3, monkeypatch):
    # k anchors, one chunked_sum of k series, each anchor's term bit for bit
    # the one its own log_derivative call gives
    ls = synthesize(gd3, 80, systole=0.6, seed=14)
    tp = TruncationPolicy(lmax=36.0, tail_eps=1e-6)
    aset = anchor_set([2.0, 3.0, 4.0 + 0.5j])
    P, dimvol = plancherel_polynomial(gd3, (0,)), ls.dim_chi * ls.volume
    total, tail = 0j, 0.0
    for si, ci in zip(aset.anchors, partial_fraction_coeffs(aset)):
        ld = log_derivative(si, (0,), ls, tp)
        total += ci * ((math.pi / si) * dimvol * P(si) + ld.value / (2.0 * si))
        tail += abs(ci / (2.0 * si)) * ld.tail_bound
    counts = []
    chunked_sum = spectra.chunked_sum
    monkeypatch.setattr(spectra, "chunked_sum",
                        lambda chunks, count: counts.append(count) or chunked_sum(chunks, count))
    assert resolvent_trace_geometric(ls, (0,), aset, tp) == (total, tail)
    assert counts == [aset.size]


def test_resolvent_route_guards(gd3, ls3):
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-5)
    with pytest.raises(DomainError):
        resolvent_trace_via_heat(ls3, (0,), anchor_set([2.0, 3.0j]), tp)
    es = EigenSpectrum(entries=((1.0 + 0j, 1),))
    with pytest.raises(DomainError):
        resolvent_trace_spectral(es, anchor_set([1j, 2.0]))
    with pytest.raises(DomainError):
        resolvent_trace_geometric(ls3, (0,), anchor_set([0.2 + 3j, 2.0]), tp)


def test_cauchy_plancherel_for_flat_density():
    gd = GroupData(3)
    ones = plancherel_polynomial(gd, (0,))
    flat = type(ones)((1.0 + 0j,), (Fraction(1),))
    for s in (0.7, 1.0, 2.5, 1.5 - 0.4j):
        lhs, rhs = cauchy_plancherel_identity(s, flat)
        assert rhs == pytest.approx(math.pi / s)
        assert abs(lhs - rhs) < 1e-10, s


def test_cauchy_plancherel_for_quadratic_density():
    gd = GroupData(3)
    for sigma in ((0,), (1,)):
        P = plancherel_polynomial(gd, sigma)
        for s in (0.8, 1.3, 2.0 + 0.5j):
            lhs, rhs = cauchy_plancherel_identity(s, P)
            scale = max(abs(rhs), abs(P(s)) * math.pi / abs(s), 1e-3)
            assert abs(lhs - rhs) <= 1e-6 * scale, (sigma, s)


@pytest.mark.parametrize(
    "d, sigma, dim_chi, chi_norm, anchors",
    [(3, (0,), 1, 1.0, [2.5, 3.5]), (5, (1, 0), 2, 1.02, [4.0, 4.5, 5.5])],
)
def test_heat_route_matches_the_unskipped_reevaluating_rule(d, sigma, dim_chi, chi_norm, anchors):
    # skipping nodes where w(t) == 0 and reusing the coarser nodes leaves
    # value and refinement difference bit-identical
    ls = synthesize(GroupData(d), 60, systole=0.5, seed=15, dim_chi=dim_chi, chi_norm=chi_norm)
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-6)
    aset = anchor_set(anchors)
    want = half_line_integral_reeval(
        lambda t: small_t_combination(aset, t) * heat_totals(ls, sigma, t, tp)
    )
    assert resolvent_trace_via_heat(ls, sigma, aset, tp) == want


def test_heat_route_tail_bound_is_the_last_refinement_difference(gd3):
    ls = synthesize(gd3, 60, systole=0.5, seed=15)
    tp = TruncationPolicy(lmax=30.0, tail_eps=1e-6)
    aset = anchor_set([2.5, 3.5])
    value, diff = half_line_integral(
        lambda t: small_t_combination(aset, t) * heat_totals(ls, (0,), t, tp)
    )
    got = resolvent_trace_via_heat(ls, (0,), aset, tp)
    assert isinstance(got, SeriesValue)
    assert (got.value, got.tail_bound) == (value, diff)
