import json
import math
import re

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    class_tail_loop,
    classes,
    length_spectrum_to_dict,
    power_table_loop,
    powers_up_to,
    synthesize_loop,
    twist_rate_loop,
)
from zetaflow import (
    DomainError,
    EigenSpectrum,
    GroupData,
    LengthSpectrum,
    TruncationPolicy,
    ValidationError,
    abscissa_estimate,
    anchor_set,
    counting_function,
    geometric_heat_trace,
    heat_totals,
    load_eigen_spectrum,
    load_length_spectrum,
    log_derivative,
    resolvent_trace_geometric,
    ruelle_factorization,
    ruelle_factorized_log,
    ruelle_log,
    save,
    selberg_log,
    synthesize,
)
from zetaflow import chars, spectra, zeta
from zetaflow.branching import exterior_decomposition
from zetaflow.spectra import (
    _PLANS_PER_SPECTRUM,
    canonicalize_angles,
    eigen_spectrum_from_dict,
    length_spectrum_from_dict,
    length_spectrum_to_json,
)
from zetaflow.weights import as_weight


def test_synthesize_is_reproducible(gd3):
    a = synthesize(gd3, 60, systole=0.5, seed=42)
    b = synthesize(gd3, 60, systole=0.5, seed=42)
    assert length_spectrum_to_dict(a) == length_spectrum_to_dict(b)
    c = synthesize(gd3, 60, systole=0.5, seed=43)
    assert length_spectrum_to_dict(a) != length_spectrum_to_dict(c)


@pytest.mark.parametrize("count", [0, 1, 257])
@pytest.mark.parametrize("chi_norm", [1.0, 1.3])
@pytest.mark.parametrize("dim_chi", [1, 2, 3])
def test_synthesize_matches_the_per_class_loop(gd3, dim_chi, chi_norm, count):
    # stacked draws and QRs against one draw and one QR per class, bit for bit
    got = synthesize(gd3, count, systole=0.5, seed=40 + dim_chi, dim_chi=dim_chi,
                     chi_norm=chi_norm)
    want = synthesize_loop(gd3, count, systole=0.5, seed=40 + dim_chi, dim_chi=dim_chi,
                           chi_norm=chi_norm)
    assert got.volume == want.volume
    for name in ("l0", "angles", "chi"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def test_synthesize_basic_shape(ls3, ls3_twisted):
    assert ls3.l0.min() >= 0.5
    lengths = [c.l0 for c in classes(ls3)]
    assert lengths == sorted(lengths)
    assert all(len(c.angles) == 1 for c in classes(ls3))
    assert all(0.0 <= c.angles[0] < 2 * math.pi for c in classes(ls3))
    assert ls3_twisted.dim_chi == 2
    assert all(c.chi.shape == (2, 2) for c in classes(ls3_twisted))


def test_unit_twists_are_unitary(ls3_twisted):
    # chi_norm > 1 scales rows, so only the direction is checked here
    for c in classes(ls3_twisted):
        s = np.linalg.svd(c.chi, compute_uv=False)
        assert s.max() <= 1.2 + 1e-9
        assert s.min() > 0.5


def test_counting_function_counts_powers(ls3):
    rs = [1.0, 1.5, 2.0]
    counts = [counting_function(ls3, r) for r in rs]
    assert counts == sorted(counts)
    assert counts[0] >= 1
    # every power j*l0 <= r contributes; random lengths never sit on the cut
    manual = sum(math.floor(1.5 / c.l0) for c in classes(ls3))
    assert counting_function(ls3, 1.5) == manual
    assert counting_function(ls3, 0.0) == 0


def test_canonicalize_angles():
    got = canonicalize_angles([7.0, -1.0, 2 * math.pi])
    assert all(0.0 <= a < 2 * math.pi for a in got)
    assert got[0] == pytest.approx(7.0 - 2 * math.pi)
    assert got[1] == pytest.approx(2 * math.pi - 1.0)


def test_powers_lie_under_cutoff_and_keep_raw_angles(ls3):
    lmax = 5.0
    powers = powers_up_to(ls3, lmax)
    assert powers
    cs = classes(ls3)
    for cp in powers:
        assert cp.j >= 1
        assert cp.length <= lmax * (1 + 1e-9)
        base = cs[cp.class_index]
        assert cp.length == pytest.approx(cp.j * base.l0)
        # power angles are j times the class angles, never reduced mod 2 pi
        assert cp.angles[0] == pytest.approx(cp.j * base.angles[0])
    assert any(cp.angles[0] > 2 * math.pi for cp in powers)
    js = {}
    for cp in powers:
        js.setdefault(cp.class_index, []).append(cp.j)
    for i, seq in js.items():
        jmax = int(math.floor(lmax / cs[i].l0 * (1 + 1e-12) + 1e-12))
        assert sorted(seq) == list(range(1, jmax + 1))


def test_power_traces_match_matrix_powers(ls3_twisted):
    cs = classes(ls3_twisted)
    for cp in powers_up_to(ls3_twisted, 3.0):
        chi = cs[cp.class_index].chi
        want = np.trace(np.linalg.matrix_power(chi, cp.j))
        assert cp.chi_trace == pytest.approx(want, rel=1e-10)


def _edited(ls: LengthSpectrum, column: str, edit) -> LengthSpectrum:
    """ls with one class column replaced by edit(copy of the column)."""
    columns = {"l0": ls.l0, "angles": ls.angles, "chi": ls.chi}
    columns[column] = edit(columns[column].copy())
    return LengthSpectrum(gd=ls.gd, volume=ls.volume, dim_chi=ls.dim_chi, **columns)


def _jordan_block(chi):
    # class 3 gets a non-diagonalizable twist: its eigenvector basis is singular
    lam = np.exp(0.3j)
    chi[3] = [[lam, 1.0], [0.0, lam]]
    return chi


def _jordan_blocks(chi):
    # every fourth class gets a 3x3 Jordan block of its own eigenvalue; the
    # classes differ in length, so in their power counts J_c
    for c in range(0, len(chi), 4):
        chi[c] = np.exp(0.1j * c) * np.eye(3) + np.eye(3, k=1)
    return chi


def _tied_lengths(l0):
    # powers of equal length in different classes: 2 l0[0] = 1 * l0[10], ...
    l0[10], l0[11], l0[12] = 2.0 * l0[0], l0[0], 3.0 * l0[1]
    return l0


PLAN_SPECTRA = {
    "d3 dim_chi 1": lambda: synthesize(GroupData(3), 150, systole=0.5, seed=11),
    "d7 dim_chi 1": lambda: synthesize(GroupData(7), 80, systole=0.6, seed=27),
    "d3 dim_chi 2": lambda: synthesize(GroupData(3), 100, systole=0.5, seed=12,
                                       dim_chi=2, chi_norm=1.2),
    "d5 dim_chi 2": lambda: synthesize(GroupData(5), 60, systole=0.6, seed=28,
                                       dim_chi=2, chi_norm=1.02),
    "d3 dim_chi 3": lambda: synthesize(GroupData(3), 60, systole=0.5, seed=21,
                                       dim_chi=3, chi_norm=1.3),
    "d3 Jordan block": lambda: _edited(
        synthesize(GroupData(3), 40, systole=0.5, seed=29, dim_chi=2), "chi", _jordan_block),
    "d3 Jordan blocks": lambda: _edited(
        synthesize(GroupData(3), 60, systole=0.5, seed=31, dim_chi=3, chi_norm=1.3),
        "chi", _jordan_blocks),
    "d3 tied lengths": lambda: _edited(
        synthesize(GroupData(3), 50, systole=0.5, seed=30), "l0", _tied_lengths),
}


@pytest.mark.parametrize("name", sorted(PLAN_SPECTRA))
def test_plan_columns_equal_the_per_class_loop(name):
    ls = PLAN_SPECTRA[name]()
    for lmax in (0.3, 4.0, 9.5):
        plan = ls.power_table(lmax)
        want = power_table_loop(ls, lmax)
        for column, expected in want.items():
            got = getattr(plan, column)
            if column in ("length", "l0", "angles"):
                got = got()
            assert got.dtype == expected.dtype, (column, lmax)
            assert got.shape == expected.shape, (column, lmax)
            assert np.array_equal(got, expected), (column, lmax)
    assert ls.power_table(0.3).size == 0


def test_jordan_block_traces_match_matrix_powers():
    # class 3's eigenvector basis is singular; its traces are still the sums
    # of its eigenvalues' powers
    ls = PLAN_SPECTRA["d3 Jordan block"]()
    _, vecs = np.linalg.eig(ls.chi[3])
    with np.errstate(all="ignore"):
        assert not np.linalg.cond(vecs) < 1e8
    plan = ls.power_table(6.0)
    rows = plan.class_index == 3
    powers = [np.trace(np.linalg.matrix_power(ls.chi[3], int(j))) for j in plan.j[rows]]
    assert np.allclose(plan.chi_trace[rows], powers, rtol=1e-12)


_JORDAN_2 = np.exp(0.3j) * np.eye(2) + np.eye(2, k=1)


def _conjugated_jordan_block(seed: int) -> np.ndarray:
    # the 2x2 Jordan block of exp(0.3i) conjugated by P = Q1 diag(1, 1e-2) Q2,
    # Q1 and Q2 orthogonal, so cond(P) = 100
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(2))
    p = q1 @ np.diag([1.0, 1e-2]) @ q2
    return p @ _JORDAN_2 @ np.linalg.inv(p)


TRACE_TWISTS = {
    "2x2 Jordan block": lambda: _JORDAN_2,
    **{f"conjugated Jordan block, seed {seed}": lambda seed=seed: _conjugated_jordan_block(seed)
       for seed in range(4)},
    **{f"near-defective 3x3, {delta:g}": lambda delta=delta: (
        np.exp(0.3j) * np.eye(3) + np.eye(3, k=1) + delta * np.eye(3, k=-2))
       for delta in (1e-6, 1e-10, 1e-14)},
}
# |plan trace - tr chi^j| <= TRACE_ULPS * j * u * dim * ||chi||_2^j. The
# eigenvalues are exact for some chi + E with ||E|| <= p(dim) u ||chi||
# (backward stability of QR), so each trace moves by about
# j dim ||chi||^(j-1) ||E||. The worst measured, over 40 seeded conjugated
# and near-defective twists each at j <= 60, is below 7 of those units
TRACE_ULPS = 16.0


@pytest.mark.parametrize("name", sorted(TRACE_TWISTS))
def test_eigenvalue_power_sums_are_within_j_ulps_of_exact_traces(name):
    chi = TRACE_TWISTS[name]()
    dim = chi.shape[0]
    ls = LengthSpectrum(gd=GroupData(3), l0=[1.0], angles=[[0.0]], chi=[chi], volume=1.0,
                        dim_chi=dim)
    plan = ls.power_table(60.0)
    assert plan.j.tolist() == list(range(1, 61))
    norm, u = float(np.linalg.norm(chi, 2)), 2.0**-53
    with mp.workdps(60):
        exact = mp.matrix(chi.tolist())
        power = mp.eye(dim)
        for j, got in zip(plan.j.tolist(), plan.chi_trace):
            power = power * exact
            err = abs(mp.mpc(complex(got)) - sum(power[i, i] for i in range(dim)))
            assert err <= TRACE_ULPS * j * u * dim * norm**j, (j, float(err))


def test_a_second_plan_factors_no_twist_matrix(monkeypatch):
    # the eigenvalues and norms come from the spectrum, made at its first
    # plan and tail; a later cutoff only reads them
    ls = PLAN_SPECTRA["d3 Jordan block"]()
    ls.power_table(6.0)
    a = ls.twist_rate + 2.0
    first = ls.class_tail(6.0, a, "inv_j", 1.0)

    def refused(*args, **kwargs):
        raise AssertionError("a second plan called np.linalg")

    for name in ("eig", "eigvals", "cond", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, refused)
    plan = ls.power_table(9.0)
    assert plan.size > ls.power_table(6.0).size and ls.twist_rate > 0.0
    assert 0.0 < ls.class_tail(9.0, a, "inv_j", 1.0) < first


def test_twist_arrays_are_read_only():
    ls = PLAN_SPECTRA["d3 Jordan block"]()
    assert ls.twist_eigen.shape == (ls.l0.size, 2)
    for array in (ls.twist_norms, ls.twist_eigen):
        with pytest.raises(ValueError):
            array[0] = 0


def test_twist_norms_are_the_spectral_norms_above_one(gd3):
    # a third of the classes scaled below the Frobenius filter, so they never
    # reach the SVD and keep r_c = 1
    def shrunk(chi):
        chi[0::3] *= 0.5
        return chi

    ls = _edited(synthesize(gd3, 60, systole=0.5, seed=32, dim_chi=2, chi_norm=1.3),
                 "chi", shrunk)
    frobenius = np.linalg.norm(ls.chi, axis=(1, 2))
    assert (frobenius[0::3] < 1.0).all()
    for c, chi in enumerate(ls.chi):
        want = max(1.0, np.linalg.norm(chi, 2)) if frobenius[c] > 1.0 + 0.9e-12 else 1.0
        assert ls.twist_norms[c] == want, c


def test_class_tail_matches_the_scalar_oracle(ls3, ls3_twisted):
    for ls in (ls3, ls3_twisted):
        lmax = 4.0 * float(ls.l0.max())
        plan = ls.power_table(lmax)
        a = abscissa_estimate(ls) + ls.gd.rho_norm + 0.3
        counts = np.bincount(plan.class_index, minlength=ls.l0.size)
        assert counts.tolist() == [int(lmax / l0) for l0 in ls.l0.tolist()]
        got = ls.class_tail(lmax, a, "inv_j", 1.5)
        assert math.isclose(got, class_tail_loop(ls, lmax, a, "inv_j", 1.5), rel_tol=1e-12)
        got = ls.class_tail(lmax, a, "l0", 1.0, det=False)
        assert math.isclose(got, class_tail_loop(ls, lmax, a, "l0", 1.0, det=False), rel_tol=1e-12)
    # unitary twists stay bounded, so no exponential rate is needed
    assert ls3.twist_rate == 0.0


def test_a_class_tail_needs_no_plan(gd3):
    # J_c at a fresh cutoff comes from the class lengths: no plan is built
    ls = synthesize(gd3, 60, systole=0.5, seed=33, dim_chi=2, chi_norm=1.1)
    a = abscissa_estimate(ls) + ls.gd.rho_norm + 0.3
    got = ls.class_tail(7.0, a, "inv_j", 1.5)
    assert ls._plans == {}
    assert math.isclose(got, class_tail_loop(ls, 7.0, a, "inv_j", 1.5), rel_tol=1e-12)


def test_a_class_tail_that_is_not_finite_is_refused(gd3):
    # (1 - e^-lmax)^2 underflows to 0 at lmax = 1e-200, and a class with
    # q_c >= 1, left of the abscissa, has no geometric tail
    ls = LengthSpectrum(gd=gd3, l0=[1e-201, 1.0], angles=[[0.5], [1.5]],
                        chi=np.ones((2, 1, 1)), volume=1.0, dim_chi=1)
    with pytest.raises(DomainError, match=re.escape(
            "the per-class tail past lmax = 1e-200 is not a finite number, so no tail "
            "bound holds; raise lmax above 1e-200")):
        ls.class_tail(1e-200, 3.0, "l0", 1.0)
    assert math.isfinite(ls.class_tail(1e-200, 3.0, "l0", 1.0, det=False))
    grown = LengthSpectrum(gd=gd3, l0=[1.0], angles=[[0.5]], chi=[[[3.0]]], volume=1.0,
                           dim_chi=1)
    with pytest.raises(DomainError, match="no tail bound holds"):
        grown.class_tail(5.0, 1.0, "l0", 1.0, det=False)


def test_spectrum_refusals(gd3, ls3, tmp_path):
    with pytest.raises(ValidationError, match="length cutoff must be positive and finite, got nan"):
        ls3.power_table(math.nan)
    with pytest.raises(ValidationError, match=r"entries\[0\]\.t: non-finite value"):
        EigenSpectrum(entries=((complex(math.nan), 1),))
    with pytest.raises(ValidationError, match="cannot serialize object"):
        save(object(), tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_twist_rate_matches_scalar_oracle(gd3):
    ls = synthesize(gd3, 400, systole=0.5, seed=21, dim_chi=3, chi_norm=1.3)
    assert ls.twist_rate == twist_rate_loop(ls) > 0.0


def test_twist_rate_matches_scalar_oracle_near_the_guard(gd3):
    # norms just above and just below the 1 + 1e-12 guard of the rate
    def scaled(chi):
        chi[0::3] *= 1.0 + 1.05e-12
        chi[1::3] *= 1.0 + 0.95e-12
        return chi

    ls = _edited(synthesize(gd3, 90, systole=0.5, seed=31), "chi", scaled)
    k = twist_rate_loop(ls)
    assert ls.twist_rate == k > 0.0


def test_plan_cache_is_bounded_and_results_survive_eviction(gd3):
    ls = synthesize(gd3, 60, systole=0.5, seed=22, dim_chi=2, chi_norm=1.1)
    cutoffs = [6.0 + 0.25 * i for i in range(50)]

    def evaluate(lmax):
        plan = ls.power_table(lmax)
        value = selberg_log(4.0, (0,), ls, TruncationPolicy(lmax=lmax, tail_eps=1.0))
        return ls.twist_rate, plan.class_index.tolist(), plan.size, value

    first = {lmax: evaluate(lmax) for lmax in cutoffs}
    assert list(ls._plans) == cutoffs[-_PLANS_PER_SPECTRUM:]
    for lmax in cutoffs[:3]:
        assert evaluate(lmax) == first[lmax]
    assert len(ls._plans) == _PLANS_PER_SPECTRUM


def test_plan_memos_are_bounded_and_characters_survive_eviction(gd3):
    # the plan keeps the character of the last twist the heat trace read;
    # another twist's evicts it, and the series read none
    ls = synthesize(gd3, 60, systole=0.5, seed=24)
    tp = TruncationPolicy(lmax=8.0, tail_eps=1.0)
    plan = ls.power_table(tp.lmax)
    sigmas = [(k,) for k in range(4)]

    def evaluate(sigma):
        return selberg_log(4.0, sigma, ls, tp), geometric_heat_trace(ls, sigma, [0.5], tp)[0]

    first = evaluate(sigmas[0])
    [key] = plan._characters
    character = plan._characters[key].copy()
    for sigma in sigmas[1:]:
        evaluate(sigma)
        assert list(plan._characters) == [("D", as_weight(sigma))]
    assert evaluate(sigmas[0]) == first
    assert list(plan._characters) == [key]
    assert plan._characters[key].tobytes() == character.tobytes()
    assert ls.power_table(tp.lmax) is plan


def test_only_the_heat_trace_keeps_columns_on_a_plan(gd3):
    # on a fresh plan at a non-trivial twist: the series, the Ruelle
    # factorization and the geometric resolvent keep nothing; the heat
    # trace keeps its twist's character, and heat_totals the det column
    ls = synthesize(gd3, 60, systole=0.5, seed=24, dim_chi=2, chi_norm=1.1)
    tp = TruncationPolicy(lmax=8.0, tail_eps=1.0)
    sigma = (1,)
    s = abscissa_estimate(ls, kind="ruelle") + 2.0
    plan = ls.power_table(tp.lmax)
    for point in (lambda: selberg_log(s, sigma, ls, tp), lambda: log_derivative(s, sigma, ls, tp),
                  lambda: ruelle_log(s, sigma, ls, tp),
                  lambda: ruelle_factorization([s, s + 1j], sigma, ls, tp),
                  lambda: resolvent_trace_geometric(ls, sigma, anchor_set([s, s + 1]), tp)):
        point()
        assert "det" not in vars(plan) and plan._characters == {}
    geometric_heat_trace(ls, sigma, [0.5, 1.0], tp)
    assert list(plan._characters) == [("D", as_weight(sigma))]
    assert "det" not in vars(plan)
    heat_totals(ls, sigma, np.array([0.5, 1.0]), tp)
    assert list(plan._characters) == [("D", as_weight(sigma))]
    assert "det" in vars(plan)


def test_one_plan_lookup_per_point(gd3, monkeypatch):
    ls = synthesize(gd3, 60, systole=0.5, seed=25, dim_chi=2, chi_norm=1.1)
    tp = TruncationPolicy(lmax=8.0, tail_eps=1.0)
    lookups = []
    power_table = LengthSpectrum.power_table

    def counted_lookup(self, lmax):
        lookups.append(lmax)
        return power_table(self, lmax)

    monkeypatch.setattr(LengthSpectrum, "power_table", counted_lookup)
    # cold and warm plan alike
    for point in (lambda: selberg_log(4.0, (0,), ls, tp),
                  lambda: log_derivative(4.5, (0,), ls, tp),
                  lambda: geometric_heat_trace(ls, (0,), [0.5], tp)) * 2:
        lookups.clear()
        point()
        assert lookups == [tp.lmax]


def test_a_pass_lays_out_each_table_set_once(monkeypatch):
    # sigma's character and a factorization point's exterior pieces, in one
    # TableSet laid out (two _distinct_rows sorts) once per pass, not once a
    # chunk
    ls = synthesize(GroupData(7), 400, systole=0.6, seed=26)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1.0)
    plan = ls.power_table(tp.lmax)
    assert len(list(plan.chunks())) >= 2
    sorts = []
    distinct_rows = chars._distinct_rows
    monkeypatch.setattr(chars, "_distinct_rows", lambda a: sorts.append(len(a)) or distinct_rows(a))
    ruelle_factorized_log(abscissa_estimate(ls, kind="ruelle") + 2.0, (1, 0, 0), ls, tp)
    assert len(sorts) == 2


@pytest.mark.parametrize("sigma", [(0, 0, 0), (1, 0, 0)])
def test_each_factorization_point_evaluates_its_pieces_once_per_chunk(monkeypatch, sigma):
    ls = synthesize(GroupData(7), 400, systole=0.6, seed=26)
    tp = TruncationPolicy(lmax=80.0, tail_eps=1.0)
    s = abscissa_estimate(ls, kind="ruelle") + 2.0
    plan = ls.power_table(tp.lmax)
    assert len(list(plan.chunks())) >= 2
    calls = []
    evaluate_all = chars.evaluate_all

    def counted(tables, angles):
        calls.append(({(t.family, t.highest) for t in tables}, len(angles)))
        return evaluate_all(tables, angles)

    # every module that evaluates characters holds evaluate_all by name
    for module in (chars, spectra, zeta):
        monkeypatch.setattr(module, "evaluate_all", counted)

    sig = ("D", as_weight(sigma))
    ruelle_log(s, sigma, ls, tp)
    # sigma's character is made a chunk at a time and not kept; a trivial
    # one is all ones without a call
    chunks = [len(plan.length(r)) for r in plan.chunks()]
    assert calls == ([] if not any(sigma) else [({sig}, n) for n in chunks])
    assert plan._characters == {}
    # each point evaluates sigma and every distinct non-trivial exterior
    # piece, one call a chunk, and keeps no character
    pieces = {("D", psi) for p in range(7) for psi in exterior_decomposition(ls.gd, p)}
    assert len(pieces) == 5
    evaluated = {piece for piece in pieces | {sig} if any(piece[1])}
    for point in (s, s + 0.5j):
        calls.clear()
        ruelle_factorized_log(point, sigma, ls, tp)
        assert calls == [(evaluated, n) for n in chunks]
        assert plan._characters == {}


def test_save_and_load_round_trip(tmp_path, ls3_twisted):
    p = tmp_path / "spec.json"
    save(ls3_twisted, p)
    assert p.read_text(encoding="utf-8") == length_spectrum_to_json(ls3_twisted) + "\n"
    back = load_length_spectrum(p)
    assert length_spectrum_to_dict(back) == length_spectrum_to_dict(ls3_twisted)
    for name in ("l0", "angles", "chi"):
        assert np.array_equal(getattr(back, name), getattr(ls3_twisted, name)), name
    save(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("dim_chi", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_json_writer_is_byte_identical_to_json_dumps(d, dim_chi):
    for count in (0, 1, 257):
        for chi_norm in (1.0, 1.3):
            ls = synthesize(GroupData(d), count, systole=0.5, seed=d + dim_chi,
                            dim_chi=dim_chi, chi_norm=chi_norm)
            want = json.dumps(length_spectrum_to_dict(ls), indent=1)
            assert length_spectrum_to_json(ls) == want, (count, chi_norm)


@pytest.mark.parametrize("volume", [2, np.float64(2.75), 1e-300])
def test_json_writer_header_and_signed_zero(gd5, volume):
    # complex arithmetic would lose the signs of zero parts: set each part
    chi = np.empty((2, 2, 2), dtype=complex)
    chi.real = [[1.0, -0.0], [0.0, -1.0]]
    chi.imag = [[-0.0, 0.0], [-0.0, 0.0]]
    ls = LengthSpectrum(gd=gd5, l0=[0.5, 1e-7], angles=[[-0.0, 3.0], [1e22, 0.1]], chi=chi,
                        volume=volume, dim_chi=2)
    text = length_spectrum_to_json(ls)
    assert text == json.dumps(length_spectrum_to_dict(ls), indent=1)
    assert text.count("-0.0") == 7


def test_eigen_round_trip(tmp_path):
    es = EigenSpectrum(entries=((0j, 2), (2 + 0j, 3), (4.5 + 1.0j, 1)))
    p = tmp_path / "eig.json"
    save(es, p)
    back = load_eigen_spectrum(p)
    assert back.entries == es.entries


def test_validation_of_documents():
    gd = GroupData(3)
    good = length_spectrum_to_dict(synthesize(gd, 2, systole=0.5, seed=1))
    bad = json.loads(json.dumps(good))
    bad["classes"][0]["l0"] = -1.0
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["classes"][0]["angles"] = [0.1, 0.2]
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["d"] = 4
    with pytest.raises(ValidationError):
        length_spectrum_from_dict(bad)
    with pytest.raises(ValidationError):
        eigen_spectrum_from_dict({"entries": [{"t": [1.0, 0.0], "m": 0}]})
    with pytest.raises(ValidationError):
        eigen_spectrum_from_dict({"entries": "nope"})


def _set(path, value):
    """Edit of a document: set the entry at path (keys and indices) to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _drop(path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _append(path, value):
    def edit(doc):
        for key in path:
            doc = doc[key]
        doc.append(value)
    return edit


# message of each bad d = 5, dim_chi 2 document, recorded from the
# per-class validator this package used before the columns
DOCUMENT_ERRORS = {
    "non-object class": ([_set(("classes", 1), [1.0])], "classes[1]: expected an object"),
    "missing chi": ([_drop(("classes", 1, "chi"))], "classes[1].chi: missing required field"),
    "bool l0": ([_set(("classes", 1, "l0"), True)], "classes[1].l0: expected a number"),
    "string angle": ([_set(("classes", 1, "angles", 1), "0.5")],
                     "classes[1].angles[1]: expected a number"),
    "angles not a list": ([_set(("classes", 1, "angles"), 0.5)],
                          "classes[1].angles: expected a list"),
    "angle count": ([_append(("classes", 1, "angles"), 0.1)],
                    "classes[1].angles: expected 2 entries, got 3"),
    "chi row count": ([_drop(("classes", 1, "chi", 1))], "classes[1].chi: expected 2 rows"),
    "ragged chi row": ([_drop(("classes", 1, "chi", 1, 1))], "classes[1].chi[1]: expected 2 entries"),
    "three-part cell": ([_append(("classes", 1, "chi", 0, 1), 0.0)],
                        "classes[1].chi[0][1]: expected [re, im]"),
    "bool cell part": ([_set(("classes", 1, "chi", 1, 0, 1), False)],
                       "classes[1].chi[1][0][1]: expected a number"),
    "string cell part": ([_set(("classes", 1, "chi", 1, 1, 0), "1")],
                         "classes[1].chi[1][1][0]: expected a number"),
    "negative l0": ([_set(("classes", 1, "l0"), -1)], "classes[1].l0: expected a positive length"),
    "nan l0": ([_set(("classes", 1, "l0"), math.nan)], "classes[1].l0: expected a positive length"),
    "infinite l0": ([_set(("classes", 1, "l0"), math.inf)],
                    "classes[1].l0: expected a positive length, got inf"),
    "nan angle": ([_set(("classes", 1, "angles", 0), math.nan)],
                  "classes[1].angles: non-finite entry"),
    "infinite chi cell": ([_set(("classes", 1, "chi", 0, 0, 0), math.inf)],
                          "classes[1].chi: non-finite entry"),
    "infinite volume": ([_set(("volume",), math.inf)],
                        "volume: expected a positive finite number, got inf"),
    # precedence: every parse error comes before the volume and finiteness
    # checks, and parse errors come in document order
    "bad volume and later bad class": (
        [_set(("volume",), -2.0), _set(("classes", 2, "l0"), "x")],
        "classes[2].l0: expected a number"),
    "nan angle and later parse error": (
        [_set(("classes", 0, "angles", 0), math.nan), _set(("classes", 2, "angles", 0), None)],
        "classes[2].angles[0]: expected a number"),
    "bad cell before a later negative l0": (
        [_set(("classes", 2, "l0"), -1.0), _set(("classes", 1, "chi", 0, 0), [1.0])],
        "classes[1].chi[0][0]: expected [re, im]"),
    "l0 before angles in one class": (
        [_set(("classes", 1, "l0"), 0), _set(("classes", 1, "angles", 0), "a")],
        "classes[1].l0: expected a positive length"),
    # JSON integers beyond the float range
    "huge l0": ([_set(("classes", 0, "l0"), 10**400)],
                "classes[0].l0: integer out of float range"),
    "huge volume": ([_set(("volume",), 10**400)], "volume: integer out of float range"),
    "huge angle": ([_set(("classes", 1, "angles", 1), -(10**400))],
                   "classes[1].angles[1]: integer out of float range"),
    "huge cell part": ([_set(("classes", 2, "chi", 1, 0, 1), 10**400)],
                       "classes[2].chi[1][0][1]: integer out of float range"),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_ERRORS))
def test_document_error_messages(case):
    edits, message = DOCUMENT_ERRORS[case]
    doc = length_spectrum_to_dict(synthesize(GroupData(5), 3, systole=0.5, seed=1, dim_chi=2))
    for edit in edits:
        edit(doc)
    with pytest.raises(ValidationError) as info:
        length_spectrum_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("entry,message", [
    ({"t": [10**400, 0.0], "m": 1}, "entries[1].t[0]: integer out of float range"),
    ({"t": [2.0, -(10**400)], "m": 1}, "entries[1].t[1]: integer out of float range"),
    ({"t": [2.0, 0.0], "m": 10**400}, "entries[1].m: integer out of float range"),
])
def test_eigen_document_error_messages(entry, message):
    doc = {"entries": [{"t": [1.0, 0.0], "m": 2}, entry]}
    with pytest.raises(ValidationError) as info:
        eigen_spectrum_from_dict(doc)
    assert str(info.value) == message


def test_constructor_checks_column_shapes_and_values(gd5):
    good = {"l0": [0.7, 0.9], "angles": [[0.1, 0.2], [0.3, 0.4]], "chi": np.ones((2, 1, 1))}
    cases = [
        ({"angles": [[0.1], [0.3]]}, "angles: expected shape (2, 2), got (2, 1)"),
        ({"chi": np.ones((2, 2, 2))}, "chi: expected shape (2, 1, 1), got (2, 2, 2)"),
        ({"l0": 0.7}, "l0: expected shape (1,), got ()"),
        ({"l0": [0.7, math.inf]}, "classes[1].l0: expected a positive length, got inf"),
        ({"angles": [[0.1, 0.2], [math.nan, 0.4]]}, "classes[1].angles: non-finite entry"),
        ({"chi": [[[1.0]], [[math.inf]]]}, "classes[1].chi: non-finite entry"),
    ]
    for change, message in cases:
        with pytest.raises(ValidationError) as info:
            LengthSpectrum(gd=gd5, volume=1.0, dim_chi=1, **{**good, **change})
        assert str(info.value) == message
    ls = LengthSpectrum(gd=gd5, volume=1.0, dim_chi=1, **good)
    assert ls.l0.dtype == float and ls.chi.dtype == complex
    assert not (ls.l0.flags.writeable or ls.angles.flags.writeable or ls.chi.flags.writeable)


def test_volume_is_kept_as_a_json_number(tmp_path, gd3):
    columns = {"l0": [0.7], "angles": [[0.1]], "chi": np.ones((1, 1, 1))}
    for volume in (True, np.bool_(True), "2", None, np.float32(math.inf), 10**400, -1):
        with pytest.raises(ValidationError) as info:
            LengthSpectrum(gd=gd3, volume=volume, dim_chi=1, **columns)
        assert str(info.value) == f"volume: expected a positive finite number, got {volume!r}"
    for volume, native in ((np.float32(1.5), 1.5), (np.float32(0.1), 0.10000000149011612),
                           (np.int64(2), 2), (np.float64(2.75), 2.75), (3, 3), (0.25, 0.25)):
        ls = LengthSpectrum(gd=gd3, volume=volume, dim_chi=1, **columns)
        assert type(ls.volume) is type(native) and ls.volume == native
        save(ls, tmp_path / "spec.json")
        back = load_length_spectrum(tmp_path / "spec.json")
        assert back.volume == native


def test_a_bool_count_is_refused_before_save(tmp_path, gd3):
    # json writes True as true, which the loaders refuse
    columns = {"l0": [0.7], "angles": [[0.1]], "chi": np.ones((1, 1, 1))}
    with pytest.raises(ValidationError) as info:
        LengthSpectrum(gd=gd3, volume=1.0, dim_chi=True, **columns)
    assert str(info.value) == "dim_chi: expected a positive integer, got True"
    with pytest.raises(ValidationError) as info:
        EigenSpectrum(entries=((1.0, True),))
    assert str(info.value) == "entries[0].m: expected a positive integer, got True"
    save(LengthSpectrum(gd=gd3, volume=1.0, dim_chi=1, **columns), tmp_path / "ls.json")
    assert load_length_spectrum(tmp_path / "ls.json").dim_chi == 1
    save(EigenSpectrum(entries=((1.0, 1),)), tmp_path / "eig.json")
    assert load_eigen_spectrum(tmp_path / "eig.json").entries == ((1 + 0j, 1),)


def test_the_eigen_constructor_states_the_multiplicity_rule():
    # the document loader leaves m to the constructor, so both refuse alike
    for m, message in ((10**400, "entries[0].m: integer out of float range"),
                       (0, "entries[0].m: expected a positive integer, got 0"),
                       (2.0, "entries[0].m: expected a positive integer, got 2.0")):
        with pytest.raises(ValidationError) as info:
            EigenSpectrum(entries=((2.0, m),))
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            eigen_spectrum_from_dict({"entries": [{"t": [2.0, 0.0], "m": m}]})
        assert str(info.value) == message


def test_the_eigen_constructor_refuses_a_t_past_the_float_range():
    # the rule m has: an integer past the float range is invalid input
    for t in (10**400, -(10**400)):
        with pytest.raises(ValidationError) as info:
            EigenSpectrum(entries=((2.0, 1), (t, 1)))
        assert str(info.value) == "entries[1].t: integer out of float range"


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load_length_spectrum(tmp_path / "absent.json")
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    with pytest.raises(ValidationError):
        load_eigen_spectrum(junk)


def test_an_unwritable_path_is_a_validation_error(tmp_path, ls3_twisted):
    # as --output and the loaders' "cannot read" refuse theirs
    path = tmp_path / "absent" / "spectrum.json"
    for value in (ls3_twisted, EigenSpectrum(entries=((2.0, 1),))):
        with pytest.raises(ValidationError) as info:
            save(value, path)
        assert str(info.value) == f"cannot write {path}: No such file or directory"


def test_synthesize_argument_validation(gd3):
    with pytest.raises(ValidationError):
        synthesize(gd3, -1, systole=0.5, seed=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.0, seed=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.5, seed=0, dim_chi=0)
    with pytest.raises(ValidationError):
        synthesize(gd3, 5, systole=0.5, seed=0, chi_norm=0.5)
