"""The prepared plan evaluates every plan-sized kernel one summation block
at a time: each derived column, kernel array and sum must be bit for bit
the whole-array formula's (oracles.WholeArrayPlan), at every plan size
around a block edge, and the memory one point needs must not grow with
the plan. A built plan keeps 24 bytes a power and its build peaks below 40
bytes a power plus one block."""

import math
import tracemalloc
from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    WholeArrayPlan,
    block_sum_whole,
    character_table_loop,
    class_tail_loop,
    hyperbolic_sum_whole,
)
from zetaflow import (
    DomainError,
    GroupData,
    TruncationPolicy,
    geometric_heat_trace,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
    synthesize,
    z_p_log,
)
from zetaflow import chars, heat, spectra
from zetaflow.branching import exterior_decomposition
from zetaflow.chars import character_table, evaluate_all
from zetaflow.summation import BLOCK, chunked_sum

# block edges, and plans of 4 blocks, 4 blocks and one power, 12 blocks and 5
SIZES = [0, 1, BLOCK - 1, BLOCK, 16384, 16385, 49157]
SIGMA = (1, 0)


def bits(x) -> np.ndarray:
    """The bytes of a float or complex array or scalar as uint64 words."""
    return np.ascontiguousarray(np.asarray(x)).reshape(-1).view(np.uint64)


def same_bits(a, b) -> bool:
    return np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(bits(a), bits(b))


@pytest.fixture(scope="module")
def ls():
    return synthesize(GroupData(5), 10000, systole=0.5, seed=3, dim_chi=2)


def cutoff_for(ls, size: int) -> float:
    """A cutoff whose plan holds exactly size powers: halfway between the
    size-th and the next power length of a longer plan."""
    length = ls.power_table(15.0).length()
    assert length.size > size
    if size == 0:
        return 0.5 * float(length[0])
    return 0.5 * float(length[size - 1] + length[size])


@pytest.fixture(scope="module", params=SIZES, ids=[f"size{n}" for n in SIZES])
def sized(request, ls):
    lmax = cutoff_for(ls, request.param)
    assert ls.power_table(lmax).size == request.param
    return lmax, ls.power_table(lmax), WholeArrayPlan(ls, lmax)


def test_chunks_are_the_summation_blocks_and_cover_the_plan(sized):
    _, plan, _ = sized
    rows = list(plan.chunks())
    assert [(r.start, r.stop, r.step) for r in rows] == [
        (start, start + BLOCK, None) for start in range(0, plan.size, BLOCK)]
    assert sum(len(range(plan.size)[r]) for r in rows) == plan.size


def test_derived_columns_and_kernels_equal_the_whole_array_formulas(ls, sized):
    lmax, plan, whole = sized
    assert same_bits(plan.length(), whole.length)
    assert all(same_bits(plan.length(k), whole.length[k]) for k in range(min(plan.size, 3)))
    assert same_bits(plan.l0(), whole.l0)
    assert same_bits(plan.inv_j(), whole.inv_j)
    assert same_bits(plan.angles(), whole.angles)
    assert plan.angles().shape == whole.angles.shape == (plan.size, ls.gd.n)
    assert same_bits(plan.det, whole.det)
    for weight in (SIGMA, exterior_decomposition(ls.gd, 1)[0]):
        table = character_table("D", weight)
        assert same_bits(plan.character(table), whole.chars((table,)))


def test_class_tail_equals_the_scalar_oracle(ls, sized):
    # every class is in the tail, with J_c = 0 on the empty plan
    lmax, _, _ = sized
    a = ls.gd.rho_norm + ls.twist_rate + 1.5
    got = ls.class_tail(lmax, a, "inv_j", 2.0)
    assert math.isclose(got, class_tail_loop(ls, lmax, a, "inv_j", 2.0), rel_tol=1e-12)
    got = ls.class_tail(lmax, a, "l0", 3.0, det=False)
    assert math.isclose(got, class_tail_loop(ls, lmax, a, "l0", 3.0, det=False), rel_tol=1e-12)


def test_series_values_equal_the_whole_array_formulas(ls, sized):
    lmax, plan, whole = sized
    tp = TruncationPolicy(lmax=lmax, tail_eps=math.inf)
    sig = character_table("D", SIGMA)
    s = complex(ls.gd.rho_norm + ls.twist_rate + 1.5, 0.7)
    if not plan.size:
        with pytest.raises(DomainError, match="no power has length"):
            selberg_log(s, SIGMA, ls, tp)
        return
    for evaluate, kind in ((selberg_log, "selberg"), (log_derivative, "logderiv")):
        assert same_bits(evaluate(s, SIGMA, ls, tp).value, whole.series((sig,), s, kind))
    s_ruelle = s + ls.gd.rho_norm
    assert same_bits(ruelle_log(s_ruelle, SIGMA, ls, tp).value,
                     whole.series((sig,), s_ruelle, "ruelle"))
    p = 1
    shifted = s_ruelle + ls.gd.rho_norm - p
    want = 0j
    for psi in exterior_decomposition(ls.gd, p):
        want += whole.series((sig, character_table("D", psi)), shifted, "selberg")
    assert same_bits(z_p_log(s_ruelle, p, SIGMA, ls, tp).value, want)


def test_heat_sums_around_the_underflow_cutoff_equal_the_whole_array_formula(ls, sized):
    lmax, plan, whole = sized
    tp = TruncationPolicy(lmax=lmax, tail_eps=math.inf)
    sig = character_table("D", SIGMA)
    if not plan.size:
        with pytest.raises(DomainError, match="no power has length"):
            geometric_heat_trace(ls, SIGMA, [0.01], tp)
        return
    # the kernel exponent -L^2 / 4t at the first length L of a chunk, the
    # plan's first power included, lands on both sides of exp's own
    # underflow to 0 near -745.13 and just above, at and below the -746
    # cutoff where the sum stops
    times = []
    for edge in range(0, plan.size, BLOCK):
        first = plan.length(edge)
        for exponent in (-740.0, -745.1, -745.2, -746.0 * (1 - 1e-15), -746.0,
                         -746.0 * (1 + 1e-15), -760.0):
            t = first * first / (-4.0 * exponent)
            [got] = heat._hyperbolic_sums(plan, sig, [t], ls.gd.rho_norm)
            assert same_bits(got, whole.hyperbolic_sum(sig, t)), (edge, exponent)
            times.append(t)
            if exponent < -746.0:
                # what the stop skips is exact zeros in the whole-array kernel
                assert not np.exp(-whole.length[edge:] ** 2 / (4.0 * t)).any()
    # all the times in one pass, each stopping in its own chunk
    for t, got in zip(times, heat._hyperbolic_sums(plan, sig, times, ls.gd.rho_norm)):
        assert same_bits(got, whole.hyperbolic_sum(sig, t)), t


def _time_cutting_at(plan, first_dead: int) -> float:
    """A time at which the kernel exponent -L^2 / 4t is at least the
    underflow cutoff before power first_dead and below it from there on;
    the plan's length past its last power when first_dead is its size."""
    length = plan.length()
    end = float(length[first_dead]) if first_dead < plan.size else 2.0 * float(length[-1])
    middle = 0.5 * (float(length[first_dead - 1]) + end)
    t = middle * middle / (-4.0 * heat._EXP_UNDERFLOW)
    exponent = -length**2 / (4.0 * t)
    assert exponent[first_dead - 1] >= heat._EXP_UNDERFLOW
    assert (exponent[first_dead:] < heat._EXP_UNDERFLOW).all()
    return t


def test_heat_sums_cut_at_the_first_dead_power_equal_the_whole_chunk_kernel(
        ls, sized, monkeypatch):
    _, plan, _ = sized
    sig = character_table("D", SIGMA)
    summed = []

    def recorded(chunks, count):
        chunks = [list(chunk) for chunk in chunks]
        # per series, the length of its terms at each chunk, None for none
        summed.append([[None if v is None else v.size for v in chunk] for chunk in chunks])
        return chunked_sum(chunks, count)

    monkeypatch.setattr(spectra, "chunked_sum", recorded)
    # the first dead power: the first power only live, inside a block, on
    # block edges, inside later blocks
    cuts = [k for k in (1, BLOCK // 2 + 3, BLOCK, 4 * BLOCK, 5 * BLOCK + 7, 8 * BLOCK + 1)
            if k < plan.size]
    if plan.size:
        cuts.append(plan.size)  # no power dead
    wants = []
    for first_dead in cuts:
        t = _time_cutting_at(plan, first_dead)
        summed.clear()
        [got] = heat._hyperbolic_sums(plan, sig, [t], ls.gd.rho_norm)
        assert same_bits(got, hyperbolic_sum_whole(plan, sig, t, ls.gd.rho_norm))
        # each chunk with a live power whole, the one holding the first dead
        # power zero-filled; the pass ends before the chunks after it
        want = [len(range(plan.size)[r]) for r in plan.chunks() if r.start < first_dead]
        assert summed == [[[size] for size in want]], first_dead
        wants.append(want)
    # every cut in one pass: each time's terms as they were alone, None past
    # its cut, up to the chunks the longest time reaches
    times = [_time_cutting_at(plan, first_dead) for first_dead in cuts]
    summed.clear()
    for t, got in zip(times, heat._hyperbolic_sums(plan, sig, times, ls.gd.rho_norm)):
        assert same_bits(got, hyperbolic_sum_whole(plan, sig, t, ls.gd.rho_norm)), t
    assert summed == ([[list(sizes) for sizes in zip_longest(*wants)]] if cuts else [])


def test_a_trivial_character_is_all_ones_and_evaluates_nothing(sized, monkeypatch):
    _, plan, _ = sized
    calls = []
    for module in (chars, spectra):
        monkeypatch.setattr(module, "evaluate_all",
                            lambda tables, angles: calls.append(tables) or evaluate_all(tables, angles))
    trivial = character_table("D", (0, 0))
    reference = character_table_loop("D", (0, 0), plan.angles())
    plan._characters.pop(("D", trivial.highest), None)
    values = plan.character(trivial)
    assert same_bits(values, np.ones(plan.size, dtype=complex))
    assert same_bits(values, reference)
    # one shared 1 + 0j, whatever the plan size
    assert not values.flags.writeable and values.strides == (0,)
    assert values.base.nbytes == 16
    assert calls == []


@pytest.mark.parametrize("size", sorted({*SIZES, BLOCK + 1}))
def test_chunked_sum_equals_one_whole_array_pass(size):
    rng = np.random.default_rng(size)
    values = rng.normal(size=size) * np.exp(rng.uniform(0, 30, size=size))
    values = values + 1j * rng.normal(size=size)
    want = block_sum_whole(values)

    def alone(pieces) -> complex:
        [total] = chunked_sum(((v,) for v in pieces), 1)
        return total

    assert same_bits(alone((values,)), want)
    for chunk in (BLOCK, 4 * BLOCK):
        assert same_bits(alone(values[i : i + chunk] for i in range(0, size, chunk)), want)
    assert same_bits(alone((values.real,)), block_sum_whole(values.real))
    # a strided view, whose blocks are not contiguous
    assert same_bits(alone((values[::-1],)), block_sum_whole(values[::-1]))
    # three series side by side: every chunk, every chunk past the first
    # reversed and the first chunk's real parts; each sum the one it has alone
    pieces = [values[i : i + BLOCK] for i in range(0, size, BLOCK)]
    chunks = [(v, v[::-1] if i else None, None if i else v.real) for i, v in enumerate(pieces)]
    want = [want, alone(v[::-1] for v in pieces[1:]), alone(v.real for v in pieces[:1])]
    assert same_bits(chunked_sum(chunks, 3), want)


def _traced(evaluate) -> tuple[object, int, int]:
    """evaluate()'s value, the traced bytes it leaves allocated and its
    peak traced allocation, both above the starting level."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = evaluate()
        kept, peak = tracemalloc.get_traced_memory()
        return value, kept - base, peak - base
    finally:
        tracemalloc.stop()


def test_one_point_needs_no_more_memory_on_a_longer_plan():
    ls = synthesize(GroupData(3), 20000, systole=0.5, seed=3)
    length = ls.power_table(50.0).length()
    sigma = (0,)
    peaks = {}
    for size in (49152, 196608):
        lmax = 0.5 * float(length[size - 1] + length[size])
        tp = TruncationPolicy(lmax=lmax, tail_eps=math.inf)
        assert ls.power_table(lmax).size == size
        # every chunk of the plan is summed at this time
        t = lmax * lmax / (4.0 * 700.0)
        points = {
            "series": lambda: selberg_log(3.0 + 0.5j, sigma, ls, tp),
            "heat": lambda: geometric_heat_trace(ls, sigma, [t], tp),
            # its sigma tensor psi products are made a chunk at a time
            "factorization": lambda: ruelle_factorized_log(3.0 + 0.5j, sigma, ls, tp),
        }
        for name, point in points.items():
            point()  # warm: the plan's characters and det terms
            peaks[name, size] = _traced(point)[2]
    for name in points:
        small, large = peaks[name, 49152], peaks[name, 196608]
        # a few block-sized temporaries, whatever the plan size: below one
        # complex column (16 bytes a power) of the longer plan
        assert large <= small + 4096, (name, small, large)
        assert large < 16 * 196608, (name, small, large)
        # class_tail's steps are written into two of its arrays: its five
        # 20,000-float arrays at once would take 801 kB alone
        assert large < 801_000, (name, small, large)


# spectra shaped like the benchmark's, each with a plan of at least 12 blocks
MEMORY_SPECTRA = {
    "d3 dim_chi 1": (lambda: synthesize(GroupData(3), 4000, systole=0.5, seed=5), 60.0),
    "d5 dim_chi 2": (lambda: synthesize(GroupData(5), 2000, systole=0.5, seed=5,
                                        dim_chi=2, chi_norm=1.02), 60.0),
    "d7 dim_chi 1": (lambda: synthesize(GroupData(7), 3000, systole=0.5, seed=5), 30.0),
}
# room for the per-plan Python objects and small arrays
SLACK = 64 * 1024


@pytest.fixture(scope="module", params=sorted(MEMORY_SPECTRA))
def built(request):
    """A spectrum and its plan, with the traced bytes the build kept and
    its peak. The spectrum's own per-class caches are made first, so only
    the plan is counted."""
    make, lmax = MEMORY_SPECTRA[request.param]
    ls = make()
    ls.twist_norms, ls.twist_eigen
    plan, kept, peak = _traced(lambda: ls.power_table(lmax))
    assert plan.size >= 12 * BLOCK
    return ls, plan, kept, peak


def test_a_plan_keeps_24_bytes_a_power(built):
    # j, class index and trace, and nothing per class
    _, plan, kept, _ = built
    assert kept <= 24 * plan.size + SLACK, kept / plan.size


def test_a_plan_build_peaks_below_40_bytes_a_power_and_a_block(built):
    _, plan, _, peak = built
    assert peak <= 40 * (plan.size + BLOCK), peak / plan.size


def test_the_first_trivial_heat_time_keeps_no_prefactor_and_no_det_column(built):
    # the one pass makes its prefactors and their det terms a chunk at a
    # time, and the trivial character product shares one value
    ls, plan, _, _ = built
    tp = TruncationPolicy(lmax=plan.lmax, tail_eps=math.inf)
    sigma = (0,) * ls.gd.n
    _, kept, _ = _traced(lambda: geometric_heat_trace(ls, sigma, [1.0], tp))
    assert kept <= SLACK, kept / plan.size
    assert "det" not in vars(plan)


def test_det_rows_equal_the_product_of_the_angle_factors_along_the_rows():
    # n = 3, one block of random lengths and power angles j * theta, the
    # class angles theta gathered by a shuffled class index in the plan's angles()
    rng = np.random.default_rng(11)
    length = rng.uniform(0.05, 40.0, BLOCK)
    j = rng.integers(1, 60, (BLOCK, 1)).astype(np.int32)
    theta = rng.uniform(0.0, 2.0 * math.pi, (BLOCK, 3))
    angles = j * theta
    order = rng.permutation(BLOCK)
    plan = SimpleNamespace(length=length.__getitem__, j=j[:, 0],
                           class_index=np.argsort(order).astype(np.int32),
                           _class_angles=theta[order],
                           angles=lambda rows: spectra._PowerTable.angles(plan, rows))
    e = np.exp(-length)[:, None]
    want = np.prod(1.0 - 2.0 * e * np.cos(angles) + e * e, axis=1)
    assert same_bits(spectra._PowerTable.det_rows(plan, slice(None)), want)
