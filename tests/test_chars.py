import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import char_B_mp, char_D_mp, character_table_loop
from zetaflow import (
    ValidationError,
    character_table,
    weight_multiplicities,
    weyl_character,
    weyl_dim,
)
from zetaflow import chars
from zetaflow.chars import TableSet, evaluate_all
from zetaflow.summation import BLOCK
from zetaflow.weights import as_weight, is_dominant, weyl_orbit

B_WEIGHTS = [
    (1,),
    (4,),
    (Fraction(5, 2),),
    (1, 0),
    (2, 1),
    (Fraction(3, 2), Fraction(1, 2)),
    (3, 1, 0),
    (2, 2, 1),
    (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)),
]
D_WEIGHTS = [
    (0,),
    (3,),
    (-2,),
    (1, 0),
    (2, 1),
    (2, -1),
    (Fraction(1, 2), -Fraction(1, 2)),
    (2, 1, 0),
    (1, 1, -1),
    (Fraction(5, 2), Fraction(3, 2), -Fraction(1, 2)),
]


def test_alternant_matches_high_precision_reference():
    # both routes, the default weight route included
    rng = np.random.default_rng(2)
    for fam, weights, char_mp in (("B", B_WEIGHTS, char_B_mp), ("D", D_WEIGHTS, char_D_mp)):
        for w in weights:
            for _ in range(6):
                th = rng.uniform(0.25, 2.85, size=len(w))
                ref = char_mp(w, th)
                for route in ("alternant", "weights"):
                    got = weyl_character(w, th, fam, route=route)
                    assert abs(got - ref) <= 1e-9 * (1 + abs(ref)), (w, th, route)


def test_character_at_origin_is_dimension():
    zero = np.zeros(3)
    for w in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (Fraction(1, 2),) * 3]:
        assert weyl_character(w, zero, "B") == pytest.approx(weyl_dim(as_weight(w), "B"))
        assert weyl_character(w, zero, "D") == pytest.approx(weyl_dim(as_weight(w), "D"))


def test_default_route_is_finite_at_singular_angles():
    # repeated and vanishing angles kill the alternant denominators; the
    # default is the weight route, finite there and the limit of the
    # alternant at nearby regular angles
    step = np.array([1e-5, -3e-6])
    for th in ([0.7, 0.7], [1.3, 0.0], [np.pi, np.pi]):
        for fam, w in (("B", (2, 1)), ("D", (2, -1))):
            v = weyl_character(w, np.asarray(th), fam)
            assert np.isfinite(v.real) and np.isfinite(v.imag)
            assert v == weyl_character(w, np.asarray(th), fam, route="weights")
            near = weyl_character(w, np.asarray(th) + step, fam, route="alternant")
            assert v == pytest.approx(near, abs=1e-3), (fam, th)


def test_routes_agree_at_generic_angles():
    rng = np.random.default_rng(3)
    for fam, ws in (("B", B_WEIGHTS), ("D", D_WEIGHTS)):
        for w in ws[:6]:
            th = rng.uniform(0.3, 2.6, size=(8, len(w)))
            a = weyl_character(w, th, fam, route="alternant")
            b = weyl_character(w, th, fam, route="weights")
            assert np.abs(a - b).max() < 1e-8 * (1 + np.abs(b).max())


def test_batched_shapes_match_scalar_loop():
    rng = np.random.default_rng(4)
    th = rng.uniform(0.2, 2.9, size=(3, 5, 2))
    vals = weyl_character((2, 1), th, "B")
    assert vals.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            assert vals[i, j] == weyl_character((2, 1), th[i, j], "B")


def test_weight_multiplicities_small_tables():
    # spin-1 of B_1 and the B_2 adjoint, written out by hand
    assert weight_multiplicities("B", as_weight((1,))) == {(-1,): 1, (0,): 1, (1,): 1}
    adj = weight_multiplicities("B", as_weight((1, 1)))
    assert adj[as_weight((0, 0))] == 2
    assert sum(adj.values()) == 10
    assert all(m == 1 for w, m in adj.items() if w != (0, 0))


def _dominant_box(family: str, top: int) -> list[tuple]:
    """Every dominant weight of ranks 1-3 with coordinates of size at most
    ``top``, integral and half-integral."""
    out = []
    for n in (1, 2, 3):
        for offset in (0, Fraction(1, 2)):
            sizes = [c + offset for c in range(top + 1) if c + offset <= top]
            coords = sizes + [-c for c in sizes if c]
            out += [w for w in itertools.product(coords, repeat=n)
                    if is_dominant(as_weight(w), family)]
    return out


def test_weight_multiplicities_sum_to_dimension_and_flip_invariance():
    # the listed weights and every dominant weight of a small box; the
    # Weyl dimension formula is the independent reference
    for fam, ws in (("B", B_WEIGHTS), ("D", D_WEIGHTS)):
        for w in ws + _dominant_box(fam, 3):
            lam = as_weight(w)
            table = weight_multiplicities(fam, lam)
            assert sum(table.values()) == weyl_dim(lam, fam), (fam, w)
            for mu, m in table.items():
                for nu in weyl_orbit(mu, fam):
                    assert table.get(nu) == m, (w, mu, nu)


def test_character_table_bound_and_evaluate():
    t = character_table("B", (2, 1))
    rng = np.random.default_rng(5)
    th = rng.uniform(0, 2 * np.pi, size=(200, 2))
    vals = t.evaluate(th)
    assert np.abs(vals).max() <= t.norm_bound() + 1e-12
    direct = weyl_character((2, 1), th, "B", route="weights")
    assert np.abs(vals - direct).max() == 0.0


def test_evaluate_is_bit_identical_to_the_summed_phase():
    # <mu, theta> as explicit column products against the reduction
    # (theta * mu).sum(axis=-1), compared bit for bit
    rng = np.random.default_rng(6)
    for fam, ws in (("B", B_WEIGHTS), ("D", D_WEIGHTS)):
        for w in ws:
            items = sorted(weight_multiplicities(fam, as_weight(w)).items())
            weights = np.array([[float(c) for c in mu] for mu, _ in items])
            th = rng.uniform(-40.0, 40.0, size=(4000, len(w)))
            th[:20] = 0.0
            th[20:40, 0] = -0.0
            want = np.zeros(len(th), dtype=complex)
            for mu, (_, m) in zip(weights, items):
                want += float(m) * np.exp(1j * (th * mu).sum(axis=-1))
            got = character_table(fam, w).evaluate(th)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (fam, w)


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).reshape(-1).view(np.uint64)


def _hard_angles(rng, rows: int, rank: int, scale: float) -> np.ndarray:
    """Random angles, with rows of +-0, mixed signed zeros, equal angles
    (phases that cancel to zero) and subnormal angles."""
    th = rng.uniform(-scale, scale, size=(rows, rank))
    th[:16] = 0.0
    th[16:32] = -0.0
    th[32:48, ::2] = -0.0
    th[48:64] = th[48:64, :1]
    th[64:80] = rng.uniform(-1e-310, 1e-310, size=(16, rank))
    return th


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_evaluate_all_is_bit_identical_to_one_table_at_a_time(rank):
    # the B and D tables of one rank together, half-integral weights
    # included, on rows spanning several blocks, with |<mu, theta>| up to
    # about 2000
    rng = np.random.default_rng(40 + rank)
    weights = [("B", w) for w in B_WEIGHTS if len(w) == rank]
    weights += [("D", w) for w in D_WEIGHTS if len(w) == rank]
    longest = max(sum(abs(float(c)) for c in w) for _, w in weights)
    th = _hard_angles(rng, 2 * BLOCK + 77, rank, 2000.0 / longest)
    tables = [character_table(fam, w) for fam, w in weights]
    got = evaluate_all(tables, th)
    assert len(got) == len(weights)
    # a TableSet's layout, made once, read by calls on each block of rows
    layout = TableSet(tables)
    blocks = [evaluate_all(layout, th[i:i + BLOCK]) for i in range(0, len(th), BLOCK)]
    for (fam, w), values, *pieces in zip(weights, got, *blocks):
        want = character_table_loop(fam, w, th)
        assert np.array_equal(bits(values), bits(want)), (fam, w)
        assert np.array_equal(bits(np.concatenate(pieces)), bits(want)), (fam, w)
        assert np.array_equal(bits(character_table(fam, w).evaluate(th)), bits(want)), (fam, w)


def test_evaluate_all_pairs_conjugate_weights_across_tables():
    # the two halves of the third exterior power at d = 7: the negative of
    # (1, 1, 1), a weight of one, is a weight of the other
    plus, minus = character_table("D", (1, 1, 1)), character_table("D", (1, 1, -1))
    assert (1, 1, 1) in weight_multiplicities("D", as_weight((1, 1, 1)))
    assert (-1, -1, -1) in weight_multiplicities("D", as_weight((1, 1, -1)))
    rng = np.random.default_rng(43)
    th = _hard_angles(rng, BLOCK + 5, 3, 700.0)
    want = [character_table_loop("D", t.highest, th) for t in (plus, minus)]
    for tables, expected in (((plus, minus), want), ((minus, plus), want[::-1]),
                             ((plus, minus, plus), [*want, want[0]])):
        got = evaluate_all(tables, th)
        assert all(np.array_equal(bits(g), bits(e)) for g, e in zip(got, expected, strict=True))


@pytest.mark.parametrize("floats", [1, 700, 1 << 17])
def test_evaluate_all_is_the_same_in_passes_of_any_width(monkeypatch, floats):
    # passes of one row and of a few rows, added by np.add.accumulate, and
    # of every row, added a weight at a time, on tables whose weights pair
    # across them
    monkeypatch.setattr(chars, "_FLOATS", floats)
    rng = np.random.default_rng(46)
    th = _hard_angles(rng, chars._WIDE + 44, 3, 700.0)
    weights = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, -1), (Fraction(3, 2),) * 3]
    got = evaluate_all([character_table("D", w) for w in weights], th)
    for w, values in zip(weights, got, strict=True):
        assert np.array_equal(bits(values), bits(character_table_loop("D", w, th))), w


def test_evaluate_all_holds_one_pass_of_temporaries():
    # the factorization's exterior pieces at d = 7 on one block of rows:
    # beyond its outputs, a call holds one pass of at most _FLOATS floats
    # and its few per-weight index arrays
    tables = [character_table("D", w) for w in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
                                                (1, 1, -1)]]
    th = np.random.default_rng(47).uniform(-9.0, 9.0, size=(BLOCK, 3))
    evaluate_all(tables, th)
    tracemalloc.start()
    try:
        evaluate_all(tables, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * chars._FLOATS + 16 * BLOCK * len(tables) + 16_384


def test_evaluate_all_keeps_the_angle_shape():
    rng = np.random.default_rng(44)
    tables = [character_table("D", (1, 0)), character_table("B", (Fraction(1, 2),) * 2)]
    for shape in [(2,), (3, 5, 2), (0, 2)]:
        th = rng.uniform(-9.0, 9.0, size=shape)
        for t, values in zip(tables, evaluate_all(tables, th)):
            want = character_table_loop(t.family, t.highest, th)
            assert values.shape == shape[:-1] and np.array_equal(bits(values), bits(want))
    assert evaluate_all([], np.zeros((4, 2))) == []
    with pytest.raises(ValidationError, match="rank 2 passed to a rank 3 character"):
        evaluate_all([tables[0], character_table("D", (1, 0, 0))], np.zeros((4, 2)))


def test_exp_of_a_negated_phase_is_the_conjugate_bit_for_bit():
    # what evaluate_all relies on for the term of -mu; at a zero phase
    # only the sign of the zero imaginary part differs, which a sum that
    # starts at +0 absorbs
    rng = np.random.default_rng(45)
    phi = np.concatenate([
        rng.uniform(-2000.0, 2000.0, 200_000),
        rng.uniform(-1.0, 1.0, 50_000) * 10.0 ** rng.integers(-320, 1, 50_000),
        np.pi * np.arange(-640, 641) / 2, [5e-324, -5e-324, 1e308, -1e308],
    ])
    phi = phi[phi != 0]
    direct = np.exp(np.multiply(-phi, 1j))
    assert np.array_equal(bits(np.conjugate(np.exp(np.multiply(phi, 1j)))), bits(direct))
    zero = np.exp(np.multiply(np.array([0.0, -0.0]), 1j))
    assert np.array_equal(zero, np.conjugate(zero))


def test_rank_mismatch_rejected():
    with pytest.raises(ValidationError):
        weyl_character((1, 0), np.zeros(3), "B")
    with pytest.raises(ValidationError):
        weyl_character((1, 2), np.zeros(2), "B")


def test_unknown_route_rejected():
    with pytest.raises(ValidationError, match="table"):
        weyl_character((2, 1), np.full(2, 0.4), "B", route="table")
