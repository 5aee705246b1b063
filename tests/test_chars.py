from fractions import Fraction

import numpy as np
import pytest

from oracles import char_B_mp, char_D_mp
from zetaflow import (
    ValidationError,
    character_table,
    weight_multiplicities,
    weyl_character,
    weyl_dim,
)
from zetaflow.weights import as_weight, weyl_orbit_signs

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
    rng = np.random.default_rng(2)
    for w in B_WEIGHTS:
        for _ in range(6):
            th = rng.uniform(0.25, 2.85, size=len(w))
            got = weyl_character(w, th, "B")
            ref = char_B_mp(w, th)
            assert abs(got - ref) <= 1e-9 * (1 + abs(ref)), (w, th)
    for w in D_WEIGHTS:
        for _ in range(6):
            th = rng.uniform(0.25, 2.85, size=len(w))
            got = weyl_character(w, th, "D")
            ref = char_D_mp(w, th)
            assert abs(got - ref) <= 1e-9 * (1 + abs(ref)), (w, th)


def test_character_at_origin_is_dimension():
    zero = np.zeros(3)
    for w in [(1, 0, 0), (2, 1, 0), (1, 1, 1), (Fraction(1, 2),) * 3]:
        assert weyl_character(w, zero, "B") == pytest.approx(weyl_dim(as_weight(w), "B"))
        assert weyl_character(w, zero, "D") == pytest.approx(weyl_dim(as_weight(w), "D"))


def test_singular_angles_fall_back_to_exact_route():
    # repeated and vanishing angles kill the alternant denominators
    for th in ([0.7, 0.7], [1.3, 0.0], [np.pi, np.pi]):
        for fam, w in (("B", (2, 1)), ("D", (2, -1))):
            v = weyl_character(w, np.asarray(th), fam)
            r = weyl_character(w, np.asarray(th), fam, route="weights")
            assert np.isfinite(v.real) and np.isfinite(v.imag)
            assert v == pytest.approx(r, abs=1e-12)


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


def test_weight_multiplicities_sum_to_dimension_and_flip_invariance():
    for fam, ws in (("B", B_WEIGHTS), ("D", D_WEIGHTS)):
        for w in ws:
            lam = as_weight(w)
            table = weight_multiplicities(fam, lam)
            assert sum(table.values()) == weyl_dim(lam, fam)
            for mu, m in table.items():
                for nu in weyl_orbit_signs(mu, fam):
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


def test_rank_mismatch_rejected():
    with pytest.raises(ValidationError):
        weyl_character((1, 0), np.zeros(3), "B")
    with pytest.raises(ValidationError):
        weyl_character((1, 2), np.zeros(2), "B")


def test_unknown_route_rejected():
    with pytest.raises(ValidationError, match="table"):
        weyl_character((2, 1), np.full(2, 0.4), "B", route="table")
