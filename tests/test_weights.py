import re
from fractions import Fraction

import numpy as np
import pytest

from zetaflow import (
    GroupData,
    TruncationPolicy,
    ValidationError,
    plancherel_polynomial,
    selberg_log,
    weyl_action,
    weyl_dim,
)
from zetaflow.weights import (
    as_weight,
    dominant_representative,
    is_dominant,
    norm_sq,
    positive_roots,
    weyl_orbit,
    weyl_vector,
)

from oracles import weyl_orbit_signed_permutations

# dimensions from the classical product formulas, worked out by hand:
# B_1 spin-m has 2m+1 states, the B_2 vector/spinor/adjoint are 5/4/10,
# D_2 splits as su(2) x su(2), B_3 vector is 7, D_3 matches su(4)
KNOWN_DIMS = [
    ("B", (0,), 1),
    ("B", (1,), 3),
    ("B", (Fraction(1, 2),), 2),
    ("B", (3,), 7),
    ("B", (1, 0), 5),
    ("B", (Fraction(1, 2), Fraction(1, 2)), 4),
    ("B", (1, 1), 10),
    ("B", (2, 0), 14),
    ("B", (1, 0, 0), 7),
    ("B", (1, 1, 0), 21),
    ("B", (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), 8),
    ("D", (0, 0), 1),
    ("D", (1, 0), 4),
    ("D", (1, 1), 3),
    ("D", (1, -1), 3),
    ("D", (Fraction(1, 2), Fraction(1, 2)), 2),
    ("D", (1, 0, 0), 6),
    ("D", (1, 1, 1), 10),
    ("D", (1, 1, -1), 10),
    ("D", (2, 0, 0), 20),
]


def test_weyl_dim_known_values():
    for family, w, dim in KNOWN_DIMS:
        assert weyl_dim(as_weight(w), family) == dim, (family, w)


def test_as_weight_rejects_mixed_integrality():
    with pytest.raises(ValidationError):
        as_weight((1, Fraction(1, 2)))
    with pytest.raises(ValidationError):
        as_weight((Fraction(3, 2), 1, Fraction(1, 2)))
    # thirds are not in the weight lattice at all
    with pytest.raises(ValidationError):
        as_weight((Fraction(1, 3),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_are_refused_as_not_rational(bad, gd3, ls3):
    message = re.escape(f"weight coordinate {bad!r} is not rational")
    with pytest.raises(ValidationError, match=message):
        as_weight((bad,))
    with pytest.raises(ValidationError, match=message):
        selberg_log(3.0, (bad,), ls3, TruncationPolicy(lmax=10.0))
    with pytest.raises(ValidationError, match=message):
        plancherel_polynomial(gd3, (bad,))


def test_float_coordinates_must_be_half_integral():
    assert as_weight((1.5, 0.5)) == (Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValidationError, match="1/4 is not half-integral"):
        as_weight((0.25,))


def test_dominance():
    assert is_dominant(as_weight((2, 1, 0)), "B")
    assert not is_dominant(as_weight((1, 2, 0)), "B")
    assert not is_dominant(as_weight((1, 0, -1)), "B")
    assert is_dominant(as_weight((2, 1, -1)), "D")
    assert is_dominant(as_weight((2, 1, 1)), "D")
    assert not is_dominant(as_weight((2, 1, -2)), "D")
    # rank one D has no chamber wall
    assert is_dominant(as_weight((-3,)), "D")
    assert not is_dominant(as_weight((-1,)), "B")


def test_positive_root_counts():
    for n in range(1, 6):
        assert len(positive_roots("B", n)) == n * n
        assert len(positive_roots("D", n)) == n * (n - 1)


def test_weyl_vectors():
    assert weyl_vector("B", 3) == as_weight((Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)))
    assert weyl_vector("D", 3) == as_weight((2, 1, 0))


def test_orbit_and_dominant_representative():
    rng = np.random.default_rng(7)
    for family in ("B", "D"):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            w = tuple(sorted((int(x) for x in rng.integers(0, 6, n)), reverse=True))
            if rng.random() < 0.5:
                w = tuple(Fraction(2 * c + 1, 2) for c in w)
            if family == "D" and rng.random() < 0.5:
                w = w[:-1] + (-w[-1],)
            if not is_dominant(as_weight(w), family):
                continue
            orbit = weyl_orbit(as_weight(w), family)
            assert orbit == weyl_orbit_signed_permutations(as_weight(w), family), (family, w)
            for q in orbit:
                assert dominant_representative(q, family) == as_weight(w)
                assert norm_sq(q) == norm_sq(as_weight(w))


def test_group_data_invariants():
    for d in (3, 5, 7, 9):
        gd = GroupData(d)
        n = (d - 1) // 2
        assert gd.n == n
        assert gd.rho_norm == n
        assert gd.rho_g == as_weight(tuple(range(n, -1, -1)))
        assert gd.rho_m == as_weight(tuple(range(n - 1, -1, -1)))
    for bad in (2, 4, 1, -3, 0):
        with pytest.raises(ValidationError):
            GroupData(bad)


def test_group_data_refuses_a_d_that_is_not_an_int():
    # a float d would make n a float, which no degree or range can take
    for bad in (3.0, 5.5, True, "5", Fraction(5)):
        with pytest.raises(ValidationError, match=re.escape(f"d must be an int, got {bad!r}")):
            GroupData(bad)


def test_weyl_action_flips_last_coordinate():
    assert weyl_action((2, 1)) == as_weight((2, -1))
    assert weyl_action((2, 1, -1)) == as_weight((2, 1, 1))
    assert weyl_action((3,)) == as_weight((-3,))
