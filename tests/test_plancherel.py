from fractions import Fraction

import numpy as np
import pytest

from oracles import plancherel_coeffs_symbolic
from zetaflow import GroupData, ValidationError, c_sigma, plancherel_polynomial
from zetaflow.plancherel import horner
from zetaflow.weights import norm_sq

CASES = [
    (3, (0,)),
    (3, (1,)),
    (3, (4,)),
    (3, (-2,)),
    (3, (Fraction(1, 2),)),
    (5, (0, 0)),
    (5, (1, 0)),
    (5, (2, 1)),
    (5, (2, -1)),
    (5, (Fraction(3, 2), Fraction(1, 2))),
    (7, (0, 0, 0)),
    (7, (1, 1, 1)),
    (7, (2, 1, 0)),
    (7, (2, 1, -1)),
    (9, (1, 1, 0, 0)),
    (9, (2, 1, 1, -1)),
]


def test_exact_coefficients_match_symbolic_expansion():
    for d, sigma in CASES:
        P = plancherel_polynomial(GroupData(d), sigma)
        assert P.exact == plancherel_coeffs_symbolic(d, sigma), (d, sigma)


def test_degree_and_float_view():
    for d, sigma in CASES:
        P = plancherel_polynomial(GroupData(d), sigma)
        assert 2 * (len(P.coeffs) - 1) == d - 1
        assert len(P.coeffs) == len(P.exact)
        assert all(complex(e) == c for e, c in zip(P.exact, P.coeffs))


def test_rank_one_closed_form():
    # in dimension 3 the density is z^2 - k^2
    for k in (0, 1, 2, 5, Fraction(1, 2), Fraction(7, 2), -3):
        P = plancherel_polynomial(GroupData(3), (k,))
        assert P.exact == (-Fraction(k) ** 2, Fraction(1))


def test_dimension_five_values():
    gd = GroupData(5)
    # trivial type: (z^4 - z^2) / 12
    assert plancherel_polynomial(gd, (0, 0)).exact == (0, Fraction(-1, 12), Fraction(1, 12))
    P = plancherel_polynomial(gd, (1, 0))
    assert P(2.0) == pytest.approx(0.0, abs=1e-14)
    assert P(3.0) == pytest.approx(15.0, rel=1e-14)


def test_evenness():
    rng = np.random.default_rng(6)
    for d, sigma in CASES:
        P = plancherel_polynomial(GroupData(d), sigma)
        for _ in range(5):
            z = complex(rng.normal(), rng.normal())
            assert P(z) == P(-z)


def test_evaluate_many_matches_call():
    P = plancherel_polynomial(GroupData(7), (2, 1, 0))
    rng = np.random.default_rng(8)
    z = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    grid = P.evaluate_many(z)
    assert grid.shape == z.shape
    for i in range(4):
        for j in range(6):
            # scalar and array Horner may round differently in the last ulp
            assert grid[i, j] == pytest.approx(P(complex(z[i, j])), rel=1e-15)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 40001])
def test_horner_in_place_equals_the_new_array_steps(size):
    # acc = acc * u + c, each step into a new array, is the reference bit
    # for bit; one complex entry is the size numpy rounds differently in place
    rng = np.random.default_rng(size)
    coeffs = [complex(*rng.normal(size=2)) for _ in range(6)]
    for u, dtype, cs in (
        (rng.normal(size=size) + 1j * rng.normal(size=size), complex, coeffs),
        (rng.normal(size=size), complex, coeffs),
        (rng.normal(size=size), float, [abs(c) for c in coeffs]),
    ):
        want = np.zeros(size, dtype=dtype)
        for c in reversed(cs):
            want = want * u + c
        got = horner(cs, u, dtype)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_c_sigma_definition():
    for d, sigma in CASES:
        gd = GroupData(d)
        shifted = tuple(Fraction(a) + b for a, b in zip(sigma, gd.rho_m))
        want = norm_sq(shifted) - Fraction(gd.rho_norm) ** 2 - norm_sq(gd.rho_m)
        assert c_sigma(gd, sigma) == want
    assert c_sigma(GroupData(3), (0,)) == -1
    assert c_sigma(GroupData(5), (0, 0)) == -4


def test_invalid_types_rejected():
    with pytest.raises(ValidationError):
        plancherel_polynomial(GroupData(5), (0, 1))
    with pytest.raises(ValidationError):
        plancherel_polynomial(GroupData(5), (1,))
    with pytest.raises(ValidationError):
        plancherel_polynomial(GroupData(3), (Fraction(1, 3),))
