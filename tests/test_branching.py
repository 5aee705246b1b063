import itertools
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from oracles import branching_by_characters, exterior_power_peel, m_tau_coeffs_greedy
from zetaflow import (
    GroupData,
    ValidationError,
    branch_weights,
    branching_multiplicity,
    exterior_decomposition,
    m_tau_coeffs,
    tau_pm_split,
    weyl_action,
    weyl_dim,
)
from zetaflow.weights import as_weight, is_dominant

TAUS = [
    (0,),
    (2,),
    (Fraction(7, 2),),
    (1, 0),
    (2, 1),
    (2, 2),
    (Fraction(3, 2), Fraction(1, 2)),
    (1, 1, 0),
    (2, 1, 1),
    (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)),
]


def test_branch_weights_match_character_solve():
    rng = np.random.default_rng(10)
    for tau in TAUS:
        table = {}
        for s in branch_weights(tau):
            table[s] = table.get(s, 0) + 1
        assert branching_by_characters(tau, rng) == table, tau


def test_restriction_is_multiplicity_free():
    for tau in TAUS:
        seen = set()
        for s in branch_weights(tau):
            assert is_dominant(s, "D"), (tau, s)
            assert s not in seen, (tau, s)
            seen.add(s)
            assert branching_multiplicity(tau, s) == 1
        # a weight strictly above the top never appears; the tail keeps the
        # integrality class of tau
        n = len(tau)
        t0 = Fraction(tau[0])
        tail = Fraction(1, 2) if t0.denominator == 2 else Fraction(0)
        far = (t0 + 1,) + (tail,) * (n - 1)
        assert branching_multiplicity(tau, far) == 0


def test_restriction_preserves_dimension():
    for tau in TAUS:
        total = sum(weyl_dim(s, "D") for s in branch_weights(tau))
        assert total == weyl_dim(as_weight(tau), "B"), tau


def test_tau_pm_split_restricts_to_sigma_plus_reflection():
    sigmas = [(1,), (3,), (2, 1), (1, 1), (Fraction(3, 2), Fraction(1, 2)), (2, 1, 1)]
    for sigma in sigmas:
        plus, minus = tau_pm_split(sigma)
        net: dict = {}
        for rep, coeff in ((plus, 1), (minus, -1)):
            for tau, m in dict(rep).items():
                for s in branch_weights(tau):
                    net[s] = net.get(s, 0) + coeff * m
        net = {k: v for k, v in net.items() if v}
        want = {as_weight(sigma): 1}
        w = weyl_action(sigma)
        want[w] = want.get(w, 0) + 1
        assert net == want, sigma


def test_tau_pm_split_rejects_wall_weights():
    with pytest.raises(ValidationError):
        tau_pm_split((2, 0))
    with pytest.raises(ValidationError):
        tau_pm_split((0,))


def test_m_tau_coeffs_invert_branching():
    sigmas = [(0,), (1, 0), (3, 0), (2, 2, 0), (1, 1, 0)]
    for sigma in sigmas:
        rep = m_tau_coeffs(sigma)
        assert all(c in (-1, 1) for c in dict(rep).values()), sigma
        net: dict = {}
        for tau, m in dict(rep).items():
            for s in branch_weights(tau):
                net[s] = net.get(s, 0) + m
        net = {k: v for k, v in net.items() if v}
        assert net == {as_weight(sigma): 1}, sigma


def test_branching_multiplicity_refuses_a_rank_mismatch_and_mixed_lattices():
    with pytest.raises(ValidationError, match="rank mismatch: tau has rank 2, sigma rank 1"):
        branching_multiplicity((1, 0), (1,))
    half = (Fraction(1, 2), Fraction(1, 2))
    for tau, sigma in (((1, 0), half), ((Fraction(3, 2), Fraction(1, 2)), (1, 0))):
        with pytest.raises(ValidationError, match="different integrality classes"):
            branching_multiplicity(tau, sigma)


def test_m_tau_coeffs_need_invariant_weight():
    with pytest.raises(ValidationError):
        m_tau_coeffs((1,))
    with pytest.raises(ValidationError):
        m_tau_coeffs((2, 1))


def test_exterior_decomposition_dimensions():
    for d in (3, 5, 7):
        gd = GroupData(d)
        n = gd.n
        for p in range(0, 2 * n + 1):
            # one constituent, or the two halves of the middle power, each
            # of multiplicity one: their dimensions add up to C(2n, p)
            total = sum(weyl_dim(w, "D") for w in exterior_decomposition(gd, p))
            assert total == comb(2 * n, p), (d, p)
        assert exterior_decomposition(gd, 0) == [tuple([Fraction(0)] * n)]
        with pytest.raises(ValidationError):
            exterior_decomposition(gd, 2 * n + 1)
        with pytest.raises(ValidationError):
            exterior_decomposition(gd, -1)


@pytest.mark.parametrize("p", [2.5, 2.0, True, False, "1", None])
def test_exterior_decomposition_refuses_a_degree_that_is_not_an_int(p):
    # 2.5 would otherwise take the pieces of min(2.5, 4 - 2.5) and 2.0 or
    # True those of 2 or 1
    with pytest.raises(ValidationError, match=f"expected an integer, got {re.escape(repr(p))}"):
        exterior_decomposition(GroupData(5), p)


def test_exterior_decomposition_is_self_dual():
    for d in (3, 5, 7):
        gd = GroupData(d)
        n = gd.n
        for p in range(0, n + 1):
            low = sorted(exterior_decomposition(gd, p))
            high = sorted(exterior_decomposition(gd, 2 * n - p))
            assert low == high, (d, p)


def _invariant_types(rank, top):
    """Weyl-invariant D types of the given rank with coordinates in [0, top]."""
    for head in itertools.combinations_with_replacement(range(top, -1, -1), rank - 1):
        yield head + (0,)


def _restricted(rep):
    net: dict = {}
    for tau, m in rep.items():
        for s in branch_weights(tau):
            net[s] = net.get(s, 0) + m
    return {k: v for k, v in net.items() if v}


def test_m_tau_coeffs_equal_greedy_inversion():
    small = [s for r in range(1, 5) for s in _invariant_types(r, 5)]
    large = [s for r in range(5, 8) for s in _invariant_types(r, 2)]
    assert (len(small), len(large)) == (84, 64)
    for sigma in small + large:
        assert dict(m_tau_coeffs(sigma)) == m_tau_coeffs_greedy(sigma), sigma


def test_m_tau_coeffs_invert_restriction_at_rank_7():
    # greedy peeling needs more than 64 steps here
    sigma = (6, 5, 4, 3, 2, 1, 0)
    rep = m_tau_coeffs(sigma)
    assert len(rep) == 64
    assert list(rep) == sorted(rep)
    assert _restricted(rep) == {as_weight(sigma): 1}


def test_exterior_decomposition_equals_peeling():
    # the peel takes about 20 s at d = 15, so the test stops at d = 13
    for d in range(3, 15, 2):
        gd = GroupData(d)
        for p in range(0, 2 * gd.n + 1):
            got = exterior_decomposition(gd, p)
            assert got == exterior_power_peel(gd.n, p), (d, p)
