import math

import mpmath as mp
import numpy as np
import pytest

from oracles import half_line_integral_reeval
from zetaflow import DomainError
from zetaflow.quadrature import half_line_integral, path_integral, segment_integral

HALF_LINE_CASES = [
    (lambda t: np.exp(-t) + 0j, 1e-9),
    (lambda t: t * np.exp(-t) + 0j, 1e-9),
    (lambda t: np.sqrt(t) * np.exp(-t) + 0j, 1e-9),
    # the kernel of heat_resolvent_identity at s = 1.7 - 0.4i, length 2.3
    (
        lambda t: np.exp(-t * (1.7 - 0.4j) ** 2 - 2.3**2 / (4.0 * t))
        / np.sqrt(4.0 * math.pi * t),
        1e-11,
    ),
]


def test_polynomials_integrate_exactly():
    # the embedded 7-point Gauss rule is exact through degree 13
    for k in range(0, 14):
        got = segment_integral(lambda x, k=k: x**k + 0j, 0.0, 1.0, 1e-12)
        assert got.real == pytest.approx(1.0 / (k + 1), rel=1e-14), k


def test_known_integrals():
    got = segment_integral(lambda x: np.exp(x) + 0j, 0.0, 1.0, 1e-13)
    assert got.real == pytest.approx(math.e - 1.0, rel=1e-13)
    got = segment_integral(lambda x: np.sin(10.0 * x) + 0j, 0.0, math.pi, 1e-12)
    ref = float(mp.quad(lambda x: mp.sin(10 * x), [0, mp.pi]))
    assert got.real == pytest.approx(ref, abs=1e-12)


def test_oscillatory_integral_against_mpmath():
    def f(x):
        return np.exp(-x) * np.cos(7.0 * x) + 0j

    got = segment_integral(f, 0.0, 8.0, 1e-12)
    ref = float(mp.quad(lambda x: mp.e ** (-x) * mp.cos(7 * x), [0, 8]))
    assert got.real == pytest.approx(ref, abs=1e-12)


def test_noise_floor_allows_giant_cancellation():
    # an odd megaterm cancels on the symmetric rule; the sample noise floor
    # keeps the refinement from chasing an unreachable tolerance
    def f(x):
        return 1e18 * x**3 + 1.0 + 0j

    got = segment_integral(f, -1.0, 1.0, 1e-9)
    assert abs(got - 2.0) < 1e5


def test_unreachable_tolerance_is_a_domain_error():
    with pytest.raises(DomainError):
        segment_integral(lambda x: np.abs(x - math.pi / 7) ** 0.1 + 0j, 0.0, 1.0, 1e-15)


def test_path_integral_winds_around_a_pole():
    def f(z):
        return 1.0 / z

    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    got = path_integral(f, square, rel_tol=1e-12)
    assert got == pytest.approx(2j * math.pi, rel=1e-11)


def test_path_integral_of_entire_function_vanishes():
    def f(z):
        return z * z - 3.0 * z + 1.0

    square = [2 + 0j, 2j, -2 + 0j, -2j, 2 + 0j]
    got = path_integral(f, square, rel_tol=1e-12)
    assert abs(got) < 1e-12


def test_half_line_integrals():
    val, diff = half_line_integral(lambda t: np.exp(-t) + 0j)
    assert val.real == pytest.approx(1.0, rel=1e-9)
    assert diff < 1e-8
    val, _ = half_line_integral(lambda t: t * np.exp(-t) + 0j)
    assert val.real == pytest.approx(1.0, rel=1e-9)
    val, _ = half_line_integral(lambda t: np.sqrt(t) * np.exp(-t) + 0j)
    assert val.real == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)


def test_half_line_matches_the_reevaluating_rule_bitwise():
    for f, rel_tol in HALF_LINE_CASES:
        assert half_line_integral(f, rel_tol=rel_tol) == half_line_integral_reeval(
            f, rel_tol=rel_tol
        )


def test_half_line_evaluates_each_node_once():
    for f, rel_tol in HALF_LINE_CASES:
        seen = []

        def counted(t, f=f):
            seen.extend(np.log(t).tolist())
            return f(t)

        half_line_integral(counted, rel_tol=rel_tol)
        assert len(seen) == len(set(seen))
        # every node of the finest rule was evaluated: the grid has no gaps
        steps = np.diff(np.sort(seen))
        assert steps.max() == pytest.approx(steps.min(), rel=1e-9)
