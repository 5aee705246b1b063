"""Quadrature kernels.

Two rules cover every integral in the package: an adaptive Gauss-Kronrod
7-15 pair on straight segments of complex polylines (analytic integrands,
spectral convergence, embedded error estimate), and a trapezoid rule on
the logarithmic axis for integrals over (0, infinity) whose integrands are
analytic in the right half plane, where the substitution t = e^u makes the
trapezoid error decay exponentially in the inverse step.

The Kronrod nodes and weights are the standard 15-point constants; unit
tests pin them down by polynomial exactness through degree 22.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]:
# positive abscissae (Kronrod points interleave the Gauss points, which sit
# at indices 1, 3, 5, 7), Kronrod weights, and Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # 15 ascending nodes
_KW = np.concatenate([_WGK[:7], _WGK[::-1]])               # matching Kronrod weights
_GW = np.zeros(15)
_GW[1:7:2] = _WG[:3]                                       # -x5, -x3, -x1
_GW[7] = _WG[3]
_GW[9:15:2] = _WG[2::-1]                                   # x1, x3, x5


def _gk15(
    f: Callable[[np.ndarray], np.ndarray], a: complex, b: complex
) -> tuple[complex, float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = mid + half * _NODES
    vals = np.asarray(f(z), dtype=complex)
    ik = half * (vals * _KW).sum()
    ig = half * (vals * _GW).sum()
    # rounding floor: no refinement can certify below the noise of the samples
    noise = 2.3e-16 * abs(half) * float((np.abs(vals) * _KW).sum())
    return complex(ik), abs(ik - ig), noise


def segment_integral(
    f: Callable[[np.ndarray], np.ndarray],
    a: complex,
    b: complex,
    abs_tol: float,
    max_depth: int = 28,
) -> complex:
    """Adaptive bisection of one straight segment to absolute tolerance."""
    value, err, noise = _gk15(f, a, b)
    if err <= max(abs_tol, noise) or abs(b - a) < 1e-14:
        return value
    if max_depth <= 0:
        raise DomainError(
            f"segment quadrature did not converge on [{a}, {b}] (error {err:.2e})"
        )
    mid = 0.5 * (a + b)
    return segment_integral(f, a, mid, abs_tol / 2, max_depth - 1) + segment_integral(
        f, mid, b, abs_tol / 2, max_depth - 1
    )


def path_integral(
    f: Callable[[np.ndarray], np.ndarray],
    vertices: list[complex],
    rel_tol: float = 1e-11,
) -> complex:
    """Integral of f along the polyline through ``vertices``."""
    if len(vertices) < 2:
        raise DomainError("path needs at least two vertices")
    coarse = 0.0
    for a, b in zip(vertices, vertices[1:]):
        val, _, _ = _gk15(f, complex(a), complex(b))
        coarse += abs(val)
    abs_tol = rel_tol * max(coarse, 1e-30)
    total = 0j
    for a, b in zip(vertices, vertices[1:]):
        total += segment_integral(f, complex(a), complex(b), abs_tol / max(1, len(vertices) - 1))
    return total


# log-axis trapezoid: coarse step (dyadic, so every node is an exact binary
# fraction), number of halvings, and the |u| where window expansion stops
_H0 = 0.5
_MAX_HALVINGS = 8
_U_CAP = 690.0


def half_line_integral(
    f: Callable[[np.ndarray], np.ndarray], rel_tol: float = 1e-9
) -> tuple[complex, float]:
    """Integral of f over (0, infinity) by trapezoid on the u = log t axis.

    The window expands at the coarse step h0 = 0.5 until the transformed
    integrand g(u) = f(e^u) e^u has decayed by 22 digits relative to its
    peak on both sides, then the step is halved until two consecutive
    refinements agree to rel_tol. Each node is evaluated once: the window
    samples are the coarse rule's nodes, and a halving evaluates g only at
    the new midpoints. A non-finite sample raises DomainError naming t.
    Returns the value and the last refinement difference as an error proxy.
    Integrands must vectorize over a float array of times, elementwise.
    """

    def g(u: np.ndarray) -> np.ndarray:
        t = np.exp(u)
        vals = np.asarray(f(t), dtype=complex) * t
        bad = np.flatnonzero(~np.isfinite(np.abs(vals)))
        if bad.size:
            raise DomainError(f"half-line integrand is non-finite at t = {float(t[bad[0]])!r}")
        return vals

    # expand the window at the coarse step until both tails are dead
    block = 16
    centre = g(np.array([0.0]))
    gmax = abs(complex(centre[0]))
    sides = []
    for direction in (-1.0, 1.0):
        edge = 0.0
        quiet = 0
        chunks = []
        while quiet < 2 and abs(edge) < _U_CAP:
            us = edge + direction * _H0 * (1 + np.arange(block))
            edge = float(us[-1])
            vals = g(us)
            chunks.append(vals)
            mag = np.abs(vals)
            gmax = max(gmax, float(mag.max()))
            quiet = quiet + 1 if float(mag.max()) <= 1e-22 * gmax else 0
        sides.append((edge, chunks))
    (lo, left), (hi, right) = sides
    # the window samples are g on the h0 grid lo, lo + h0, ..., hi; every
    # node is an exact binary fraction, so lo + i h == lo + 2i (h/2) and
    # each refinement sums the same nodes in the same order as a freshly
    # evaluated rule would
    vals = np.concatenate([c[::-1] for c in reversed(left)] + [centre] + right)
    prev = _H0 * complex(np.sum(vals))
    h = _H0
    diff = math.inf
    for _ in range(_MAX_HALVINGS):
        h *= 0.5
        finer = np.empty(2 * vals.size - 1, dtype=complex)
        finer[0::2] = vals
        finer[1::2] = g(np.arange(lo, hi + 0.5 * h, h)[1::2])
        vals = finer
        cur = h * complex(np.sum(vals))
        diff = abs(cur - prev)
        if diff <= rel_tol * max(abs(cur), 1e-300):
            return cur, diff
        prev = cur
    raise DomainError(
        f"half-line quadrature did not converge to rel_tol {rel_tol:g} "
        f"(last refinement difference {diff:.2e})"
    )
