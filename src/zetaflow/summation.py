"""Deterministic series reduction.

Terms are summed serially in fixed 4096-element blocks: pairwise summation
inside a block, Neumaier compensation across block partials in index
order. The order depends only on the array, so the result is bit-identical
from run to run. Hot reductions avoid BLAS on purpose; its internal
blocking can vary with thread count.
"""

from __future__ import annotations

import numpy as np

BLOCK = 4096


def _neumaier(parts: list[float]) -> float:
    s = 0.0
    c = 0.0
    for x in parts:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def block_sum(values: np.ndarray) -> complex:
    """Sum a 1-d array deterministically; see module docstring."""
    v = np.asarray(values)
    if v.size == 0:
        return 0j
    partials = [np.sum(v[i : i + BLOCK]) for i in range(0, v.size, BLOCK)]
    re = _neumaier([float(np.real(p)) for p in partials])
    im = _neumaier([float(np.imag(p)) for p in partials])
    return complex(re, im)
