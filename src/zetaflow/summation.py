"""Deterministic series reduction.

Terms are summed serially in fixed 4096-element blocks: pairwise summation
inside a block, Neumaier compensation across block partials in index
order. The order depends only on the terms, so the result is bit-identical
from run to run. Hot reductions avoid BLAS on purpose; its internal
blocking can vary with thread count.

chunked_sum is the one reduction. A series too long to hold at once is
passed in chunks of CHUNK terms; CHUNK is a whole number of blocks, so the
chunks are block-aligned and every block partial, hence the sum, is the
same as for the whole array. A whole array is the one-chunk case; series
summed side by side keep their own partials and compensation, each the sum
it has alone. A chunk's whole blocks are summed by one reduction along the
rows of its (blocks, BLOCK) view, which sums each row as np.sum sums the
block alone, bit for bit; a trailing part block is summed on its own.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

BLOCK = 4096
# terms per chunk of a plan-sized kernel: bounds its temporaries to a few
# hundred kB whatever the number of powers
CHUNK = 4 * BLOCK


def _neumaier(s: float, c: float, x: float) -> tuple[float, float]:
    """One compensated step: the running sum s and its correction c after
    adding x."""
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


def chunked_sum(chunks: Iterable[Iterable[np.ndarray | None]], count: int) -> list[complex]:
    """Sum count series side by side deterministically: each chunk yields
    the next 1-d terms of series 0, ..., count - 1 in turn (None for none),
    each reduced before the next is read. Every chunk of a series but its
    last must be a whole number of blocks long; see module docstring."""
    sums = [[(0.0, 0.0), (0.0, 0.0)] for _ in range(count)]
    for chunk in chunks:
        for acc, v in zip(sums, chunk):
            if v is None:
                continue
            whole = v.size - v.size % BLOCK
            partials = [v[:whole].reshape(-1, BLOCK).sum(axis=1)] if whole else []
            if whole < v.size:
                partials.append(np.sum(v[whole:], keepdims=True))
            for part in partials:
                for x, y in zip(np.real(part).tolist(), np.imag(part).tolist()):
                    acc[:] = _neumaier(*acc[0], x), _neumaier(*acc[1], y)
    return [complex(re[0] + re[1], im[0] + im[1]) for re, im in sums]
