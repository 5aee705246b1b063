import math

import numpy as np

from zetaflow.summation import chunked_sum


def _fsum_reference(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real), math.fsum(values.imag))


def test_block_sum_matches_compensated_reference():
    rng = np.random.default_rng(20)
    for size in (0, 1, 7, 4096, 4097, 30000):
        vals = rng.normal(size=size) * np.exp(rng.uniform(0, 20, size=size))
        vals = vals + 1j * rng.normal(size=size)
        got = chunked_sum((vals,))
        ref = _fsum_reference(vals)
        scale = np.abs(vals).sum() + 1.0
        assert abs(got - ref) <= 1e-15 * scale, size


def test_block_sum_survives_catastrophic_cancellation():
    rng = np.random.default_rng(21)
    big = rng.normal(size=5000) * 1e16
    vals = np.concatenate([big, -big, np.ones(3)]).astype(complex)
    rng.shuffle(vals)
    got = chunked_sum((vals,))
    ref = _fsum_reference(vals)
    # pairwise blocks cannot cancel exactly, but stay within a few ulps
    # of the summed magnitude
    assert abs(got - ref) <= 1e-12 * np.abs(vals).max()


def test_block_sum_is_worker_invariant(monkeypatch):
    rng = np.random.default_rng(22)
    vals = rng.normal(size=50000) + 1j * rng.normal(size=50000)
    vals *= np.exp(rng.uniform(0, 30, size=50000))
    results = set()
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("ZETAFLOW_THREADS", workers)
        results.add(chunked_sum((vals,)))
    assert len(results) == 1
