"""Characters of the compact factors at torus points.

Two independent evaluation routes are kept side by side. The alternant
route divides determinants built from sines and cosines (the Weyl character
formula in classical coordinates); it is cheap at regular angles but its
denominator vanishes on the singular set. The weight-multiset route expands
the character as a finite exponential sum with exact Freudenthal
multiplicities; it costs more per point but is valid everywhere, including
fully singular angles. The public evaluator takes the weight route unless
asked for the alternant, which the verify suite and the tests keep as an
independent reference. Weight-route tables evaluated together at the same
angles (evaluate_all) share one exponential per distinct weight, and a
weight whose negative is also held takes the conjugate of that term
instead, so the products of the factorization exponentiate about half of
{-1, 0, 1}^n per power whatever their number.

A weight system comes from two closures: the dominant weights below the
highest weight, reached by lowering it by positive roots while it stays
dominant, carry the Freudenthal multiplicities, and each spreads over its
Weyl orbit, the closure of the weight under the simple reflections. Both
closures, and a table's weight sort, run on doubled coordinates, tuples
of ints; only weight_multiplicities returns Fraction weights.

Conventions: a weight mu pairs with an angle vector theta through
exp(i <mu, theta>). Angle vectors are taken literally; callers must not
reduce j * theta modulo 2 pi before evaluating at a power, since
half-integral (spinor) weights see the difference as a sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .summation import BLOCK
from .weights import (
    Weight,
    as_weight,
    closure,
    dominant_representative,
    dot,
    is_dominant,
    norm_sq,
    positive_roots,
    validate_dominant,
    weyl_orbit,
    weyl_vector,
)


# a weight with every coordinate doubled: ints, as every coordinate is
# half-integral
Doubled = tuple[int, ...]


def _doubled(w: Weight) -> Doubled:
    return tuple(int(2 * c) for c in w)


def freudenthal_multiplicities(family: str, lam: Weight) -> dict[Doubled, int]:
    """Multiplicities of the dominant weights of the irreducible with highest
    weight ``lam``, in doubled coordinates, computed by the Freudenthal
    recursion in exact integer arithmetic: doubling scales every pairing,
    hence the recursion's sum and its denominator alike, by 4.

    The candidates are the closure of {lam} under the steps mu -> mu - alpha,
    alpha a positive root, that stay dominant: that closure is every
    dominant mu <= lam (Stembridge, The partial order of dominant weights,
    Adv. Math. 136 (1998)). For every candidate mu != lam,
    |mu + rho| < |lam + rho|, so the recursion's denominator is positive;
    its quotient is the multiplicity, an integer (Humphreys, Introduction
    to Lie Algebras and Representation Theory, 13.4 and 22.3). Each call
    computes a new dict.
    """
    validate_dominant(lam, family, "highest weight")
    n = len(lam)
    rho = _doubled(weyl_vector(family, n))
    roots = [tuple(2 * a for a in alpha) for alpha in positive_roots(family, n)]
    top = _doubled(lam)
    top_shift = norm_sq(tuple(a + b for a, b in zip(top, rho)))
    top_norm = norm_sq(top)

    def lowered(mu: Doubled) -> Iterator[Doubled]:
        for alpha in roots:
            nu = tuple(c - a for c, a in zip(mu, alpha))
            if is_dominant(nu, family):
                yield nu

    mults = {top: 1}
    # the recursion at mu reads only dominant weights above mu, which pair
    # more with rho, so they come first
    for mu in sorted(closure(top, lowered) - {top}, key=lambda mu: dot(mu, rho), reverse=True):
        acc = 0
        for alpha in roots:
            k = 1
            while norm_sq(nu := tuple(c + k * a for c, a in zip(mu, alpha))) <= top_norm:
                if m := mults.get(dominant_representative(nu, family), 0):
                    acc += 2 * m * dot(nu, alpha)
                k += 1
        mults[mu] = acc // (top_shift - norm_sq(tuple(a + b for a, b in zip(mu, rho))))
    return {mu: m for mu, m in mults.items() if m}


def _weight_system(family: str, lam: Weight) -> dict[Doubled, int]:
    """weight_multiplicities in doubled coordinates."""
    return {nu: m for mu, m in freudenthal_multiplicities(family, lam).items()
            for nu in weyl_orbit(mu, family)}


def weight_multiplicities(family: str, lam: Weight) -> dict[Weight, int]:
    """Full weight system of the irreducible: every weight with multiplicity,
    each dominant multiplicity spread over the Weyl orbit of its weight, the
    weight's closure under the simple reflections.
    """
    return {tuple(Fraction(c, 2) for c in nu): m for nu, m in _weight_system(family, lam).items()}


class CharacterTable:
    """A character packaged for fast repeated evaluation at many angle vectors.

    Stores the full weight system, given in doubled coordinates, as float
    arrays, sorted. Evaluation is evaluate_all of this one table: it adds
    the weights' terms in sorted order with vectorized elementwise work per
    weight, which keeps the reduction order fixed. Tables evaluated
    together share the term of each distinct weight, and the term of -mu is
    the conjugate of the term of mu.
    """

    __slots__ = ("family", "rank", "highest", "_weights", "_mults")

    def __init__(self, family: str, highest: Weight, system: Mapping[Doubled, int]):
        self.family = family
        self.rank = len(highest)
        self.highest = highest
        items = sorted(system.items())
        self._weights = np.array([mu for mu, _ in items], dtype=float) / 2.0
        self._mults = np.array([float(m) for _, m in items])

    def evaluate(self, angles: np.ndarray) -> np.ndarray:
        """Character values at ``angles`` of shape (..., rank)."""
        return evaluate_all((self,), angles)[0]

    def norm_bound(self) -> float:
        """sup over angles of |character|, attained at zero (all mults positive)."""
        return float(self._mults.sum())


def evaluate_all(tables: Sequence[CharacterTable], angles: np.ndarray) -> list[np.ndarray]:
    """The values of each table at ``angles`` of shape (..., rank), bit for
    bit those of evaluating the tables one at a time.

    The weights of all the tables are walked once, in the sorted order of
    their union, of which each table's sorted weights are a subsequence: a
    table adds m * exp(i <mu, theta>) in its own order, and the term of a
    weight is made once, however many tables hold it. The term of -mu is
    the conjugate of the term of mu, made first: <-mu, theta> is
    -<mu, theta> and exp(-i phi) is conj(exp(i phi)), bit for bit, and a
    sum that starts at +0 absorbs the sign of a zero part. The rows go
    summation.BLOCK at a time, so the terms waiting for their conjugate
    hold one block.
    """
    th = np.asarray(angles, dtype=float)
    for t in tables:
        if th.shape[-1] != t.rank:
            raise ValidationError(
                f"angle vectors of rank {th.shape[-1]} passed to a rank {t.rank} character"
            )
    rows = th.reshape(-1, th.shape[-1])
    outs = [np.zeros(len(rows), dtype=complex) for _ in tables]
    # the tables that hold each distinct weight, with its multiplicity there
    holders: dict[tuple[float, ...], list[tuple[np.ndarray, float]]] = {}
    for out, t in zip(outs, tables):
        for mu, m in zip(t._weights.tolist(), t._mults.tolist()):
            holders.setdefault(tuple(mu), []).append((out, m))
    weights = sorted(holders)
    # each pair of opposite weights held by some tables shares a row of
    # terms: the first exponentiates into it, the second conjugates it in
    # place; the last row is for the weights without a partner
    pairs = {mu: neg for mu in weights if (neg := tuple(-c for c in mu)) in holders and neg > mu}
    seconds = set(pairs.values())
    slot = {w: k for k, pair in enumerate(pairs.items()) for w in pair}
    # buffers shared by all blocks, so the loop allocates nothing
    width = min(BLOCK, len(rows))
    phase, product, scaled = np.empty(width), np.empty(width), np.empty(width, dtype=complex)
    terms = np.empty((len(pairs) + 1, width), dtype=complex)
    for start in range(0, len(rows), BLOCK):
        block = slice(start, start + BLOCK)
        cols = rows[block].T
        n = cols.shape[1]
        ph, pr, sc, tm = phase[:n], product[:n], scaled[:n], terms[:, :n]
        for mu in weights:
            term = tm[slot.get(mu, -1)]
            if mu in seconds:
                np.conjugate(term, out=term)
            else:
                # <mu, theta> adds the column products left to right, the
                # order numpy sums so short an axis in
                np.multiply(cols[0], mu[0], out=ph)
                for col, c in zip(cols[1:], mu[1:]):
                    ph += np.multiply(col, c, out=pr)
                np.exp(np.multiply(ph, 1j, out=term), out=term)
            for out, m in holders[mu]:
                out[block] += np.multiply(term, m, out=sc)
    return [out.reshape(th.shape[:-1]) for out in outs]


def character_table(family: str, weight: Sequence[object]) -> CharacterTable:
    return _character_table(family, as_weight(weight))


@lru_cache
def _character_table(family: str, lam: Weight) -> CharacterTable:
    return CharacterTable(family, lam, _weight_system(family, lam))


def _batched_det(entries: np.ndarray) -> np.ndarray:
    # entries: (..., n, n)
    if entries.shape[-1] == 1:
        return entries[..., 0, 0]
    return np.linalg.det(entries)


def _alternant_b(lam: Weight, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(lam)
    rho = weyl_vector("B", n)
    l = np.array([float(a + b) for a, b in zip(lam, rho)])
    m = np.array([float(b) for b in rho])
    num = _batched_det(np.sin(th[..., :, None] * l[None, :]))
    den = _batched_det(np.sin(th[..., :, None] * m[None, :]))
    return num + 0j, den


def _alternant_d(lam: Weight, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(lam)
    rho = weyl_vector("D", n)
    l = np.array([float(a + b) for a, b in zip(lam, rho)])
    m = np.array([float(b) for b in rho])
    args_l = th[..., :, None] * l[None, :]
    num = _batched_det(2 * np.cos(args_l)) + (1j**n) * _batched_det(2 * np.sin(args_l))
    den = _batched_det(2 * np.cos(th[..., :, None] * m[None, :]))
    return num, den


def weyl_character(
    weight: Sequence[object],
    angles: Iterable[float] | np.ndarray,
    family: str,
    *,
    route: str = "weights",
):
    """Irreducible character of highest weight ``weight`` at ``angles``.

    Parameters
    ----------
    weight : dominant highest weight, rank n.
    angles : array-like with trailing axis of length n; a bare length-n
        vector yields a scalar.
    family : "B" or "D".
    route : "weights" (default), the exact weight expansion, valid at every
        angle; or "alternant", the Weyl quotient, whose denominator vanishes
        on the singular set. Any other value raises ValidationError.
    """
    if route not in ("alternant", "weights"):
        raise ValidationError(
            f"unknown character route {route!r}; expected 'alternant' or 'weights'"
        )
    lam = as_weight(weight)
    validate_dominant(lam, family, "weight")
    n = len(lam)
    th = np.asarray(angles, dtype=float)
    scalar = th.ndim == 1
    if th.shape[-1] != n:
        raise ValidationError(f"expected angle vectors of rank {n}, got shape {th.shape}")
    shape = th.shape[:-1]
    th = th.reshape(-1, n)

    if route == "weights":
        vals = character_table(family, lam).evaluate(th)
    else:
        num, den = (_alternant_b if family == "B" else _alternant_d)(lam, th)
        vals = num / den
    return complex(vals[0]) if scalar else vals.reshape(shape)
