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


# evaluate_all's temporaries of one pass at most, in floats (1 MB); a pass
# of _WIDE rows or more adds each table's terms a weight at a time, which
# takes a Python step per weight, a narrower one by np.add.accumulate, which
# takes a C call per row: they break even at 128 to 256 rows
_FLOATS = 1 << 17
_WIDE = 256

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
    arrays, sorted. Evaluation is evaluate_all of this one table, which adds
    the weights' terms in sorted order.
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


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(a, axis=0, return_inverse=True) of a 2-d a, from one lexsort
    and a column at a time: np.unique sorts whole rows as structured items,
    which on the 171,203 weights of rank 10 at d = 21 peaks at 35 MB against
    8 MB, and takes 11 times as long."""
    order = np.lexsort(a.T[::-1])
    new = np.arange(len(a)) == 0
    for col in a.T:
        new[1:] |= np.diff(col[order]) != 0
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


class TableSet(tuple):
    """CharacterTables evaluated together at many angle arrays, with the
    weight layout evaluate_all reads, made once: the distinct weights,
    sorted, those whose terms are made, each table's weights as rows among
    them and which of those take a conjugate."""

    def __new__(cls, tables: Iterable[CharacterTable]) -> "TableSet":
        self = super().__new__(cls, tables)
        if not self:
            return self
        # the distinct weights, sorted, and where each one's negative sorts
        # among them, by the keys of both together (to which -0.0 is 0.0)
        weights, where = _distinct_rows(np.concatenate([t._weights for t in self]))
        key = _distinct_rows(np.concatenate([weights, -weights]))[1]
        own, other = np.split(key, 2)
        negative = np.searchsorted(own, other)
        conjugate = negative < np.arange(len(own))
        conjugate[conjugate] = own[negative[conjugate]] == other[conjugate]
        # the weights whose terms are made, and each weight's term among them
        self.mu = weights[~conjugate]
        row = np.cumsum(~conjugate) - 1
        row[conjugate] = row[negative[conjugate]]
        ends = np.cumsum([len(t._weights) for t in self])[:-1]
        self.pieces = list(zip(np.split(row[where], ends), np.split(conjugate[where], ends), self))
        # a row's temporaries, each freed once read: terms, phases, one table's scaled terms
        self.floats = 3 * len(self.mu) + 2 * max(len(t._weights) for t in self)
        return self


def evaluate_all(tables: Sequence[CharacterTable], angles: np.ndarray) -> list[np.ndarray]:
    """The values of each table at ``angles`` of shape (..., rank), bit for
    bit those of evaluating the tables one at a time.

    Each table adds m * exp(i <mu, theta>) in its own sorted order from +0,
    and a weight's term is made once, however many tables hold it; a weight
    whose negative sorts first takes the conjugate of that one's term, as
    exp(-i phi) is conj(exp(i phi)) bit for bit and a sum from +0 absorbs
    the sign of a zero part. A TableSet brings its weight layout; other
    tables are laid out for this call. A pass over the rows holds at most
    _FLOATS floats of temporaries; one of _WIDE rows or more adds a weight
    at a time, a narrower one by np.add.accumulate, the same additions in
    the same order.
    """
    th = np.asarray(angles, dtype=float)
    for t in tables:
        if th.shape[-1] != t.rank:
            raise ValidationError(
                f"angle vectors of rank {th.shape[-1]} passed to a rank {t.rank} character"
            )
    if not tables:
        return []
    layout = tables if isinstance(tables, TableSet) else TableSet(tables)
    mu = layout.mu
    rows = th.reshape(-1, th.shape[-1])
    outs = [np.zeros(len(rows), dtype=complex) for _ in tables]
    width = max(1, min(len(rows), _FLOATS // layout.floats))
    for start in range(0, len(rows), width):
        block = slice(start, start + width)
        cols = rows[block].T
        terms = np.empty((len(mu), cols.shape[1]), dtype=complex)
        # <mu, theta> adds the column products left to right, the order numpy
        # sums so short an axis in; each product is made in the terms' buffer
        phase = np.multiply(cols[0], mu[:, :1])
        for c, col in enumerate(cols[1:], 1):
            phase += np.multiply(col, mu[:, c:c + 1], out=terms.real)
        np.exp(np.multiply(phase, 1j, out=terms), out=terms)
        del phase
        scaled = np.empty(cols.shape[1], dtype=complex)
        for out, (source, conj, t) in zip(outs, layout.pieces):
            if len(scaled) >= _WIDE:
                total = out[block]
                for k, c, m in zip(source.tolist(), conj.tolist(), t._mults.tolist()):
                    term = np.conjugate(terms[k], out=scaled) if c else terms[k]
                    total += np.multiply(term, m, out=scaled)
            else:
                part = terms[source]
                np.conjugate(part, out=part, where=conj[:, None])
                np.multiply(part, t._mults[:, None], out=part)
                out[block] += np.add.accumulate(part, axis=0, out=part)[-1]
                del part
        del terms
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
