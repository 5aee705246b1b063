"""Characters of the compact factors at torus points.

Two independent evaluation routes are kept side by side. The alternant
route divides determinants built from sines and cosines (the Weyl character
formula in classical coordinates); it is cheap at regular angles but its
denominator vanishes on the singular set. The weight-multiset route expands
the character as a finite exponential sum with exact Freudenthal
multiplicities; it costs more per point but is valid everywhere, including
fully singular angles. The public evaluator inspects the denominator and
switches routes per point, and the two routes cross-validate each other in
the test suite.

Conventions: a weight mu pairs with an angle vector theta through
exp(i <mu, theta>). Angle vectors are taken literally; callers must not
reduce j * theta modulo 2 pi before evaluating at a power, since
half-integral (spinor) weights see the difference as a sign.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .weights import (
    Weight,
    as_weight,
    dominant_representative,
    dot,
    norm_sq,
    positive_roots,
    validate_dominant,
    weyl_dim,
    weyl_orbit_signs,
    weyl_vector,
)

_SINGULAR_TOL = 1e-4


def _in_positive_cone(delta: Sequence[Fraction], family: str) -> bool:
    """Is delta a nonnegative integer combination of simple roots?

    Simple roots are e_i - e_{i+1} plus e_n (B_n) or e_{n-1} + e_n (D_n);
    the coefficients solve triangularly from partial sums of delta.
    """
    n = len(delta)
    partial = Fraction(0)
    partials = []
    for c in delta:
        partial += c
        partials.append(partial)
    if family == "B":
        coeffs = partials
    else:
        if n == 1:
            return delta[0] == 0
        total = partials[-1]
        c_n = total / 2
        c_prev = (partials[-2] - delta[-1]) / 2
        coeffs = partials[: n - 2] + [c_prev, c_n]
    return all(c.denominator == 1 and c >= 0 for c in coeffs)


def _dominant_candidates(family: str, lam: Weight) -> list[Weight]:
    """Dominant weights mu with lam - mu in the positive root cone."""
    n = len(lam)
    top = lam[0]
    out: list[Weight] = []

    def build(prefix: tuple[Fraction, ...]) -> None:
        k = len(prefix)
        if k == n:
            if _in_positive_cone(tuple(a - b for a, b in zip(lam, prefix)), family):
                out.append(prefix)
            return
        hi = prefix[-1] if prefix else top
        last = k == n - 1
        lo = -hi if (last and family == "D") else Fraction(0)
        c = hi
        while c >= lo:
            build(prefix + (c,))
            c -= 1

    build(())
    return out


@lru_cache
def freudenthal_multiplicities(family: str, lam: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of the irreducible with highest
    weight ``lam``, computed by the Freudenthal recursion in exact arithmetic.
    The result is memoized and shared: callers must not mutate it.
    """
    validate_dominant(lam, family, "highest weight")
    n = len(lam)
    if family == "D" and n == 1:
        return {lam: 1}

    rho = weyl_vector(family, n)
    roots = positive_roots(family, n)
    lam_shift = norm_sq(tuple(a + b for a, b in zip(lam, rho)))
    lam_norm = norm_sq(lam)
    candidates = set(_dominant_candidates(family, lam))
    mults: dict[Weight, int] = {}

    def mult(mu: Weight) -> int:
        if mu == lam:
            return 1
        if mu not in candidates:
            return 0
        known = mults.get(mu)
        if known is not None:
            return known
        acc = Fraction(0)
        for alpha in roots:
            k = 1
            while True:
                nu = tuple(c + k * a for c, a in zip(mu, alpha))
                if norm_sq(nu) > lam_norm:
                    break
                m = mult(dominant_representative(nu, family))
                if m:
                    acc += 2 * m * dot(nu, alpha)
                k += 1
        den = lam_shift - norm_sq(tuple(a + b for a, b in zip(mu, rho)))
        if den == 0:
            # only reachable for lattice points outside the weight system
            value = 0
        else:
            q = acc / den
            if q.denominator != 1:
                raise ValidationError(
                    f"non-integer multiplicity at {tuple(map(str, mu))}"
                )
            value = int(q)
        mults[mu] = value
        return value

    return {mu: m for mu in candidates if (m := mult(mu)) != 0}


def weight_multiplicities(family: str, lam: Weight) -> dict[Weight, int]:
    """Full weight system of the irreducible: every weight with multiplicity,
    obtained by expanding the dominant multiplicities over the Weyl orbit
    (sign flips with the family parity rule, then coordinate permutations).
    """
    full: dict[Weight, int] = {}
    for mu, m in freudenthal_multiplicities(family, lam).items():
        seen: set[Weight] = set()
        for flipped in weyl_orbit_signs(mu, family):
            for perm in itertools.permutations(flipped):
                if perm not in seen:
                    seen.add(perm)
                    full[perm] = m
    return full


class CharacterTable:
    """A character packaged for fast repeated evaluation at many angle vectors.

    Stores the full weight system as float arrays. Evaluation loops over
    weights with vectorized elementwise work per weight, which keeps the
    reduction order fixed.
    """

    __slots__ = ("family", "rank", "highest", "dim", "_weights", "_mults")

    def __init__(self, family: str, highest: Weight, system: Mapping[Weight, int]):
        self.family = family
        self.rank = len(highest)
        self.highest = highest
        items = sorted(system.items())
        self._weights = np.array([[float(c) for c in mu] for mu, _ in items])
        self._mults = np.array([float(m) for _, m in items])
        self.dim = int(round(self._mults.sum()))

    def evaluate(self, angles: np.ndarray) -> np.ndarray:
        """Character values at ``angles`` of shape (..., rank)."""
        th = np.asarray(angles, dtype=float)
        if th.shape[-1] != self.rank:
            raise ValidationError(
                f"angle vectors of rank {th.shape[-1]} passed to a rank {self.rank} character"
            )
        out = np.zeros(th.shape[:-1], dtype=complex)
        for mu, m in zip(self._weights, self._mults):
            out += m * np.exp(1j * (th * mu).sum(axis=-1))
        return out

    def norm_bound(self) -> float:
        """sup over angles of |character|, attained at zero (all mults positive)."""
        return float(self._mults.sum())


def character_table(family: str, weight: Sequence[object]) -> CharacterTable:
    return _character_table(family, as_weight(weight))


@lru_cache
def _character_table(family: str, lam: Weight) -> CharacterTable:
    return CharacterTable(family, lam, weight_multiplicities(family, lam))


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
    route: str | None = None,
):
    """Irreducible character of highest weight ``weight`` at ``angles``.

    Parameters
    ----------
    weight : dominant highest weight, rank n.
    angles : array-like with trailing axis of length n; a bare length-n
        vector yields a scalar.
    family : "B" or "D".
    route : force "alternant" or "weights"; default (None) picks per point,
        falling back to the exact weight expansion wherever the alternant
        denominator is smaller than a fixed threshold. Any other value
        raises ValidationError.
    """
    if route not in (None, "alternant", "weights"):
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
        alternant = _alternant_b if family == "B" else _alternant_d
        num, den = alternant(lam, th)
        if route == "alternant":
            vals = num / den
        else:
            tol = _SINGULAR_TOL * math.factorial(n) * (2.0**n if family == "D" else 1.0)
            bad = np.abs(den) < tol
            vals = np.empty_like(num)
            vals[~bad] = num[~bad] / den[~bad]
            if bad.any():
                vals[bad] = character_table(family, lam).evaluate(th[bad])
    return complex(vals[0]) if scalar else vals.reshape(shape)
