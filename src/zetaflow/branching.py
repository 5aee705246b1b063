"""Restriction between the two compact factors and its inversion.

Restriction from the rank-n type B factor to the rank-n type D factor is
multiplicity free and governed by interlacing: tau restricts to exactly
those sigma with tau_1 >= sigma_1 >= tau_2 >= ... >= tau_n >= |sigma_n|,
with integer coordinate differences. Everything downstream (the plus/minus
split, the inversion coefficients, exterior-power decompositions) reduces
to bookkeeping over that fact, done here in exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .chars import weight_multiplicities
from .errors import ValidationError, ZetaflowError
from .weights import (
    GroupData,
    Weight,
    as_weight,
    check_integrality,
    is_dominant,
    validate_dominant,
    weyl_dim,
)

_MAX_PEELS = 64


@dataclass(frozen=True)
class VirtualRep:
    """Integer combination of irreducibles of one compact factor.

    ``family`` is "B" or "D"; ``terms`` maps highest weights to nonzero
    integer coefficients, stored sorted for stable iteration.
    """

    family: str
    terms: tuple[tuple[Weight, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for w, c in self.terms:
            if w in seen:
                raise ValidationError(f"duplicate weight {tuple(map(str, w))} in virtual rep")
            seen.add(w)
            if c == 0:
                raise ValidationError("zero coefficient in virtual rep")
            if not is_dominant(w, self.family):
                raise ValidationError(f"non-dominant weight {tuple(map(str, w))} in virtual rep")

    @classmethod
    def from_dict(cls, family: str, d: Mapping[Weight, int]) -> "VirtualRep":
        return cls(family, tuple(sorted((w, c) for w, c in d.items() if c != 0)))

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def __iter__(self) -> Iterator[tuple[Weight, int]]:
        return iter(self.terms)


def branching_multiplicity(tau: Sequence[object], sigma: Sequence[object]) -> int:
    """Multiplicity of the D-factor type ``sigma`` in ``tau`` restricted; 0 or 1."""
    t = as_weight(tau)
    s = as_weight(sigma)
    if len(t) != len(s):
        raise ValidationError(f"rank mismatch: tau has rank {len(t)}, sigma rank {len(s)}")
    check_integrality(t)
    check_integrality(s)
    validate_dominant(t, "B", "tau")
    validate_dominant(s, "D", "sigma")
    if (t[0] - s[0]).denominator != 1:
        raise ValidationError("tau and sigma lie in different integrality classes")
    n = len(t)
    for i in range(n - 1):
        if not (t[i] >= s[i] >= t[i + 1]):
            return 0
    return 1 if t[-1] >= abs(s[-1]) else 0


def branch_weights(tau: Sequence[object]) -> Iterator[Weight]:
    """All D-factor types appearing in the restriction of ``tau``, each once."""
    t = as_weight(tau)
    validate_dominant(t, "B", "tau")
    n = len(t)

    def ranges(i: int) -> list[Fraction]:
        lo = -t[n - 1] if i == n - 1 else t[i + 1]
        hi = t[i]
        vals = []
        c = hi
        while c >= lo:
            vals.append(c)
            c -= 1
        return vals

    for combo in itertools.product(*(ranges(i) for i in range(n))):
        ok = all(combo[i] >= combo[i + 1] for i in range(n - 2))
        if ok and (n < 2 or combo[n - 2] >= abs(combo[n - 1])):
            yield combo


def tau_pm_split(sigma: Sequence[object]) -> tuple[VirtualRep, VirtualRep]:
    """The pair of B-factor virtual reps attached to a type with sigma_n != 0.

    Candidates are nu - mu over mu in {0,1}^n where nu is the chamber
    version of sigma; candidates failing B-dominance have a Weyl-fixed
    shifted weight and contribute zero, so they are dropped exactly. Even
    flip count lands in the first slot, odd in the second. The defining
    identity, restriction of (plus - minus) equals sigma + w sigma, is the
    subject of the corresponding tests.
    """
    s = as_weight(sigma)
    check_integrality(s)
    validate_dominant(s, "D", "sigma")
    if s[-1] == 0:
        raise ValidationError("a Weyl-invariant type has no plus/minus splitting")
    n = len(s)
    nu = s[:-1] + (abs(s[-1]),)
    plus: dict[Weight, int] = {}
    minus: dict[Weight, int] = {}
    for mu in itertools.product((0, 1), repeat=n):
        cand = tuple(a - b for a, b in zip(nu, mu))
        if not is_dominant(cand, "B"):
            continue
        (plus if sum(mu) % 2 == 0 else minus)[cand] = 1
    return VirtualRep.from_dict("B", plus), VirtualRep.from_dict("B", minus)


def _order_key(w: Weight) -> tuple:
    return (sum(abs(c) for c in w), w)


def m_tau_coeffs(sigma: Sequence[object]) -> VirtualRep:
    """Invert restriction at a Weyl-invariant type: coefficients m_tau with
    sum_tau m_tau [tau restricted] equal to the delta at sigma.

    Greedy peeling from the top of the remainder, largest weight first in
    (coordinate magnitude sum, lex) order. Coefficients outside {-1, 0, 1}
    or more than 64 peels indicate corrupted input and raise.
    """
    s = as_weight(sigma)
    check_integrality(s)
    validate_dominant(s, "D", "sigma")
    if s[-1] != 0:
        raise ValidationError(
            "restriction inversion is defined for Weyl-invariant types only "
            "(last coordinate zero); use tau_pm_split otherwise"
        )
    remainder: dict[Weight, int] = {s: 1}
    coeffs: dict[Weight, int] = {}
    for _ in range(_MAX_PEELS):
        remainder = {w: c for w, c in remainder.items() if c != 0}
        if not remainder:
            result = VirtualRep.from_dict("B", coeffs)
            if any(abs(c) > 1 for _, c in result):
                raise ZetaflowError("inversion produced a coefficient outside {-1, 0, 1}")
            return result
        top = max(remainder, key=_order_key)
        tau = top[:-1] + (abs(top[-1]),)
        c = remainder[top]
        coeffs[tau] = coeffs.get(tau, 0) + c
        for sp in branch_weights(tau):
            remainder[sp] = remainder.get(sp, 0) - c
    raise ZetaflowError(f"restriction inversion did not terminate within {_MAX_PEELS} peels")


def exterior_decomposition(gd: GroupData, p: int) -> list[tuple[Weight, int]]:
    """Irreducible pieces of the p-th exterior power of the 2n-dimensional
    standard representation of the D factor, paired with the integer p.

    Peels the lexicographically largest dominant weight remaining in the
    exact weight multiset until it is exhausted; a dimension count guards
    the result. Computed once per (n, p); each call returns a new list.
    """
    n = gd.n
    if not 0 <= p <= 2 * n:
        raise ValidationError(f"exterior power degree {p} outside [0, {2 * n}]")
    return list(_peel_exterior_power(n, p))


@lru_cache
def _peel_exterior_power(n: int, p: int) -> tuple[tuple[Weight, int], ...]:
    zero = tuple(Fraction(0) for _ in range(n))
    basis = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
    lines = basis + [tuple(-c for c in b) for b in basis]
    multiset: dict[Weight, int] = {}
    for combo in itertools.combinations(lines, p):
        w = tuple(sum(col) for col in zip(*combo)) if combo else zero
        multiset[w] = multiset.get(w, 0) + 1

    out: list[tuple[Weight, int]] = []
    total = 0
    while multiset:
        psi = max(w for w in multiset if is_dominant(w, "D"))
        for w, m in weight_multiplicities("D", psi).items():
            left = multiset.get(w, 0) - m
            if left < 0:
                raise ZetaflowError("exterior power peeling went negative")
            if left:
                multiset[w] = left
            else:
                multiset.pop(w, None)
        out.append((psi, p))
        total += weyl_dim(psi, "D")
    if total != math.comb(2 * n, p):
        raise ZetaflowError("exterior power dimensions do not add up")
    return tuple(out)
