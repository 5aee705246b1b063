"""Restriction between the two compact factors and its inversion.

Restriction from the rank-n type B factor to the rank-n type D factor is
multiplicity free and governed by interlacing: tau restricts to exactly
those sigma with tau_1 >= sigma_1 >= tau_2 >= ... >= tau_n >= |sigma_n|,
with integer coordinate differences. The plus/minus split and the
inversion coefficients are closed forms read off that fact: signed sums of
sigma - mu over mu in {0,1}^n, whose restrictions cancel in pairs. The
exterior powers of the standard representation of the D factor are closed
forms too, one highest weight (1^q, 0^(n-q)) per power except two in the
middle degree. A virtual representation is a plain dict from highest
weight to nonzero integer coefficient, sorted by weight. Everything is
exact arithmetic over ``weights`` alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ValidationError
from .weights import (
    GroupData,
    Weight,
    as_weight,
    is_dominant,
    validate_dominant,
)


def branching_multiplicity(tau: Sequence[object], sigma: Sequence[object]) -> int:
    """Multiplicity of the D-factor type ``sigma`` in ``tau`` restricted; 0 or 1."""
    t = as_weight(tau)
    s = as_weight(sigma)
    if len(t) != len(s):
        raise ValidationError(f"rank mismatch: tau has rank {len(t)}, sigma rank {len(s)}")
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
    """All D-factor types appearing in the restriction of ``tau``, each once.

    sigma_i runs down from tau_i to tau_{i+1} for i < n, and sigma_n from
    tau_n to -tau_n, in unit steps. Every point of that box interlaces, as
    sigma_i >= tau_{i+1} >= sigma_{i+1} and sigma_{n-1} >= tau_n >= |sigma_n|,
    so each one is D-dominant.
    """
    t = as_weight(tau)
    validate_dominant(t, "B", "tau")
    lows = t[1:] + (-t[-1],)
    steps = [[hi - k for k in range(int(hi - lo) + 1)] for hi, lo in zip(t, lows)]
    return itertools.product(*steps)


def _signed_candidates(nu: Weight) -> Iterator[tuple[Weight, int]]:
    """B-dominant nu - mu over mu in {0,1}^n, each with the sign (-1)^|mu|."""
    for mu in itertools.product((0, 1), repeat=len(nu)):
        cand = tuple(a - b for a, b in zip(nu, mu))
        if is_dominant(cand, "B"):
            yield cand, -1 if sum(mu) % 2 else 1


def tau_pm_split(sigma: Sequence[object]) -> tuple[dict[Weight, int], dict[Weight, int]]:
    """The pair of B-factor virtual reps attached to a type with sigma_n != 0,
    each a map from highest weight to coefficient, sorted by weight.

    Closed form: with nu the chamber version of sigma, plus holds the
    B-dominant nu - mu over mu in {0,1}^n with an even count of ones and
    minus those with an odd count, each with coefficient 1. Why the
    restriction of (plus - minus) is sigma + w sigma: a D type sigma' lies
    in the restriction of nu - mu exactly when nu_{i+1} - mu_{i+1} <=
    sigma'_i <= nu_i - mu_i for i < n and |sigma'_n| <= nu_n - mu_n. Unless
    sigma' agrees with nu up to the sign of its last coordinate, there is a
    first index where sigma' falls below nu (in absolute value at n), and
    flipping mu there keeps sigma' in the box and flips the sign, so such
    points cancel. The two remaining points need mu = 0. A candidate that
    fails B-dominance has an empty box, so dropping it changes nothing.
    """
    s = as_weight(sigma)
    validate_dominant(s, "D", "sigma")
    if s[-1] == 0:
        raise ValidationError("a Weyl-invariant type has no plus/minus splitting")
    signed = sorted(_signed_candidates(s[:-1] + (abs(s[-1]),)))
    return {w: 1 for w, sign in signed if sign > 0}, {w: 1 for w, sign in signed if sign < 0}


def m_tau_coeffs(sigma: Sequence[object]) -> dict[Weight, int]:
    """Invert restriction at a Weyl-invariant type: the map tau -> m_tau,
    sorted by tau, with sum_tau m_tau [tau restricted] equal to the delta at
    sigma.

    Closed form: m_tau = (-1)^|mu| for tau = sigma - mu, mu in {0,1}^n,
    over the tau that are B-dominant; mu_n = 1 would make tau_n = -1, so
    only the first n - 1 coordinates move. Why it holds: a tau with
    tau_n = 0 restricts to the box tau_{i+1} <= sigma'_i <= tau_i with
    sigma'_n = 0. Pairing mu_i = 0 with mu_i = 1 at the first index where
    sigma' falls below sigma keeps sigma' in the box and flips the sign, so
    every point but sigma cancels, and sigma itself needs mu = 0. A dropped
    candidate's box is empty. Restriction between the two factors is
    injective (they share a maximal torus), so this inverse is the only one.
    """
    s = as_weight(sigma)
    validate_dominant(s, "D", "sigma")
    if s[-1] != 0:
        raise ValidationError(
            "restriction inversion is defined for Weyl-invariant types only "
            "(last coordinate zero); use tau_pm_split otherwise"
        )
    return dict(sorted(_signed_candidates(s)))


def exterior_decomposition(gd: GroupData, p: int) -> list[Weight]:
    """Highest weights of the irreducible pieces of the p-th exterior power
    of the 2n-dimensional standard representation of the D factor.

    Closed form: with q = min(p, 2n - p), the piece is the highest weight
    (1^q, 0^(n-q)), except that at q = n there are two, (1^n) and then
    (1^(n-1), -1). Why: the volume form identifies the p-th and (2n-p)-th
    powers; below the middle degree the power is irreducible with highest
    weight e_1 + ... + e_q, and the middle power splits into its self-dual
    and anti-self-dual halves. Each call returns a new list.
    """
    n = gd.n
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValidationError(f"exterior power degree: expected an integer, got {p!r}")
    if not 0 <= p <= 2 * n:
        raise ValidationError(f"exterior power degree {p} outside [0, {2 * n}]")
    q = min(p, 2 * n - p)
    top = tuple(Fraction(1 if i < q else 0) for i in range(n))
    if q < n:
        return [top]
    return [top, top[:-1] + (Fraction(-1),)]
