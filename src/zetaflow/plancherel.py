"""Plancherel polynomials and spectral shift constants.

For each type sigma of the rank-n D factor the tempered Plancherel density
is an even polynomial in the spectral parameter: the product of the
positive-root pairings of (z, nu_sigma + rho_m) in rank n+1 coordinates,
normalized by the same product at the half-sum. Coefficients are computed
as exact rationals and only converted to floats at the dataclass boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .weights import GroupData, Weight, norm_sq


@dataclass(frozen=True)
class PlancherelPolynomial:
    """Even polynomial P(z) = sum_m coeffs[m] z^{2m}.

    ``coeffs`` runs over even powers only, so the z-degree is
    2 (len(coeffs) - 1). The exact rational coefficients are kept
    alongside the float views for downstream exact work.
    """

    coeffs: tuple[complex, ...]
    exact: tuple[Fraction, ...]

    def __call__(self, z: complex) -> complex:
        u = z * z
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def evaluate_many(self, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        return horner(self.coeffs, zz * zz)


def horner(coeffs: Sequence[complex], u, dtype=complex) -> np.ndarray:
    """sum_m coeffs[m] u^m at every entry of u by Horner's rule,
    acc = acc * u + c from the highest coefficient down, starting from
    zeros of dtype, which must hold every product and coefficient. The
    steps run in place but on one entry: numpy (2.4.6) rounds a complex
    product of one element in place unlike the same one into a new array."""
    acc = np.zeros(np.shape(u), dtype=dtype)
    for c in reversed(coeffs):
        acc = np.multiply(acc, u, out=acc if acc.size > 1 else None)
        acc += c
    return acc


def _exact_coeffs(gd: GroupData, sigma: Weight) -> tuple[Fraction, ...]:
    n = gd.n
    w = tuple(a + b for a, b in zip(sigma, gd.rho_m))
    rho_g = gd.rho_g
    denom = Fraction(1)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            denom *= rho_g[i] ** 2 - rho_g[j] ** 2
    const = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            const *= w[i] ** 2 - w[j] ** 2
    # expand prod_j (u - w_j^2) in u = z^2
    poly = [const / denom]
    for wj in w:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] -= c * wj**2
            nxt[k + 1] += c
        poly = nxt
    return tuple(poly)


def plancherel_polynomial(gd: GroupData, sigma: Sequence[object]) -> PlancherelPolynomial:
    """The even degree-2n Plancherel polynomial attached to ``sigma``."""
    exact = _exact_coeffs(gd, gd.validate_m_weight(sigma))
    return PlancherelPolynomial(tuple(complex(c) for c in exact), exact)


def c_sigma(gd: GroupData, sigma: Sequence[object]) -> Fraction:
    """Spectral shift: |nu_sigma + rho_m|^2 - |rho|^2 - |rho_m|^2, exact."""
    s = gd.validate_m_weight(sigma)
    shifted = tuple(a + b for a, b in zip(s, gd.rho_m))
    return norm_sq(shifted) - Fraction(gd.rho_norm) ** 2 - norm_sq(gd.rho_m)
