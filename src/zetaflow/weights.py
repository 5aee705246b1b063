"""Exact root data for Spin(2n+2), Spin(2n+1) and Spin(2n).

Weights live in the standard orthonormal coordinates of the respective
Cartan subalgebras and are stored as tuples of ``Fraction``, so dominance
tests, Weyl dimension formulas and shifted norms are exact. Three root
systems appear: B_n for the maximal compact factor Spin(2n+1), D_n for the
centralizer factor Spin(2n), and D_{n+1} for the half-sum attached to the
ambient noncompact group.

A weight is valid when its coordinates are simultaneously integers or
simultaneously half-odd-integers; mixing the two lattices is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError

Weight = tuple[Fraction, ...]

HALF = Fraction(1, 2)


def _coerce_coord(c: object) -> Fraction:
    try:
        return Fraction(c)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"weight coordinate {c!r} is not rational") from exc


def as_weight(coords: Iterable[object]) -> Weight:
    """Coerce a coordinate sequence to an exact weight tuple.

    Accepts ints, Fractions, strings like ``"3/2"``, and floats that are
    exactly half-integral. Raises ``ValidationError`` on a NaN or infinite
    coordinate, on one that is not half-integral, and on mixed integrality.
    """
    w = tuple(_coerce_coord(c) for c in coords)
    check_integrality(w)
    return w


def check_integrality(w: Weight) -> None:
    """All coordinates integral, or all half-odd-integral."""
    if not w:
        raise ValidationError("weight must have positive rank")
    kinds = set()
    for c in w:
        if c.denominator == 1:
            kinds.add(0)
        elif c.denominator == 2:
            kinds.add(1)
        else:
            raise ValidationError(f"weight coordinate {c} is not half-integral")
    if len(kinds) > 1:
        raise ValidationError(
            f"weight {tuple(map(str, w))} mixes integer and half-integer coordinates"
        )


def is_dominant(w: Weight, family: str) -> bool:
    """Dominance in the standard chamber of B_n (``"B"``) or D_n (``"D"``).

    B_n: w1 >= w2 >= ... >= wn >= 0.
    D_n: w1 >= w2 >= ... >= w_{n-1} >= |wn|; every rank-1 weight is
    D_1-dominant (the chamber condition is vacuous).
    """
    n = len(w)
    if any(w[i] < w[i + 1] for i in range(n - 2)):
        return False
    if family == "B":
        return (n < 2 or w[-2] >= w[-1]) and w[-1] >= 0
    if family == "D":
        return n < 2 or w[-2] >= abs(w[-1])
    raise ValidationError(f"unknown root system family {family!r}")


def validate_dominant(w: Weight, family: str, what: str) -> None:
    check_integrality(w)
    if not is_dominant(w, family):
        raise ValidationError(
            f"{what} {tuple(map(str, w))} is not dominant for {family}_{len(w)}"
        )


def positive_roots(family: str, n: int) -> list[tuple[int, ...]]:
    """Positive roots in e_i coordinates: e_i +- e_j (i<j), plus e_i for B_n."""
    roots: list[tuple[int, ...]] = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                r = [0] * n
                r[i] = 1
                r[j] = sign
                roots.append(tuple(r))
    if family == "B":
        for i in range(n):
            r = [0] * n
            r[i] = 1
            roots.append(tuple(r))
    elif family != "D":
        raise ValidationError(f"unknown root system family {family!r}")
    return roots


def weyl_vector(family: str, n: int) -> Weight:
    """Half-sum of positive roots: (n-1/2, ..., 1/2) for B_n, (n-1, ..., 0) for D_n."""
    if family == "B":
        return tuple(Fraction(2 * (n - i) - 1, 2) for i in range(n))
    if family == "D":
        return tuple(Fraction(n - 1 - i) for i in range(n))
    raise ValidationError(f"unknown root system family {family!r}")


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(u: Sequence[Fraction]) -> Fraction:
    return dot(u, u)


def weyl_dim(w: Weight, family: str) -> int:
    """Dimension of the irreducible with highest weight ``w`` (Weyl formula)."""
    validate_dominant(w, family, "highest weight")
    n = len(w)
    rho = weyl_vector(family, n)
    shifted = tuple(a + b for a, b in zip(w, rho))
    num = Fraction(1)
    den = Fraction(1)
    for alpha in positive_roots(family, n):
        num *= dot(shifted, alpha)
        den *= dot(rho, alpha)
    # a positive integer for dominant w (Humphreys, 24.3)
    return int(num / den)


def closure(start: Weight, images: Callable[[Weight], Iterable[Weight]]) -> set[Weight]:
    """The smallest set that holds ``start`` and every image of its members."""
    found, todo = {start}, [start]
    while todo:
        new = set(images(todo.pop())) - found
        found |= new
        todo += new
    return found


def weyl_orbit(w: Weight, family: str) -> set[Weight]:
    """The Weyl orbit of ``w``: its closure under the simple reflections,
    at a cost that follows the orbit's size, not the group's order n! 2^n.

    These swap adjacent coordinates, and negate the last coordinate (B_n)
    or swap the last two and negate both (D_n, n >= 2; D_1's Weyl group
    is trivial).
    """
    n = len(w)

    def reflections(v: Weight) -> Iterator[Weight]:
        for i in range(n - 1):
            yield v[:i] + (v[i + 1], v[i]) + v[i + 2 :]
        if family == "B":
            yield v[:-1] + (-v[-1],)
        elif n >= 2:
            yield v[:-2] + (-v[-1], -v[-2])

    return closure(w, reflections)


def dominant_representative(w: Weight, family: str) -> Weight:
    """Chamber representative of the Weyl orbit of ``w``.

    For B_n: absolute values sorted decreasingly. For D_n the same, except
    the last coordinate keeps a sign recording the parity of the flips when
    no coordinate vanishes.
    """
    mags = sorted((abs(c) for c in w), reverse=True)
    if family == "B":
        return tuple(mags)
    negs = sum(1 for c in w if c < 0)
    if mags[-1] != 0 and negs % 2 == 1:
        mags[-1] = -mags[-1]
    return tuple(mags)


@dataclass(frozen=True)
class GroupData:
    """Structural constants of the rank-n setup attached to dimension d = 2n+1.

    Attributes
    ----------
    d : odd ambient dimension, at least 3.
    n : common rank of the compact factors, d = 2n + 1.
    rho_norm : half-sum size |rho| = n entering every exponential rate.
    rho_g : half-sum in rank n+1 coordinates, (n, n-1, ..., 0).
    rho_m : half-sum in rank n coordinates, (n-1, ..., 0); the single
        entry 0 when n = 1.
    """

    d: int

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, int):
            raise ValidationError(f"d must be an int, got {self.d!r}")
        if self.d < 3 or self.d % 2 == 0:
            raise ValidationError(f"d must be odd and >= 3, got {self.d}")

    @property
    def n(self) -> int:
        return (self.d - 1) // 2

    @property
    def rho_norm(self) -> int:
        return self.n

    @property
    def rho_g(self) -> Weight:
        return weyl_vector("D", self.n + 1)

    @property
    def rho_m(self) -> Weight:
        return weyl_vector("D", self.n)

    def validate_m_weight(self, w: Sequence[object]) -> Weight:
        """Dominance for the rank-n factor of type D (highest weights of Spin(d-1))."""
        ww = as_weight(w)
        if len(ww) != self.n:
            raise ValidationError(f"expected rank {self.n} weight, got rank {len(ww)}")
        validate_dominant(ww, "D", "weight")
        return ww


def weyl_action(sigma: Sequence[object]) -> Weight:
    """The outer reflection on rank-n type D weights: negate the last coordinate.

    An involution; fixes exactly the weights with vanishing last coordinate,
    and preserves D-dominance.
    """
    w = as_weight(sigma)
    return w[:-1] + (-w[-1],)
