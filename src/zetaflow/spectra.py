"""Length spectra, their power enumerations, and eigenvalue spectra.

The geometric side of every identity in this package consumes a
LengthSpectrum: columns of class lengths l0 (N,), holonomy angles for the
rank-n torus (N, n) and twist matrices chi (N, dim_chi, dim_chi), built
and read as whole arrays. The spectral side consumes an
EigenSpectrum of complex eigenvalue parameters with multiplicities. Both
round-trip through JSON documents with full validation, and a synthesizer
produces reproducible fake spectra with the right counting growth for
tests and demos.

Every evaluation at a cutoff lmax reads one prepared plan per
(spectrum, lmax), returned by LengthSpectrum.power_table: the power
enumeration with the count J_c of each class's powers, plus everything
that does not depend on the evaluation point (det terms, character
products, heat prefactors) and the refusals that depend on (spectrum,
lmax) alone; the evaluators only read it. A document lists finitely many
classes, so a cutoff drops only the powers j > J_c of each, and the plan's
class_tail bounds them by one closed-form geometric tail per class. The
plan stores four columns per power in 32 bytes: length (float64), j and
class index (int32) and twist trace (complex128). The class length l0,
1/j and the power angles j * theta are rebuilt from them for one chunk of
summation.CHUNK powers at a time, by the same arithmetic, so every
plan-sized computation holds temporaries of one chunk only; the build
makes the traces a chunk at a time and frees each sorting column once
read, so it peaks below 40 bytes a power. A spectrum keeps its few most
recently used plans, a plan those products and prefactors for its most
recently used twists. What no cutoff affects, the spectrum makes once and
every plan reads: the twist eigenvalues with a well-conditioned mask,
r_c = max(1, ||chi_c||_2) and the growth rate.

Angle conventions: primitive angles are canonicalized into [0, 2 pi) when
a spectrum is loaded or synthesized, which fixes the spin lift once; the
angles of the j-th power are j times the primitive angles, never reduced
mod 2 pi, since reduction would flip the sign of half-integral characters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .chars import CharacterTable, evaluate_all
from .errors import DomainError, ValidationError
from .summation import CHUNK
from .tables import write_text
from .weights import GroupData

TWO_PI = 2.0 * math.pi


def canonicalize_angles(angles) -> np.ndarray:
    """Reduce each angle into [0, 2 pi); any array shape."""
    out = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    out[out >= TWO_PI] -= TWO_PI
    return out


def _rows(size: int) -> list[slice]:
    """Consecutive block-aligned slices of summation.CHUNK rows covering
    size rows, the last one shorter."""
    return [slice(start, start + CHUNK) for start in range(0, size, CHUNK)]


def _lengths(l0: np.ndarray, index: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The power lengths j * l0[index], made in the gathered column."""
    out = l0[index]
    return np.multiply(j, out, out=out)


def _power_traces(ls: "LengthSpectrum", index: np.ndarray, j: np.ndarray) -> np.ndarray:
    """tr(chi[index]^j) per (class, power) pair, each class's powers in
    ascending j, written into the column one chunk at a time. Twists of
    dimension > 1 take their eigenvalues' powers from the spectrum's
    twist_eigen where the eigenvector basis is well conditioned, repeated
    multiplication elsewhere, one power of every such class at a time."""
    out = np.empty(index.size, dtype=complex)
    if ls.dim_chi == 1:
        for r in _rows(index.size):
            np.power(ls.chi[index[r], 0, 0], j[r], out=out[r])
        return out
    vals, good_class = ls.twist_eigen
    # 0 for the ill-conditioned classes, whose rows the loop below refills
    vals = np.where(good_class[:, None], vals, 0)
    for r in _rows(index.size):
        powers = vals[index[r]]
        np.power(powers, j[r, None], out=powers)
        np.sum(powers, axis=1, out=out[r])
        del powers  # before the next chunk's gather
    # the ill-conditioned rows grouped by class (stable sort; np.unique
    # imports numpy.ma), j = 1..J_c each; the classes by descending J_c, so
    # those with a j-th power lead, and chi^j = chi^(j-1) chi for all at once
    rows = np.flatnonzero(~good_class[index])
    rows = rows[np.argsort(index[rows], kind="stable")]
    first = np.flatnonzero(j[rows] == 1)
    count = np.diff(first, append=rows.size)
    by_count = np.argsort(-count, kind="stable")
    first, count = first[by_count], count[by_count]
    power = chi = ls.chi[index[rows[first]]]
    for k in range(count.max(initial=0)):
        live = np.count_nonzero(count > k)
        if k:
            power = power[:live] @ chi[:live]
        out[rows[first[:live] + k]] = np.trace(power, axis1=1, axis2=2)
    return out


def _max_power(l0: np.ndarray, lmax: float, bits: int = 63) -> np.ndarray:
    """Largest j with j * l0 <= lmax per class; a cutoff that takes 2^bits
    powers or more in all is refused."""
    # relative guard so j * l0 == lmax survives rounding
    counts = np.floor(lmax / l0 * (1.0 + 1e-12) + 1e-12)
    if not counts.sum() < 2.0**bits:
        raise ValidationError(
            f"length cutoff {lmax:g} is too large: it takes 2^{bits} powers or more "
            f"of the classes, the shortest of length {float(l0.min()):g}"
        )
    return counts.astype(np.int64)


# a plan holds fewer than 2^_PLAN_POWER_BITS powers at 32 bytes each in its
# four columns, about 537 MB, plus 8 bytes for the det terms and 16 per kept
# product or prefactor other than a trivial one; a longer cutoff is refused
# before the plan allocates anything. j and the class index are int32, which
# holds every count below 2^_PLAN_POWER_BITS
_PLAN_POWER_BITS = 24
# plans kept per spectrum, and character products and heat prefactors kept
# per plan; the least recently used entry is evicted first
_PLANS_PER_SPECTRUM = 4
_PRODUCTS_PER_PLAN = 16


def _lru(memo: dict, key, build, limit: int):
    """memo[key], made by build() on a miss. The memo holds at most limit
    entries in order of use; a miss evicts the least recently used one."""
    value = memo.pop(key, None)
    if value is None:
        value = build()
        if len(memo) >= limit:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


class _PowerTable:
    """Prepared plan for one (spectrum, lmax).

    Stores every power of length <= lmax as four columns sorted by
    (length, class index, j), 32 bytes a power: length (float64), j and
    class_index (int32) and chi_trace (complex128), built by whole-array
    operations on the class columns with the traces made a chunk at a time,
    and counts, the number J_c of powers of each class. The per-power l0,
    1/j and angles j * theta are derived for any rows by the methods of
    those names, bit for bit the values of whole columns; every plan-sized
    computation runs over chunks(), so its temporaries hold one chunk. The
    traces are powers of the spectrum's twist_eigen and the tail reads its
    twist_norms: a plan factors no twist matrix. Alongside sits the point-independent data the
    series and heat evaluators read at every s or t: the det terms, the
    character products of the series kernels and the t-independent
    prefactors of the heat route. Each is built on first use, the products
    several at once when asked together (char_products), a product of
    trivial characters as one shared 1 + 0j; the products and prefactors,
    one per twist, are kept for the _PRODUCTS_PER_PLAN most recently used
    twists, the det terms for the life of the plan. check raises the
    refusals of a sum over the plan that depend on (spectrum, lmax) alone,
    and class_tail bounds what the cutoff drops.
    """

    def __init__(self, ls: "LengthSpectrum", lmax: float):
        self.gd = ls.gd
        self.lmax = lmax
        self.dim_chi = ls.dim_chi
        self._class_l0 = ls.l0
        self._class_angles = ls.angles
        self._log_norms = np.log(ls.twist_norms)
        # the powers j = 1..J_c of class 0, then of class 1, ...; fewer than
        # 2^_PLAN_POWER_BITS of them, so j and the class index fit int32
        self.counts = counts = _max_power(ls.l0, lmax, _PLAN_POWER_BITS)
        index = np.repeat(np.arange(counts.size, dtype=np.int32), counts)
        j = np.arange(1, index.size + 1, dtype=np.int32)
        j -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
        # stable, so equal lengths keep their (class index, j) order; a class's
        # lengths rise with j, so its powers stay in ascending j, as
        # _power_traces needs. Each unsorted column is freed after its last
        # read; the sorted lengths are made again from the sorted j and class
        # index, and the traces in sorted order, so no unsorted one exists.
        order = np.argsort(_lengths(ls.l0, index, j), kind="stable")
        self.class_index = index[order]
        del index
        self.j = j[order]
        del j, order
        self.length = _lengths(ls.l0, self.class_index, self.j)
        self.chi_trace = _power_traces(ls, self.class_index, self.j)
        self._char_products: dict[tuple, np.ndarray] = {}
        self._heat_bases: dict[tuple, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.length)

    def chunks(self) -> list[slice]:
        """The rows of the plan as consecutive block-aligned slices of
        summation.CHUNK powers, the last one shorter."""
        return _rows(self.size)

    def l0(self, rows: slice = slice(None)) -> np.ndarray:
        """The length of each power's primitive class, for the given rows."""
        return self._class_l0[self.class_index[rows]]

    def inv_j(self, rows: slice = slice(None)) -> np.ndarray:
        """1 / j per power, for the given rows."""
        return 1.0 / self.j[rows]

    def angles(self, rows: slice = slice(None)) -> np.ndarray:
        """The angles j * theta of each power, (rows, n), never reduced mod
        2 pi."""
        return self.j[rows, None] * self._class_angles[self.class_index[rows]]

    @cached_property
    def overflow_length(self) -> float | None:
        """The length of the shortest power whose twist trace overflows
        double precision, None when every trace is finite."""
        for r in self.chunks():
            bad = np.flatnonzero(~np.isfinite(self.chi_trace[r]))
            if bad.size:
                return float(self.length[r.start + bad[0]])
        return None

    def check(self, reads: Callable[[float], bool]) -> None:
        """The refusals of a sum over this plan that depend on (spectrum,
        lmax) alone: a plan with no power of a spectrum with a class, as no
        tail bound covers every power; then a twist trace past the float
        range, if the sum reads the shortest such power (reads(length)).
        A spectrum with no class passes: its sum is 0 and so is its tail."""
        if not self.size and self._class_l0.size:
            raise DomainError(
                f"no power has length at or below lmax = {self.lmax:g}; the shortest class "
                f"has length {float(self._class_l0.min()):g}, raise lmax to at least that",
            )
        length = self.overflow_length
        if length is not None and reads(length):
            raise DomainError(f"the twist trace of the power of length {length!r} "
                              f"overflows double precision; lower lmax below {length!r}")

    @cached_property
    def det(self) -> np.ndarray:
        """prod_j (1 - 2 e^{-L} cos(j-th angle) + e^{-2L}) per power."""
        out = np.empty(self.size)
        for rows in self.chunks():
            e = np.exp(-self.length[rows])[:, None]
            out[rows] = np.prod(1.0 - 2.0 * e * np.cos(self.angles(rows)) + e * e, axis=1)
        return out

    def class_tail(self, a: float, weight: np.ndarray, scale: float, det: bool = True) -> float:
        """A bound on the sum over the dropped powers j > J_c of
        scale * w |tr chi_c^j| e^{-a j l0_c} / det, where weight_c bounds each
        dropped power's w (1/(J_c + 1) bounds 1/j): one geometric tail per
        class, scale * dim_chi / floor * sum_c weight_c q_c^(J_c+1) / (1 - q_c)
        with q_c = r_c e^{-a l0_c} and r_c the spectrum's twist_norms. It holds
        as |tr chi_c^j| <= dim_chi r_c^j and every det term past lmax is at
        least floor = (1 - e^{-lmax})^(2n); det=False takes floor = 1. A class
        with q_c >= 1 has no such tail, and a bound that is not a finite
        number is refused."""
        log_q = self._log_norms - a * self._class_l0
        floor = np.float64(-math.expm1(-self.lmax)) ** (2 * self.gd.n) if det else 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = np.exp((self.counts + 1) * log_q) / np.maximum(-np.expm1(log_q), 0.0)
            tail = float(scale * self.dim_chi * np.sum(weight * ratio) / floor)
        if not math.isfinite(tail):
            raise DomainError(f"the per-class tail past lmax = {self.lmax:g} is not a finite "
                              f"number, so no tail bound holds; raise lmax above {self.lmax:g}")
        return tail

    def char_products(self, products: Sequence[Sequence[CharacterTable]]) -> list[np.ndarray]:
        """For each tables of products, the product of the character tables
        at the power angles, multiplied in table order; memoized by the
        tables' ((family, highest), ...). A product of trivial characters,
        every highest weight 0, is all ones, as evaluate_all gives it at any
        finite angles: it is built without the angles, as a read-only
        zero-stride view of one 1 + 0j that holds 16 bytes. The other missing
        products are built in one pass over the chunks, with one
        evaluate_all call per chunk for all the tables they hold."""
        keys = [tuple((t.family, t.highest) for t in tables) for tables in products]
        found = {key: self._char_products.get(key) for key in keys}
        missing = {key: tables for key, tables in zip(keys, products) if found[key] is None}
        for key in list(missing):
            if not any(any(highest) for _, highest in key):
                found[key] = np.broadcast_to(np.complex128(1), (self.size,))
                del missing[key]
        if missing:
            distinct = {(t.family, t.highest): t for tables in missing.values() for t in tables}
            for key in missing:
                found[key] = np.empty(self.size, dtype=complex)
            for rows in self.chunks():
                angles = self.angles(rows)
                values = dict(zip(distinct, evaluate_all(list(distinct.values()), angles)))
                for key in missing:
                    acc = np.ones(len(angles), dtype=complex)
                    for table in key:
                        acc = acc * values[table]
                    found[key][rows] = acc
        return [_lru(self._char_products, key, lambda key=key: found[key], _PRODUCTS_PER_PLAN)
                for key in keys]

    def heat_base(self, sigma_table: CharacterTable) -> np.ndarray:
        """t-independent heat prefactor l0 tr chi char_sigma e^{-|rho| L} / det
        per power; memoized by the table's (family, highest)."""
        def build() -> np.ndarray:
            [chars] = self.char_products(((sigma_table,),))
            rho = float(self.gd.rho_norm)
            out = np.empty(self.size, dtype=complex)
            for r in self.chunks():
                out[r] = (self.l0(r) * self.chi_trace[r] * chars[r]
                          * np.exp(-rho * self.length[r]) / self.det[r])
            return out

        key = (sigma_table.family, sigma_table.highest)
        return _lru(self._heat_bases, key, build, _PRODUCTS_PER_PLAN)


def checked_volume(dim_chi: object, volume: object) -> int | float:
    """The volume as its JSON-native type, so save() writes a volume the
    loader reads, after checking that dim_chi is a positive integer and the
    volume a positive finite number."""
    if not (isinstance(dim_chi, int) and not isinstance(dim_chi, bool) and dim_chi >= 1):
        raise ValidationError(f"dim_chi: expected a positive integer, got {dim_chi!r}")
    number = (isinstance(volume, (int, float, np.integer, np.floating))
              and not isinstance(volume, bool))
    try:
        valid = number and math.isfinite(volume) and volume > 0
    except OverflowError:  # an int past the float range
        valid = False
    if not valid:
        raise ValidationError(f"volume: expected a positive finite number, got {volume!r}")
    return (float if isinstance(volume, (float, np.floating)) else int)(volume)


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Primitive class columns, row i of each is class i, plus the global
    constants of the quotient."""

    gd: GroupData
    l0: np.ndarray
    angles: np.ndarray
    chi: np.ndarray
    volume: float
    dim_chi: int
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "volume", checked_volume(self.dim_chi, self.volume))
        count, dim = np.size(self.l0), self.dim_chi
        for name, dtype, shape in (("l0", float, (count,)), ("angles", float, (count, self.gd.n)),
                                   ("chi", complex, (count, dim, dim))):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            if column.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape}, got {column.shape}")
            object.__setattr__(self, name, column)
        bad_l0 = ~(np.isfinite(self.l0) & (self.l0 > 0))
        bad_angles = ~np.isfinite(self.angles).all(axis=1)
        bad = np.flatnonzero(bad_l0 | bad_angles | ~np.isfinite(self.chi).all(axis=(1, 2)))
        if bad.size:
            i = int(bad[0])
            error = (f"l0: expected a positive length, got {float(self.l0[i])!r}" if bad_l0[i]
                     else f"{'angles' if bad_angles[i] else 'chi'}: non-finite entry")
            raise ValidationError(f"classes[{i}].{error}")

    @cached_property
    def twist_norms(self) -> np.ndarray:
        """r_c = max(1, ||chi_c||_2) per class, (N,), read-only. The Frobenius
        norm bounds the spectral norm, so only the classes it puts above 1,
        with room for rounding, go through the one batched SVD."""
        norms = np.ones(self.l0.size)
        rows = np.flatnonzero(np.linalg.norm(self.chi, axis=(1, 2)) > 1.0 + 0.9e-12)
        norms[rows] = np.maximum(1.0, np.linalg.norm(self.chi[rows], 2, axis=(1, 2)))
        norms.setflags(write=False)
        return norms

    @cached_property
    def twist_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues (N, dim_chi) of each chi_c and the mask (N,) of the
        well-conditioned eigenvector bases (finite cond < 1e8), read-only."""
        vals, vecs = np.linalg.eig(self.chi)
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(vecs)
        good = np.isfinite(cond) & (cond < 1e8)
        vals.setflags(write=False)
        good.setflags(write=False)
        return vals, good

    @cached_property
    def twist_rate(self) -> float:
        """The rate k = max over classes of log(r_c) / l0_c with r_c the
        twist_norms, independent of any cutoff."""
        r = self.twist_norms
        # unitary twists come back as 1 + eps; do not let rounding leak into k
        return max((math.log(float(r[i])) / float(self.l0[i])
                    for i in np.flatnonzero(r > 1.0 + 1e-12)), default=0.0)

    def power_table(self, lmax: float) -> _PowerTable:
        """The prepared plan of this spectrum at cutoff lmax. The last
        _PLANS_PER_SPECTRUM plans are kept and reused."""
        if not (math.isfinite(lmax) and lmax > 0):
            raise ValidationError(f"length cutoff must be positive and finite, got {lmax!r}")
        return _lru(self._plans, lmax, lambda: _PowerTable(self, lmax), _PLANS_PER_SPECTRUM)


def counting_function(ls: LengthSpectrum, r: float) -> int:
    """Number of powers (primitive or not) with length <= r."""
    return int(_max_power(ls.l0, r).sum()) if r > 0 else 0


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalue parameters t_k with multiplicities, sorted by real part."""

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self) -> None:
        norm = []
        for i, (t, m) in enumerate(self.entries):
            try:
                t = complex(t)
            except OverflowError:  # the rule _real gives m
                raise ValidationError(f"entries[{i}].t: integer out of float range") from None
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise ValidationError(f"entries[{i}].t: non-finite value")
            if not (isinstance(m, int) and not isinstance(m, bool) and m >= 1):
                raise ValidationError(f"entries[{i}].m: expected a positive integer, got {m!r}")
            _real(m, f"entries[{i}].m")  # the evaluators take m as a float
            norm.append((t, m))
        norm.sort(key=lambda tm: (tm[0].real, tm[0].imag))
        object.__setattr__(self, "entries", tuple(norm))


def synthesize(
    gd: GroupData,
    count: int,
    systole: float,
    seed: int,
    dim_chi: int = 1,
    chi_norm: float = 1.0,
) -> LengthSpectrum:
    """Reproducible synthetic spectrum with exponential counting growth.

    Lengths are stratified inverse-CDF samples of the density
    exp(2|rho| l) above the systole, whose cumulative count inverts in
    closed form; jitter stays inside each stratum, so lengths come out
    sorted and the counting function tracks exp(2|rho| R) up to the +-1
    stratum wiggle. Angles are uniform on [0, 2 pi); twists are Haar-like
    unitaries, scaled into [1, chi_norm] when asked to grow. All draws come
    from one seeded generator. The unitaries come from one stacked QR of
    all classes' draws; a unit twist's draws are one array, while a growing
    twist draws u, v and its singular values class by class, in class order.
    """
    if count < 0:
        raise ValidationError(f"count: expected >= 0, got {count}")
    if not (math.isfinite(systole) and systole > 0):
        raise ValidationError(f"systole: expected positive, got {systole!r}")
    if dim_chi < 1:
        raise ValidationError(f"dim_chi: expected >= 1, got {dim_chi}")
    if not math.isfinite(chi_norm):
        raise ValidationError(f"chi_norm: expected a finite number, got {chi_norm}")
    if chi_norm < 1.0:
        raise ValidationError(f"chi_norm: expected >= 1, got {chi_norm}")
    b = 2.0 * gd.rho_norm
    with np.errstate(over="ignore"):
        floor = np.exp(b * systole)
    if not np.isfinite(floor):
        raise ValidationError(
            f"systole: exp(2|rho| * systole) overflows above "
            f"{math.log(np.finfo(float).max) / b:.1f} at d = {gd.d}, got {systole!r}"
        )
    rng = np.random.default_rng(seed)
    volume = float(rng.uniform(0.5, 5.0))
    jitter = rng.uniform(-0.35, 0.35, size=count)
    targets = np.arange(count) + 0.5 + jitter
    # M(l) = (exp(b l) - exp(b systole)) / b counts classes below l
    lengths = np.log(floor + b * targets) / b

    angles = rng.uniform(0.0, TWO_PI, size=(count, gd.n))
    if chi_norm == 1.0:
        # per class the real, then the imaginary part of one matrix
        chi = _haar_unitaries(rng.normal(size=(count, 2, dim_chi, dim_chi)))
    else:
        # per class the parts of u, then of v, then the singular values:
        # normal and uniform draws interleave, so they are drawn in class order
        parts = np.empty((count, 2, 2, dim_chi, dim_chi))
        svals = np.empty((count, dim_chi))
        for i in range(count):
            parts[i] = rng.normal(size=parts.shape[1:])
            svals[i] = rng.uniform(1.0, chi_norm, size=dim_chi)
        uv = _haar_unitaries(parts)
        # u @ diag(s) @ v with full diagonal matrices, multiplied in that
        # order, rounds exactly as one class at a time
        chi = uv[:, 0] @ (svals[:, :, None] * np.eye(dim_chi)) @ uv[:, 1]
    return LengthSpectrum(gd=gd, l0=lengths, angles=canonicalize_angles(angles),
                          chi=chi, volume=volume, dim_chi=dim_chi)


def _haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar unitaries from the standard normal draws (..., 2, dim, dim) of
    their real and imaginary parts: one stacked QR, with each column's
    phase fixed by the matching diagonal entry of R."""
    q, r = np.linalg.qr(draws[..., 0, :, :] + 1j * draws[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


# ---------------------------------------------------------------------------
# serialization

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _real(value: object, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{path}: integer out of float range") from None


def _list_template(shape: tuple[int, ...], level: int) -> str:
    """The text json.dumps(indent=1) writes for a nested list of this shape
    opened at nesting level ``level``, with a %r slot per number."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    pad = "\n" + " " * (level + 1)
    item = _list_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + " " * level + "]"


def length_spectrum_to_json(ls: LengthSpectrum) -> str:
    """The spectrum's JSON document, byte for byte the text of
    json.dumps(doc, indent=1) for doc = {"d", "volume", "dim_chi",
    "classes": [{"l0", "angles", "chi": [[[re, im], ...], ...]}, ...]}.

    One %r template per (n, dim_chi) is filled once per class from one
    row of numbers; json writes a finite float as float.__repr__, and the
    columns hold finite floats only. The header scalars go through
    json.dumps, so an int or numpy volume reads as json writes it."""
    head = (f'{{\n "d": {json.dumps(ls.gd.d)},\n "volume": {json.dumps(ls.volume)},\n'
            f' "dim_chi": {json.dumps(ls.dim_chi)},\n "classes": ')
    if not ls.l0.size:
        return head + "[]\n}"
    dim = ls.dim_chi
    template = ('{\n   "l0": %r,\n   "angles": ' + _list_template((ls.gd.n,), 3)
                + ',\n   "chi": ' + _list_template((dim, dim, 2), 3) + "\n  }")
    parts = np.stack([ls.chi.real, ls.chi.imag], axis=-1).reshape(ls.l0.size, -1)
    rows = np.concatenate([ls.l0[:, None], ls.angles, parts], axis=1).tolist()
    return head + "[\n  " + ",\n  ".join(map(template.__mod__, map(tuple, rows))) + "\n ]\n}"


def _check_class(raw: object, path: str, n: int, dim_chi: int) -> None:
    """Raise the first error of one document class, in document order."""
    _expect(isinstance(raw, dict), path, "expected an object")
    for key in ("l0", "angles", "chi"):
        _expect(key in raw, f"{path}.{key}", "missing required field")
    _expect(_real(raw["l0"], f"{path}.l0") > 0, f"{path}.l0", "expected a positive length")
    angles = raw["angles"]
    _expect(isinstance(angles, list), f"{path}.angles", "expected a list")
    _expect(len(angles) == n, f"{path}.angles", f"expected {n} entries, got {len(angles)}")
    for k, a in enumerate(angles):
        _real(a, f"{path}.angles[{k}]")
    chi = raw["chi"]
    _expect(isinstance(chi, list) and len(chi) == dim_chi,
            f"{path}.chi", f"expected {dim_chi} rows")
    for r, row in enumerate(chi):
        _expect(isinstance(row, list) and len(row) == dim_chi,
                f"{path}.chi[{r}]", f"expected {dim_chi} entries")
        for s, cell in enumerate(row):
            _expect(isinstance(cell, list) and len(cell) == 2,
                    f"{path}.chi[{r}][{s}]", "expected [re, im]")
            for k, part in enumerate(cell):
                _real(part, f"{path}.chi[{r}][{s}][{k}]")


def _class_columns(raws: list, n: int, dim_chi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The l0, angle and chi columns of the document classes. The checks of
    _check_class run over whole columns, each distinct type tested once;
    only if one fails does _check_class walk the classes in order and raise
    the document's first error."""
    def all_are(values: list, kind) -> bool:
        # isinstance(v, kind) for every value; a bool is no number
        return all(issubclass(t, kind) and not issubclass(t, bool) for t in set(map(type, values)))

    def flatten(values: list, size: int) -> list:
        if not (all_are(values, list) and set(map(len, values)) <= {size}):
            raise ValueError
        return list(chain.from_iterable(values))

    def numbers(values: list) -> np.ndarray:
        if not all_are(values, (int, float)):
            raise ValueError
        return np.array(values, dtype=float)

    try:
        if not all_are(raws, dict):
            raise ValueError
        l0 = numbers([r["l0"] for r in raws])  # a missing field raises KeyError
        if not (l0 > 0).all():
            raise ValueError
        angles = numbers(flatten([r["angles"] for r in raws], n))
        cells = flatten(flatten([r["chi"] for r in raws], dim_chi), dim_chi)
        parts = numbers(flatten(cells, 2))
    except (ValueError, KeyError, OverflowError):
        for i, raw in enumerate(raws):
            _check_class(raw, f"classes[{i}]", n, dim_chi)
        raise
    chi = parts.reshape(len(raws), dim_chi, dim_chi, 2).view(complex)[..., 0]
    return l0, angles.reshape(len(raws), n), chi


def length_spectrum_from_dict(doc: object) -> LengthSpectrum:
    _expect(isinstance(doc, dict), "$", "expected an object")
    for key in ("d", "volume", "dim_chi", "classes"):
        _expect(key in doc, key, "missing required field")
    d = doc["d"]
    _expect(isinstance(d, int) and not isinstance(d, bool), "d", "expected an integer")
    gd = GroupData(d)
    volume = _real(doc["volume"], "volume")
    dim_chi = doc["dim_chi"]
    _expect(isinstance(dim_chi, int) and not isinstance(dim_chi, bool) and dim_chi >= 1,
            "dim_chi", "expected a positive integer")
    _expect(isinstance(doc["classes"], list), "classes", "expected a list")
    l0, angles, chi = _class_columns(doc["classes"], gd.n, dim_chi)
    return LengthSpectrum(gd=gd, l0=l0, angles=canonicalize_angles(angles), chi=chi,
                          volume=volume, dim_chi=dim_chi)


def eigen_spectrum_to_dict(es: EigenSpectrum) -> dict:
    return {"entries": [{"t": [t.real, t.imag], "m": m} for t, m in es.entries]}


def eigen_spectrum_from_dict(doc: object) -> EigenSpectrum:
    _expect(isinstance(doc, dict), "$", "expected an object")
    _expect("entries" in doc, "entries", "missing required field")
    _expect(isinstance(doc["entries"], list), "entries", "expected a list")
    entries = []
    for i, raw in enumerate(doc["entries"]):
        path = f"entries[{i}]"
        _expect(isinstance(raw, dict), path, "expected an object")
        for key in ("t", "m"):
            _expect(key in raw, f"{path}.{key}", "missing required field")
        t = raw["t"]
        _expect(isinstance(t, list) and len(t) == 2, f"{path}.t", "expected [re, im]")
        entries.append((complex(_real(t[0], f"{path}.t[0]"), _real(t[1], f"{path}.t[1]")),
                        raw["m"]))
    return EigenSpectrum(entries=tuple(entries))


def save(value: LengthSpectrum | EigenSpectrum, path: str | Path) -> None:
    """Write either spectrum kind as a JSON document, byte for byte what
    json.dumps(doc, indent=1) writes, plus a final newline; a length
    spectrum goes through length_spectrum_to_json. A path that cannot be
    written is refused as tables.write_text refuses it."""
    if isinstance(value, LengthSpectrum):
        text = length_spectrum_to_json(value)
    elif isinstance(value, EigenSpectrum):
        text = json.dumps(eigen_spectrum_to_dict(value), indent=1)
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")
    write_text(text + "\n", path)


def _load_doc(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_length_spectrum(path: str | Path) -> LengthSpectrum:
    return length_spectrum_from_dict(_load_doc(path))


def load_eigen_spectrum(path: str | Path) -> EigenSpectrum:
    return eigen_spectrum_from_dict(_load_doc(path))
