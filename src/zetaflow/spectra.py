"""Length spectra, their power enumerations, and eigenvalue spectra.

The geometric side of every identity in this package consumes a
LengthSpectrum: primitive classes carrying a length, holonomy angles for
the rank-n torus, and a twist matrix. The spectral side consumes an
EigenSpectrum of complex eigenvalue parameters with multiplicities. Both
round-trip through JSON documents with full validation, and a synthesizer
produces reproducible fake spectra with the right counting growth for
tests and demos.

Every evaluation at a cutoff lmax reads one prepared plan per
(spectrum, lmax), returned by LengthSpectrum.power_table: the power
enumeration as array columns plus everything that does not depend on the
evaluation point (twist certificate, counting constant, det terms,
character products). A spectrum keeps its few most recently used plans,
and the twist growth rate, which no cutoff affects, once.

Angle conventions: primitive angles are canonicalized into [0, 2 pi) at
construction time, which fixes the spin lift once; the angles of the j-th
power are j times the primitive angles, never reduced mod 2 pi, since
reduction would flip the sign of half-integral characters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .weights import GroupData

TWO_PI = 2.0 * math.pi


def canonicalize_angles(angles: Iterable[float]) -> tuple[float, ...]:
    """Reduce each angle into [0, 2 pi)."""
    out = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    out[out >= TWO_PI] -= TWO_PI
    return tuple(float(a) for a in out)


@dataclass(frozen=True, eq=False)
class PrimitiveClass:
    """One primitive class: length, torus angles, twist matrix."""

    l0: float
    angles: tuple[float, ...]
    chi: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.chi, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "chi", mat)
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "l0", float(self.l0))


def _trace_powers(chi: np.ndarray, jmax: int) -> np.ndarray:
    """tr(chi^j) for j = 1..jmax.

    Eigenvalue route when the eigenvector basis is well conditioned,
    repeated multiplication otherwise; the two agree to rounding and are
    cross-checked in tests.
    """
    if jmax < 1:
        return np.empty(0, dtype=complex)
    if chi.shape == (1, 1):
        lam = complex(chi[0, 0])
        return lam ** np.arange(1, jmax + 1)
    vals, vecs = np.linalg.eig(chi)
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(vecs)
    if np.isfinite(cond) and cond < 1e8:
        powers = vals[None, :] ** np.arange(1, jmax + 1)[:, None]
        return powers.sum(axis=1)
    out = np.empty(jmax, dtype=complex)
    acc = np.array(chi)
    out[0] = np.trace(acc)
    for i in range(1, jmax):
        acc = acc @ chi
        out[i] = np.trace(acc)
    return out


def _max_power(l0: float, lmax: float) -> int:
    # relative guard so j * l0 == lmax survives rounding of the quotient
    return int(math.floor(lmax / l0 * (1.0 + 1e-12) + 1e-12))


# plans kept per spectrum; the least recently used one is evicted first
_PLANS_PER_SPECTRUM = 4


class _PowerTable:
    """Prepared plan for one (spectrum, lmax).

    Holds every power of length <= lmax as array columns sorted by
    (length, class index, j), together with the s-independent data that
    the series and heat evaluators read at every point: the twist
    certificate (K, k), the counting constant C' for b = 2|rho|, the det
    terms, the character products of the series kernels and the
    t-independent prefactors of the heat route. Each derived quantity is
    built on first use and kept for the life of the plan.
    """

    def __init__(self, ls: "LengthSpectrum", lmax: float):
        self.dim_chi = ls.dim_chi
        self.rate = ls.twist_rate
        self.b = 2.0 * ls.gd.rho_norm
        lengths, l0s, js, idxs, traces, angs = [], [], [], [], [], []
        for i, c in enumerate(ls.classes):
            jmax = _max_power(c.l0, lmax)
            if jmax < 1:
                continue
            jj = np.arange(1, jmax + 1, dtype=float)
            lengths.append(jj * c.l0)
            l0s.append(np.full(jmax, c.l0))
            js.append(jj)
            idxs.append(np.full(jmax, i, dtype=np.int64))
            traces.append(_trace_powers(c.chi, jmax))
            angs.append(jj[:, None] * np.asarray(c.angles)[None, :])
        if lengths:
            length = np.concatenate(lengths)
            order = np.lexsort((np.concatenate(js), np.concatenate(idxs), length))
            self.length = length[order]
            self.l0 = np.concatenate(l0s)[order]
            self.j = np.concatenate(js)[order]
            self.class_index = np.concatenate(idxs)[order]
            self.chi_trace = np.concatenate(traces)[order]
            self.angles = np.concatenate(angs)[order]
        else:
            self.length = self.l0 = self.j = np.empty(0)
            self.class_index = np.empty(0, dtype=np.int64)
            self.chi_trace = np.empty(0, dtype=complex)
            self.angles = np.empty((0, ls.gd.n))
        self.inv_j = 1.0 / self.j if len(self.j) else np.empty(0)
        # products of character tables at the power angles, keyed by the
        # tables' ((family, highest), ...)
        self.char_products: dict[tuple, np.ndarray] = {}
        # heat route: l0 tr chi char_sigma e^{-|rho| L} / det, keyed by sigma
        self.heat_bases: dict[tuple, np.ndarray] = {}

    @property
    def size(self) -> int:
        return len(self.length)

    @cached_property
    def cert(self) -> "TwistGrowthCert":
        K = float(self.dim_chi)
        if self.size:
            observed = np.abs(self.chi_trace) * np.exp(-self.rate * self.length)
            K = max(K, float(observed.max()))
        return TwistGrowthCert(K=K, k=self.rate)

    @cached_property
    def counting_constant(self) -> float:
        """C' = max over the enumerated powers of N(L) exp(-b L), the
        constant of the counting majorant N(L) <= C' exp(b L). Observed
        up to lmax only."""
        if not self.size:
            return 0.0
        counts = np.arange(1, self.size + 1, dtype=float)
        return float(np.max(counts * np.exp(-self.b * self.length)))

    @cached_property
    def det(self) -> np.ndarray:
        """prod_j (1 - 2 e^{-L} cos(j-th angle) + e^{-2L}) per power."""
        e = np.exp(-self.length)[:, None]
        return np.prod(1.0 - 2.0 * e * np.cos(self.angles) + e * e, axis=1)


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Primitive length data plus the global constants of the quotient."""

    gd: GroupData
    classes: tuple[PrimitiveClass, ...]
    volume: float
    dim_chi: int
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        n = self.gd.n
        if not (isinstance(self.dim_chi, int) and self.dim_chi >= 1):
            raise ValidationError(f"dim_chi: expected a positive integer, got {self.dim_chi!r}")
        if not (math.isfinite(self.volume) and self.volume > 0):
            raise ValidationError(f"volume: expected a positive finite number, got {self.volume!r}")
        for i, c in enumerate(self.classes):
            if not (math.isfinite(c.l0) and c.l0 > 0):
                raise ValidationError(f"classes[{i}].l0: expected a positive length, got {c.l0!r}")
            if len(c.angles) != n:
                raise ValidationError(
                    f"classes[{i}].angles: expected {n} entries, got {len(c.angles)}"
                )
            if not all(math.isfinite(a) for a in c.angles):
                raise ValidationError(f"classes[{i}].angles: non-finite entry")
            if c.chi.shape != (self.dim_chi, self.dim_chi):
                raise ValidationError(
                    f"classes[{i}].chi: expected shape {(self.dim_chi, self.dim_chi)},"
                    f" got {c.chi.shape}"
                )
            if not np.isfinite(c.chi).all():
                raise ValidationError(f"classes[{i}].chi: non-finite entry")

    @property
    def systole(self) -> float:
        if not self.classes:
            raise ValidationError("empty spectrum has no systole")
        return min(c.l0 for c in self.classes)

    @cached_property
    def twist_rate(self) -> float:
        """The rate k = max over classes of log(max(1, ||chi_c||)) / l0_c,
        independent of any cutoff; one batched spectral norm per spectrum."""
        if not self.classes:
            return 0.0
        norms = np.linalg.norm(np.stack([c.chi for c in self.classes]), 2, axis=(1, 2))
        k = 0.0
        # unitary twists come back as 1 + eps; do not let rounding leak into k
        for i in np.flatnonzero(norms > 1.0 + 1e-12):
            k = max(k, math.log(float(norms[i])) / self.classes[i].l0)
        return k

    def power_table(self, lmax: float) -> _PowerTable:
        """The prepared plan of this spectrum at cutoff lmax. The last
        _PLANS_PER_SPECTRUM plans are kept and reused."""
        if not (math.isfinite(lmax) and lmax > 0):
            raise ValidationError(f"length cutoff must be positive and finite, got {lmax!r}")
        plan = self._plans.pop(lmax, None)
        if plan is None:
            plan = _PowerTable(self, lmax)
            if len(self._plans) >= _PLANS_PER_SPECTRUM:
                del self._plans[next(iter(self._plans))]
        self._plans[lmax] = plan
        return plan


def counting_function(ls: LengthSpectrum, r: float) -> int:
    """Number of powers (primitive or not) with length <= r."""
    if r <= 0 or not ls.classes:
        return 0
    return sum(_max_power(c.l0, r) for c in ls.classes)


@dataclass(frozen=True)
class TwistGrowthCert:
    """Certified bound |tr chi(power)| <= K exp(k * length)."""

    K: float
    k: float


def certify_twist_growth(ls: LengthSpectrum, lmax: float | None = None) -> TwistGrowthCert:
    """Growth certificate for the twist traces: the one held by the
    prepared plan of (ls, lmax), built once per plan.

    k is driven by spectral norms: ||chi^j|| <= ||chi||^j makes
    k = max_c log(max(1, ||chi_c||)) / l0_c valid for every power, not just
    the enumerated ones. K starts at dim_chi (which already dominates
    |tr chi^j| exp(-k j l0)) and is raised to the observed supremum if
    rounding ever pushes a sample above it. The tail bounds built from
    this certificate also use the counting constant C' of the same plan,
    which is observed only on the powers up to lmax: "certified" beyond
    lmax rests on the prime-geodesic growth N(L) <= C' exp(2|rho| L)
    continuing past the cutoff.
    """
    if not ls.classes:
        raise ValidationError("cannot certify an empty spectrum")
    if lmax is None:
        lmax = 4.0 * max(c.l0 for c in ls.classes)
    return ls.power_table(lmax).cert


def validate_cert(cert: TwistGrowthCert, ls: LengthSpectrum, lmax: float) -> bool:
    """Re-check the certificate against a (possibly denser) enumeration."""
    t = ls.power_table(lmax)
    if not t.size:
        return True
    bound = cert.K * np.exp(cert.k * t.length) * (1.0 + 1e-9)
    return bool((np.abs(t.chi_trace) <= bound).all())


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalue parameters t_k with multiplicities, sorted by real part."""

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self) -> None:
        norm = []
        for i, (t, m) in enumerate(self.entries):
            t = complex(t)
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise ValidationError(f"entries[{i}].t: non-finite value")
            if not (isinstance(m, int) and m >= 1):
                raise ValidationError(f"entries[{i}].m: expected a positive integer, got {m!r}")
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
    from one seeded generator.
    """
    if count < 0:
        raise ValidationError(f"count: expected >= 0, got {count}")
    if not (math.isfinite(systole) and systole > 0):
        raise ValidationError(f"systole: expected positive, got {systole!r}")
    if dim_chi < 1:
        raise ValidationError(f"dim_chi: expected >= 1, got {dim_chi}")
    if chi_norm < 1.0:
        raise ValidationError(f"chi_norm: expected >= 1, got {chi_norm}")
    rng = np.random.default_rng(seed)
    volume = float(rng.uniform(0.5, 5.0))
    if count == 0:
        return LengthSpectrum(gd=gd, classes=(), volume=volume, dim_chi=dim_chi)

    b = 2.0 * gd.rho_norm
    jitter = rng.uniform(-0.35, 0.35, size=count)
    targets = np.arange(count) + 0.5 + jitter
    # M(l) = (exp(b l) - exp(b systole)) / b counts classes below l
    lengths = np.log(np.exp(b * systole) + b * targets) / b

    angles = rng.uniform(0.0, TWO_PI, size=(count, gd.n))
    classes = []
    for i in range(count):
        classes.append(
            PrimitiveClass(
                l0=float(lengths[i]),
                angles=canonicalize_angles(angles[i]),
                chi=_random_twist(rng, dim_chi, chi_norm),
            )
        )
    return LengthSpectrum(gd=gd, classes=tuple(classes), volume=volume, dim_chi=dim_chi)


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _random_twist(rng: np.random.Generator, dim: int, chi_norm: float) -> np.ndarray:
    u = _haar_unitary(rng, dim)
    if chi_norm == 1.0:
        return u
    v = _haar_unitary(rng, dim)
    svals = rng.uniform(1.0, chi_norm, size=dim)
    return u @ np.diag(svals) @ v


# ---------------------------------------------------------------------------
# serialization

def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {message}")


def _real(value: object, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    return float(value)


def length_spectrum_to_dict(ls: LengthSpectrum) -> dict:
    return {
        "d": ls.gd.d,
        "volume": ls.volume,
        "dim_chi": ls.dim_chi,
        "classes": [
            {
                "l0": c.l0,
                "angles": list(c.angles),
                "chi": [[[z.real, z.imag] for z in row] for row in c.chi],
            }
            for c in ls.classes
        ],
    }


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
    classes = []
    for i, raw in enumerate(doc["classes"]):
        path = f"classes[{i}]"
        _expect(isinstance(raw, dict), path, "expected an object")
        for key in ("l0", "angles", "chi"):
            _expect(key in raw, f"{path}.{key}", "missing required field")
        l0 = _real(raw["l0"], f"{path}.l0")
        _expect(l0 > 0, f"{path}.l0", "expected a positive length")
        _expect(isinstance(raw["angles"], list), f"{path}.angles", "expected a list")
        _expect(len(raw["angles"]) == gd.n, f"{path}.angles",
                f"expected {gd.n} entries, got {len(raw['angles'])}")
        angles = canonicalize_angles(
            [_real(a, f"{path}.angles[{k}]") for k, a in enumerate(raw["angles"])]
        )
        chi_raw = raw["chi"]
        _expect(isinstance(chi_raw, list) and len(chi_raw) == dim_chi,
                f"{path}.chi", f"expected {dim_chi} rows")
        mat = np.zeros((dim_chi, dim_chi), dtype=complex)
        for r, row in enumerate(chi_raw):
            _expect(isinstance(row, list) and len(row) == dim_chi,
                    f"{path}.chi[{r}]", f"expected {dim_chi} entries")
            for s, cell in enumerate(row):
                _expect(isinstance(cell, list) and len(cell) == 2,
                        f"{path}.chi[{r}][{s}]", "expected [re, im]")
                mat[r, s] = complex(_real(cell[0], f"{path}.chi[{r}][{s}][0]"),
                                    _real(cell[1], f"{path}.chi[{r}][{s}][1]"))
        classes.append(PrimitiveClass(l0=l0, angles=angles, chi=mat))
    return LengthSpectrum(gd=gd, classes=tuple(classes), volume=volume, dim_chi=dim_chi)


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
        m = raw["m"]
        _expect(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
                f"{path}.m", "expected a positive integer")
        entries.append((complex(_real(t[0], f"{path}.t[0]"), _real(t[1], f"{path}.t[1]")), m))
    return EigenSpectrum(entries=tuple(entries))


def save(value: LengthSpectrum | EigenSpectrum, path: str | Path) -> None:
    """Write either spectrum kind as a JSON document."""
    if isinstance(value, LengthSpectrum):
        doc = length_spectrum_to_dict(value)
    elif isinstance(value, EigenSpectrum):
        doc = eigen_spectrum_to_dict(value)
    else:
        raise ValidationError(f"cannot serialize {type(value).__name__}")
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


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
