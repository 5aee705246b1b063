"""Workloads of the zetaflow benchmark: seeded inputs and CLI job lists.

Every input is drawn from the ``--seed`` argument: the spectra through
``zetaflow gen-spectrum --seed``, the eigenvalue file, the s-grids and the
anchors. The program only ever sees the generated files and arguments.

Evaluation points are drawn from a band right of each abscissa. The series
refuse a point once the certified tail exceeds ``--tail-eps``; over seeds
that refusal sits 0.64 to 0.93 right of the abscissa |rho| + k (Selberg
type) or 2|rho| + k (Ruelle type and the factorization check), at the
default cut-off lmax = 30. The bands start 1.2 right of it. Known refusing
points, kept out of every job: ``heat-trace`` at t = 3 on d = 5 and at
t = 2 on d = 7, and ``factorization-check`` at s = 4.5 on d = 5.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CANONICAL_SEED = 1
SYSTOLE = 0.5          # gen-spectrum default; bounds the twist growth rate k
TAIL_EPS = 1e-8        # passed to every series job; the output check enforces it
BAND = (1.2, 3.0)      # real parts of s: abscissa + BAND
IMAG = 2.0             # imaginary parts of s: uniform in [-IMAG, IMAG]

# name: (d, classes, twist dimension, twist norm bound, sigma)
SPECTRA = {
    "d3-2k": (3, 2000, 1, 1.0, "0"),
    "d3-6k": (3, 6000, 1, 1.0, "0"),
    "d5-2k": (5, 2000, 2, 1.02, "1,0"),
    "d5-6k": (5, 6000, 1, 1.0, "0,0"),
    "d7-2k": (7, 2000, 1, 1.0, "0,0,0"),
    "d7-6k": (7, 6000, 1, 1.0, "0,0,0"),
}

EIGEN_ENTRIES = 24


@dataclass(frozen=True)
class Job:
    """One zetaflow CLI invocation and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    kind: str = "table"      # "table", "resolvent" or "verify"
    rows: int = 0            # rows the table must have (table and resolvent jobs)
    tail_eps: float = 0.0    # largest allowed tail_bound; 0 means unchecked


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spectra: tuple[str, ...]
    eigen: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "series-grid",
            "16 s-points share one (spectrum, lmax), so the per-point path dominates: "
            "certificate, exp/det kernel and block sum; prepared plans and caches show here",
            ("d3-6k", "d5-2k", "d7-2k"),
            False,
        ),
        Workload(
            "single-point",
            "one s per job, nothing reused across points: start-up, JSON load, power "
            "table and one certificate dominate; per-point caching should not move it",
            ("d3-2k", "d3-6k", "d5-2k", "d5-6k", "d7-2k", "d7-6k"),
            False,
        ),
        Workload(
            "heat-resolvent",
            "resolvent by the geometric and the heat route plus heat-trace: "
            "half_line_integral x heat_totals x block_sum dominate",
            ("d3-6k", "d5-2k", "d7-6k"),
            False,
        ),
        Workload(
            "verify",
            "verify --suite all, factorization and continuation on small inputs: "
            "chars, branching and plancherel dominate, with no large JSON load",
            ("d5-2k", "d7-2k"),
            True,
        ),
    )
}

# Per-layer metric -> (end-to-end metric it should move, workloads where it
# should move it). Written down before any optimisation is measured.
PREDICTIONS = {
    "cli.startup_s": ("wall_rel", ("single-point",)),
    "cli.self_s": ("wall_rel", ("single-point",)),
    "spectra.load_s": ("wall_rel", ("single-point", "series-grid")),
    "spectra.load_bytes": ("wall_rel", ("single-point", "series-grid")),
    "spectra.power_table_s": ("wall_rel", ("single-point", "series-grid")),
    "spectra.power_table_calls": ("wall_rel", ("single-point", "series-grid")),
    "spectra.power_table_reuse": ("wall_rel", ("single-point", "series-grid")),
    "spectra.powers": ("wall_rel", ("single-point", "series-grid")),
    "spectra.cert_s": ("wall_rel", ("series-grid",)),
    "spectra.cert_calls": ("wall_rel", ("series-grid",)),
    "spectra.cert_reuse": ("wall_rel", ("series-grid",)),
    "spectra.synthesize_s": ("wall_rel and setup_s", ("verify",)),
    "chars.character_table_calls": ("wall_rel", ("verify",)),
    "chars.evaluate_s": ("wall_rel", ("verify",)),
    "chars.evaluate_rows": ("wall_rel", ("verify",)),
    "chars.weyl_character_s": ("wall_rel", ("verify",)),
    "chars.weyl_character_calls": ("wall_rel", ("verify",)),
    "chars.weight_multiplicities_s": ("wall_rel", ("verify",)),
    "branching.exterior_decomposition_s": ("wall_rel", ("verify",)),
    "branching.exterior_decomposition_calls": ("wall_rel", ("verify",)),
    "branching.exterior_reuse": ("wall_rel", ("verify",)),
    "plancherel.polynomial_s": ("wall_rel", ("verify", "heat-resolvent")),
    "plancherel.polynomial_calls": ("wall_rel", ("verify", "heat-resolvent")),
    "zeta.series_self_s": ("wall_rel", ("series-grid",)),
    "zeta.series_calls": ("wall_rel", ("series-grid",)),
    "zeta.terms": ("wall_rel", ("series-grid",)),
    "zeta.point_ms": ("wall_rel", ("series-grid",)),
    "zeta.refusals": ("ok_frac", ("series-grid",)),
    "summation.block_sum_s": ("wall_rel", ("heat-resolvent",)),
    "summation.block_sum_calls": ("wall_rel", ("heat-resolvent",)),
    "summation.elements": ("wall_rel", ("heat-resolvent",)),
    "heat.heat_totals_self_s": ("wall_rel", ("heat-resolvent",)),
    "heat.heat_totals_calls": ("wall_rel", ("heat-resolvent",)),
    "heat.time_nodes": ("wall_rel", ("heat-resolvent",)),
    "heat.kernel_terms": ("wall_rel", ("heat-resolvent",)),
    "heat.geometric_heat_trace_s": ("wall_rel", ("heat-resolvent",)),
    "heat.refusals": ("ok_frac", ("heat-resolvent",)),
    "quadrature.half_line_s": ("wall_rel", ("heat-resolvent", "verify")),
    "quadrature.half_line_calls": ("wall_rel", ("heat-resolvent", "verify")),
    "quadrature.segment_integral_s": ("wall_rel", ("heat-resolvent", "verify")),
    "quadrature.segment_integral_calls": ("wall_rel", ("heat-resolvent", "verify")),
    "continuation.resolvent_geometric_s": ("wall_rel", ("heat-resolvent",)),
    "continuation.resolvent_heat_s": ("wall_rel", ("heat-resolvent",)),
    "continuation.small_t_s": ("wall_rel", ("heat-resolvent",)),
    "continuation.contour_residue_calls": ("wall_rel", ("heat-resolvent",)),
    "tables.emit_s": ("wall_rel", tuple(WORKLOADS)),
    "tables.bytes": ("wall_rel", tuple(WORKLOADS)),
    "verify.run_suite_self_s": ("wall_rel", ("verify",)),
    "verify.checks": ("wall_rel", ("verify",)),
    "trace.overhead_s": ("none: cost of the traced replay", tuple(WORKLOADS)),
    "trace.coverage": ("none: share of main() inside named layer spans", tuple(WORKLOADS)),
}


def _rng(seed: int, *labels: str) -> random.Random:
    return random.Random(":".join([str(seed), *labels]))


def _derived_seed(seed: int, *labels: str) -> int:
    digest = hashlib.sha256(":".join([str(seed), *labels]).encode()).hexdigest()
    return int(digest[:8], 16)


def _abscissa(name: str, ruelle: bool) -> float:
    """Upper estimate of the abscissa: n + k (Selberg type) or 2n + k (Ruelle
    type), with k <= log(twist norm) / systole."""
    d, _, _, chi_norm, _ = SPECTRA[name]
    n = (d - 1) // 2
    return (2 * n if ruelle else n) + math.log(chi_norm) / SYSTOLE


def _points(rng: random.Random, name: str, count: int, ruelle: bool = False) -> list[str]:
    a = _abscissa(name, ruelle)
    out = []
    for _ in range(count):
        re = a + rng.uniform(*BAND)
        im = rng.uniform(-IMAG, IMAG)
        out.append(f"{re:.6f}{im:+.6f}j")
    return out


def _anchors(rng: random.Random, name: str, count: int) -> list[str]:
    """Real anchors in the Selberg band, at least 0.3 apart."""
    a = _abscissa(name, False)
    picked: list[float] = []
    while len(picked) < count:
        x = round(a + rng.uniform(*BAND), 6)
        if all(abs(x - y) >= 0.3 for y in picked):
            picked.append(x)
    return [f"{x:.6f}" for x in sorted(picked)]


def _s_args(points: list[str]) -> list[str]:
    return [arg for p in points for arg in ("--s", p)]


def spectrum_file(inputs: Path, name: str) -> str:
    return str(inputs / f"{name}.json")


def setup_commands(workload: str, seed: int, inputs: Path) -> list[tuple[str, ...]]:
    """The ``zetaflow gen-spectrum`` argument lists for a workload's spectra."""
    cmds = []
    for name in WORKLOADS[workload].spectra:
        d, count, dim_chi, chi_norm, _ = SPECTRA[name]
        cmd = ["gen-spectrum", "--d", str(d), "--count", str(count),
               "--seed", str(_derived_seed(seed, name)),
               "--output", spectrum_file(inputs, name)]
        if dim_chi != 1:
            cmd += ["--dim-chi", str(dim_chi), "--chi-norm", str(chi_norm)]
        cmds.append(tuple(cmd))
    return cmds


def eigen_document(seed: int) -> dict:
    """Distinct positive eigenvalue parameters, at least 0.5 apart, with
    small multiplicities; their poles +-i sqrt(t) all sit on the imaginary
    axis, away from the continuation points."""
    rng = _rng(seed, "eigen")
    ts: list[float] = []
    while len(ts) < EIGEN_ENTRIES:
        t = round(rng.uniform(0.5, 40.0), 6)
        if all(abs(t - u) >= 0.5 for u in ts):
            ts.append(t)
    return {"entries": [{"t": [t, 0.0], "m": rng.randint(1, 3)} for t in sorted(ts)]}


def write_eigen(seed: int, inputs: Path) -> None:
    (inputs / "eigen.json").write_text(json.dumps(eigen_document(seed), indent=1) + "\n")


def _series(name: str, command: str, spec: str, points: list[str], inputs: Path) -> Job:
    sigma = SPECTRA[spec][4]
    argv = (command, "--spectrum", spectrum_file(inputs, spec), "--sigma", sigma,
            "--tail-eps", repr(TAIL_EPS), *_s_args(points))
    return Job(name, argv, rows=len(points), tail_eps=TAIL_EPS)


def jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The workload's CLI jobs, in the order one pass runs them."""
    out: list[Job] = []
    if workload == "series-grid":
        for command, spec in (("selberg", "d3-6k"), ("log-derivative", "d5-2k"),
                              ("ruelle", "d7-2k")):
            rng = _rng(seed, workload, command, spec)
            pts = _points(rng, spec, 16, ruelle=command == "ruelle")
            out.append(_series(f"{command}/{spec}", command, spec, pts, inputs))
    elif workload == "single-point":
        for i, spec in enumerate(WORKLOADS[workload].spectra):
            # each command on each dimension and on both sizes
            command = ("selberg", "ruelle")[(i + i // 2) % 2]
            rng = _rng(seed, workload, command, spec)
            pts = _points(rng, spec, 1, ruelle=command == "ruelle")
            out.append(_series(f"{command}/{spec}", command, spec, pts, inputs))
    elif workload == "heat-resolvent":
        for spec, count in (("d3-6k", 3), ("d5-2k", 4)):
            anchors = _anchors(_rng(seed, workload, "resolvent", spec), spec, count)
            argv = ("resolvent", "--spectrum", spectrum_file(inputs, spec),
                    "--sigma", SPECTRA[spec][4],
                    *[arg for a in anchors for arg in ("--anchor", a)])
            out.append(Job(f"resolvent/{spec}", argv, kind="resolvent", rows=2))
        times = ("0.25", "0.5", "1")
        argv = ("heat-trace", "--spectrum", spectrum_file(inputs, "d7-6k"),
                "--tail-eps", repr(TAIL_EPS), *[arg for t in times for arg in ("--t", t)])
        out.append(Job("heat-trace/d7-6k", argv, rows=len(times), tail_eps=TAIL_EPS))
    elif workload == "verify":
        out.append(Job("verify/all",
                       ("verify", "--suite", "all", "--seed", str(_derived_seed(seed, "verify"))),
                       kind="verify"))
        for spec in ("d5-2k", "d7-2k"):
            pts = _points(_rng(seed, workload, "factorization", spec), spec, 1, ruelle=True)
            argv = ("factorization-check", "--spectrum", spectrum_file(inputs, spec),
                    "--sigma", SPECTRA[spec][4], "--tail-eps", repr(TAIL_EPS), *_s_args(pts))
            out.append(Job(f"factorization-check/{spec}", argv, rows=len(pts)))
        eigen = str(inputs / "eigen.json")
        rng = _rng(seed, workload, "continue")
        pts = [f"{rng.uniform(0.5, 3.0):.6f}{rng.uniform(-1.0, 1.0):+.6f}j" for _ in range(8)]
        out.append(Job("continue", ("continue", "--eigen", eigen, "--d", "3", *_s_args(pts)),
                       rows=len(pts)))
        out.append(Job("residues", ("residues", "--eigen", eigen, "--d", "3"),
                       rows=2 * EIGEN_ENTRIES))
    else:
        raise KeyError(workload)
    return out
