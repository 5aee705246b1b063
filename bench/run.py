"""zetaflow benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a zetaflow checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time; each job is a fresh interpreter running
the ``zetaflow`` command line from ``src/``, started only after the
previous one has exited. A pass runs the workload's job list once.

``--trace 0`` generates the inputs SETUP_REPEATS times (``setup_s`` is the
median), then runs passes for S seconds and reports the end-to-end
metrics, medians over the passes. Each job is preceded by the fixed
reference job ``reference.py``; ``wall_rel`` is a pass's summed job wall
time over its summed reference time. The speed of a shared machine drifts
by +-15% over tens of seconds, which the ratio cancels and the pass wall
time in seconds does not: ``wall_s`` is therefore reported, with its
samples and tail, but not gated. ``--trace 1`` alternates untraced passes
with traced replays of the same jobs (``replay.py``) and reports the
per-layer metrics, medians over the traced passes.

The last line of standard output is the result object. The line before it
is a report: provenance (machine, versions, child environment), the job
list, the pass count and tail latency, and every failed check by job name.
Every job's output is checked (``checks.py``); a job that fails a check
counts in ``failed`` and lowers ``ok_frac``. For the canonical seed the s
and value columns of each table must also match ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 3
MIN_PASSES = 3          # untraced passes; traced runs make at least 2 pairs
JOB_TIMEOUT_S = 60.0
LAUNCH = "import sys; from zetaflow.cli import main; sys.exit(main())"
UNITS = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}
ENV_KEYS = ("PYTHON", "ZETAFLOW", "OMP_", "OPENBLAS", "MKL_", "NUMEXPR")


class JobRun(NamedTuple):
    """One finished CLI job."""

    job: workloads.Job
    status: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    spawned: float       # wall-clock time just before the child was started


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ZETAFLOW_THREADS", None)   # the default serial block sum
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv, env, cwd: Path, out_path: Path, timeout: float = JOB_TIMEOUT_S):
    """Run argv to completion; return (exit status, wall seconds, max RSS
    in KiB of that child alone, stdout bytes, wall-clock spawn time)."""
    with open(out_path, "wb") as out:
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=cwd, env=env)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(), spawned


def run_pass(jobs, env, work: Path, traced: bool = False):
    """Run every job once, in order. Returns (wall seconds, reference
    seconds, [JobRun]): the summed wall times of the jobs and, for an
    untraced pass, of the reference job run right before each of them."""
    runs, ref = [], 0.0
    for i, job in enumerate(jobs):
        if traced:
            spans = work / f"{i}.spans"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "replay.py"), str(spans), "--", *job.argv]
        else:
            ref += spawn([sys.executable, str(BENCH_DIR / "reference.py")], env, work,
                         work / "reference.out")[1]
            argv = [sys.executable, "-c", LAUNCH, *job.argv]
        runs.append(JobRun(job, *spawn(argv, env, work, work / f"{i}.out")))
    return sum(r.wall_s for r in runs), ref, runs


def setup(workload: str, seed: int, env, work: Path) -> float:
    """Generate the workload's inputs into work/inputs; return the seconds
    it took. Raises RuntimeError when the program cannot generate them."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    for argv in workloads.setup_commands(workload, seed, inputs):
        status, *_ = spawn([sys.executable, "-c", LAUNCH, *argv], env, work,
                           work / "setup.out")
        if status != 0:
            raise RuntimeError(f"zetaflow {' '.join(argv)} exited with status {status}")
    if workloads.WORKLOADS[workload].eigen:
        workloads.write_eigen(seed, inputs)
    return time.perf_counter() - t0


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it, with the
    sample count; with ten samples or fewer there is none, and only the
    maximum is given."""
    n = len(values)
    ordered = sorted(values)
    if n < 11:
        return {"samples": n, "percentile": None, "value": None, "max": ordered[-1]}
    return {"samples": n, "percentile": round(100.0 * (n - 10) / n, 1),
            "value": ordered[n - 11], "max": ordered[-1]}


def job_failures(runs, label: str, digests: dict | None, untraced=None) -> list[str]:
    """One line per failed job: its name and every check it failed. With
    ``untraced``, the runs of the same jobs without tracing, each stdout
    must also be byte-identical to its untraced one."""
    out = []
    for i, run in enumerate(runs):
        text = run.stdout.decode("utf-8", errors="replace")
        found = checks.problems(run.job, run.status, text)
        if digests is not None:
            got = checks.digest(run.job, text)
            if got is not None and got != digests.get(run.job.name):
                found.append("s/value digest differs from the canonical digest")
        if untraced is not None and run.stdout != untraced[i].stdout:
            found.append("stdout differs from the untraced job")
        if found:
            out.append(f"{label} {run.job.name}: {'; '.join(found)}")
    return out


def provenance(args, env, jobs) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    wl = workloads.WORKLOADS[args.workload]
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "jobs": [{"name": j.name, "argv": ["zetaflow", *j.argv]} for j in jobs],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "child_env": {k: v for k, v in env.items() if k.startswith(ENV_KEYS)},
        "predictions": {m: p for m, p in workloads.PREDICTIONS.items()
                        if args.workload in p[1]},
    }


def measure(args, env, work, jobs, digests):
    """Untraced passes: the end-to-end metrics."""
    setups = [setup(args.workload, args.seed, env, work) for _ in range(SETUP_REPEATS)]
    walls, rels, peaks, all_runs, failures, took = [], [], [], [], [], []
    t0 = time.perf_counter()
    while _more(t0, took, args.seconds, MIN_PASSES):
        t1 = time.perf_counter()
        wall, ref, runs = run_pass(jobs, env, work)
        took.append(time.perf_counter() - t1)
        walls.append(wall)
        rels.append(wall / ref)
        peaks.append(max(r.maxrss_kb for r in runs) / 1024.0)
        all_runs += runs
        failures += job_failures(runs, f"pass {len(walls)}", digests)
    failed = len(failures)
    job_walls = {}
    for run in all_runs:
        job_walls.setdefault(run.job.name, []).append(run.wall_s)
    metrics = {
        "wall_rel": statistics.median(rels),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - failed / len(all_runs),
    }
    report = {"passes": len(walls), "wall_s": statistics.median(walls), "wall_s_samples": walls,
              "wall_s_tail": tail(walls), "wall_rel_samples": rels, "setup_s_samples": setups,
              "job_wall_s_median": {k: statistics.median(v) for k, v in job_walls.items()}}
    return metrics, len(all_runs), failed, failures, report


def measure_traced(args, env, work, jobs, digests):
    """Untraced passes alternating with traced replays: per-layer metrics."""
    setup(args.workload, args.seed, env, work)
    plain_walls, traced_walls, per_pass, runs_all, failures, took = [], [], [], 0, [], []
    t0 = time.perf_counter()
    while _more(t0, took, args.seconds, 2):
        t1 = time.perf_counter()
        k = len(traced_walls) + 1
        wall, _, plain = run_pass(jobs, env, work)
        plain_walls.append(wall)
        failures += job_failures(plain, f"pass {k}", digests)
        wall, _, traced = run_pass(jobs, env, work, traced=True)
        traced_walls.append(wall)
        failures += job_failures(traced, f"traced pass {k}", digests, untraced=plain)
        runs_all += len(plain) + len(traced)
        summaries, startup = [], 0.0
        for i, t in enumerate(traced):
            spans = work / f"{i}.spans"
            if not spans.exists():     # killed before writing; already counted as failed
                continue
            doc = json.loads(spans.read_text())
            summaries.append(tracer.job_summary(doc["spans"]))
            startup += (doc["entered"] - t.spawned) + doc["import_s"]
        per_pass.append(tracer.pass_layer_metrics(summaries, startup))
        took.append(time.perf_counter() - t1)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    report = {"passes": len(traced_walls), "traced_wall_s": traced_walls,
              "untraced_wall_s": plain_walls}
    return metrics, runs_all, len(failures), failures, report


def _more(t0: float, took: list[float], seconds: float, minimum: int) -> bool:
    """Start another round if it should end within ``seconds`` of t0, going
    by the median of the rounds so far (``took``), or if fewer than
    ``minimum`` ran and 2 x ``seconds`` have not yet gone by."""
    elapsed = time.perf_counter() - t0
    if len(took) < minimum:
        return elapsed < 2 * seconds
    return elapsed + statistics.median(took) <= seconds


def per_layer_units() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run one pass on the canonical seed and store its digests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetaflow" / "cli.py").is_file():
        print(f"error: {root} holds no zetaflow source tree (src/zetaflow)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = child_env(root)
    try:
        work.mkdir(parents=True)
        jobs = workloads.jobs(args.workload, args.seed, work / "inputs")
        if args.record_digests:
            return record_digests(args, env, work, jobs)
        digests = None
        if args.seed == workloads.CANONICAL_SEED:
            digests = json.loads(DIGESTS.read_text()).get(args.workload, {})
        prov = provenance(args, env, jobs)
        measured = measure_traced if args.trace else measure
        metrics, attempted, failed, failures, report = measured(args, env, work, jobs, digests)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    for line in failures:
        print(f"FAILED {args.workload} {line}", file=sys.stderr)
    units = per_layer_units() if args.trace else UNITS
    print(json.dumps({"report": {**report, "failures": failures[:50], "provenance": prov}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def record_digests(args, env, work, jobs) -> int:
    if args.seed != workloads.CANONICAL_SEED:
        print(f"error: digests are recorded for seed {workloads.CANONICAL_SEED}", file=sys.stderr)
        return 1
    setup(args.workload, args.seed, env, work)
    _, _, runs = run_pass(jobs, env, work)
    failures = job_failures(runs, "pass 1", None)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    doc[args.workload] = {r.job.name: d for r in runs
                          if (d := checks.digest(r.job, r.stdout.decode())) is not None}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc[args.workload])} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
