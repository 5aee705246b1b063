"""Tests of the benchmark's own code: tracer arithmetic and output checks.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_calls():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def inner():
        clock.advance(5.0)

    inner = t.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        inner()
        clock.advance(2.0)
        inner()
        clock.advance(3.0)

    t.wrap("outer", outer)()
    assert [s[0] for s in t.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert tracer.self_times(t.spans) == [6.0, 5.0, 5.0]
    agg = tracer.job_summary(t.spans)["by_name"]
    assert agg["outer"]["incl_s"] == 16.0 and agg["outer"]["self_s"] == 6.0
    assert agg["inner"]["calls"] == 2 and agg["inner"]["incl_s"] == 10.0


def test_recursion_is_counted_once_in_inclusive_time():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def rec(n):
        clock.advance(1.0)
        if n:
            rec(n - 1)

    rec = t.wrap("rec", rec)
    rec(2)
    agg = tracer.job_summary(t.spans)["by_name"]["rec"]
    assert agg["calls"] == 3
    assert agg["incl_s"] == 3.0          # outermost span only
    assert agg["self_s"] == 3.0          # 1 s of its own in each call


def test_errors_are_recorded_and_reraised():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.spans[0][4] == {"error": "ValueError"}
    assert t._stack == []


def test_covered_merges_overlapping_children():
    assert tracer._covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracer._covered([(-1, 2), (9, 12)], 0, 10) == 3


def _csv(rows):
    lines = [checks.HEADER] + [",".join(repr(float(x)) for x in r) for r in rows]
    return "\n".join(lines) + "\n"


GOOD_TABLE = _csv([[3.0, 0.5, -0.25, 0.125, 1e-12], [3.5, 0.0, -0.2, 0.1, 2e-13]])
GOOD_RESOLVENT = _csv([[2.0, 0.0, -0.0718, 0.00044, 1e-13], [2.0, 0.0, -0.0718, 0.00044, 1e-17]])
GOOD_VERIFY = (
    "anchor moment vanishing  max error 9.9e-14  tolerance 1.0e-09  ok\n"
    "ruelle factorization     max error 4.4e-17  tolerance 1.0e-08  ok\n"
)
TABLE_JOB = Job("selberg/x", ("selberg",), rows=2, tail_eps=1e-8)
RESOLVENT_JOB = Job("resolvent/x", ("resolvent",), kind="resolvent", rows=2)
VERIFY_JOB = Job("verify/all", ("verify",), kind="verify")


def _failed(job, status, text, digests=None):
    jr = run.JobRun(job, status, 1.0, 1000, text.encode(), 0.0)
    return len(run.job_failures([jr], "pass 1", digests))


def test_good_outputs_pass():
    digests = {"selberg/x": checks.digest(TABLE_JOB, GOOD_TABLE)}
    assert _failed(TABLE_JOB, 0, GOOD_TABLE, digests) == 0
    assert _failed(RESOLVENT_JOB, 0, GOOD_RESOLVENT) == 0
    assert _failed(VERIFY_JOB, 0, GOOD_VERIFY) == 0


@pytest.mark.parametrize(
    "job, status, text, digests",
    [
        # a changed digit: caught by the canonical digest
        (TABLE_JOB, 0, GOOD_TABLE.replace("-0.25", "-0.26"),
         {"selberg/x": checks.digest(TABLE_JOB, GOOD_TABLE)}),
        # a changed digit in one resolvent route
        (RESOLVENT_JOB, 0, GOOD_RESOLVENT.replace("-0.0718,0.00044,1e-17", "-0.0719,0.00044,1e-17"),
         None),
        # a missing row
        (TABLE_JOB, 0, GOOD_TABLE.rsplit("\n", 2)[0] + "\n", None),
        # exit status 2, a domain refusal
        (TABLE_JOB, 2, "", None),
        # a FAIL line
        (VERIFY_JOB, 1, GOOD_VERIFY.replace("08  ok", "08  FAIL"), None),
        (VERIFY_JOB, 0, GOOD_VERIFY.replace("08  ok", "08  FAIL"), None),
        # a digest mismatch
        (TABLE_JOB, 0, GOOD_TABLE, {"selberg/x": "0" * 64}),
        # a non-finite value, and a tail bound above tail_eps
        (TABLE_JOB, 0, GOOD_TABLE.replace("-0.25", "nan"), None),
        (TABLE_JOB, 0, GOOD_TABLE.replace("1e-12", "0.001"), None),
    ],
)
def test_every_check_can_fail(job, status, text, digests):
    assert _failed(job, status, text, digests) == 1


def test_traced_stdout_must_match_the_untraced_job():
    plain = run.JobRun(TABLE_JOB, 0, 1.0, 1000, GOOD_TABLE.encode(), 0.0)
    traced = plain._replace(stdout=GOOD_TABLE.replace("1e-12", "2e-12").encode())
    assert run.job_failures([plain], "pass 1", None, untraced=[plain]) == []
    assert len(run.job_failures([traced], "pass 1", None, untraced=[plain])) == 1


def test_digest_ignores_tail_bound():
    other = GOOD_TABLE.replace("1e-12", "5e-12")
    assert checks.digest(TABLE_JOB, other) == checks.digest(TABLE_JOB, GOOD_TABLE)


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.jobs(name, 5, tmp_path)
        assert a == workloads.jobs(name, 5, tmp_path)
        assert a != workloads.jobs(name, 6, tmp_path)
        assert workloads.setup_commands(name, 5, tmp_path) == workloads.setup_commands(
            name, 5, tmp_path)
    assert workloads.eigen_document(5) == workloads.eigen_document(5)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(workloads.PREDICTIONS)
    summary = tracer.job_summary([])
    assert layer == set(tracer.pass_layer_metrics([summary], 0.0)) | {"trace.overhead_s"}
    digests = json.loads(run.DIGESTS.read_text())
    for name in workloads.WORKLOADS:
        inputs = Path("inputs")
        tables = {j.name for j in workloads.jobs(name, workloads.CANONICAL_SEED, inputs)
                  if j.kind != "verify"}
        assert set(digests[name]) == tables


def test_traced_replay_matches_the_cli(tmp_path):
    env = run.child_env(ROOT)
    spec = tmp_path / "spec.json"
    gen = ["gen-spectrum", "--d", "3", "--count", "60", "--seed", "4", "--output", str(spec)]
    assert run.spawn([sys.executable, "-c", run.LAUNCH, *gen], env, tmp_path,
                     tmp_path / "gen.out")[0] == 0
    argv = ["selberg", "--spectrum", str(spec), "--s", "3.0", "--s", "3.5+1j"]
    plain = run.spawn([sys.executable, "-c", run.LAUNCH, *argv], env, tmp_path,
                      tmp_path / "plain.out")
    spans_path = tmp_path / "spans.json"
    traced = run.spawn([sys.executable, str(run.BENCH_DIR / "replay.py"), str(spans_path),
                        "--", *argv], env, tmp_path, tmp_path / "traced.out")
    assert plain[0] == traced[0] == 0
    assert plain[3] == traced[3]
    doc = json.loads(spans_path.read_text())
    summary = tracer.job_summary(doc["spans"])
    agg = summary["by_name"]
    assert agg["cli.main"]["calls"] == 1
    assert agg["zeta.series"]["calls"] == 2
    # zeta imports certify_twist_growth by name: that binding is wrapped too
    assert agg["spectra.cert"]["calls"] == 2 and len(agg["spectra.cert"]["keys"]) == 1
    assert agg["summation.block_sum"]["calls"] == 2
    metrics = tracer.pass_layer_metrics([summary], 0.1)
    assert metrics["spectra.cert_reuse"] == 2.0
    assert metrics["zeta.terms"] == metrics["summation.elements"] > 0
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ),
    )
    assert proc.returncode != 0 and proc.stdout == ""
