import argparse
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import read_table
from zetaflow import (
    DomainError,
    EigenSpectrum,
    GroupData,
    LengthSpectrum,
    TruncationPolicy,
    ValidationError,
    load_length_spectrum,
    log_derivative,
    ruelle_log,
    save,
    selberg_log,
    synthesize,
)
from zetaflow import cli
from zetaflow.cli import JobConfig, build_parser, main, run


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "gen-spectrum", "--d", "3", "--count", "40", "--systole", "0.6",
        "--seed", "7", "--output", str(root / "spectrum.json"),
    ])
    assert rc == 0
    save(EigenSpectrum(entries=((2.0 + 0j, 2), (5.0 + 0j, 1))), root / "eig.json")
    return root


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_spectrum_is_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        rc = main([
            "gen-spectrum", "--d", "3", "--count", "12", "--systole", "0.5",
            "--seed", "3", "--output", str(tmp_path / name),
        ])
        assert rc == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["d"] == 3 and len(doc["classes"]) == 12


def test_selberg_matches_library(workdir, capsys):
    code, out, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"),
        "--sigma", "0", "--s", "3.5", "--s", "4+1j", "--lmax", "30",
    ])
    assert code == 0, err
    path = workdir / "sel.csv"
    path.write_text(out)
    rows = read_table(path)
    ls = load_length_spectrum(workdir / "spectrum.json")
    tp = TruncationPolicy(lmax=30.0)
    for row in rows:
        ref = selberg_log(row.s, (0,), ls, tp)
        assert row.value == ref.value
        assert row.tail_bound == ref.tail_bound
    assert [r.s for r in rows] == [3.5 + 0j, 4 + 1j]


@pytest.mark.parametrize("command, evaluate", [("selberg", selberg_log),
                                               ("ruelle", ruelle_log),
                                               ("log-derivative", log_derivative)])
def test_a_series_grid_is_one_pass_equal_to_each_point_alone(workdir, capsys, monkeypatch,
                                                            command, evaluate):
    from zetaflow import spectra

    counts = []
    chunked_sum = spectra.chunked_sum
    monkeypatch.setattr(spectra, "chunked_sum",
                        lambda chunks, count: counts.append(count) or chunked_sum(chunks, count))
    points = [f"{3.5 + 0.25 * k}{0.5 * (k % 5) - 1.0:+}j" for k in range(16)]
    code, out, err = _run(capsys, [
        command, "--spectrum", str(workdir / "spectrum.json"), "--sigma", "0", "--lmax", "30",
        *[arg for s in points for arg in ("--s", s)],
    ])
    assert code == 0, err
    assert counts == [16]
    path = workdir / f"{command}-grid.csv"
    path.write_text(out)
    rows = read_table(path)
    assert [r.s for r in rows] == [complex(s) for s in points]
    ls = load_length_spectrum(workdir / "spectrum.json")
    tp = TruncationPolicy(lmax=30.0)
    for row in rows:
        ref = evaluate(row.s, (0,), ls, tp)
        assert (row.value.real.hex(), row.value.imag.hex(), row.tail_bound.hex()) == (
            ref.value.real.hex(), ref.value.imag.hex(), ref.tail_bound.hex())


@pytest.mark.parametrize("points, refusing", [
    # the fourth point's tail exceeds tail_eps; the fifth is left of the abscissa
    (["5", "4+1j", "3", "2", "0.5", "6"], "2"),
    (["5", "0.5", "2"], "0.5"),
])
def test_a_series_grid_refuses_at_its_first_refusing_point(workdir, capsys, points, refusing):
    ls = load_length_spectrum(workdir / "spectrum.json")
    tp = TruncationPolicy(lmax=4.0, tail_eps=1e-5)
    for s in points[:points.index(refusing)]:
        selberg_log(complex(s), (0,), ls, tp)
    with pytest.raises(DomainError) as refusal:
        selberg_log(complex(refusing), (0,), ls, tp)
    code, out, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--sigma", "0", "--lmax", "4",
        "--tail-eps", "1e-5", *[arg for s in points for arg in ("--s", s)],
    ])
    assert (code, out, err) == (2, "", f"domain error: {refusal.value}\n")


def test_empty_spectrum_yields_zero_rows(tmp_path, capsys):
    rc = main([
        "gen-spectrum", "--d", "3", "--count", "0",
        "--output", str(tmp_path / "empty.json"),
    ])
    assert rc == 0
    code, out, _ = _run(capsys, [
        "selberg", "--spectrum", str(tmp_path / "empty.json"), "--s", "2.0",
    ])
    assert code == 0
    (tmp_path / "z.csv").write_text(out)
    rows = read_table(tmp_path / "z.csv")
    assert len(rows) == 1
    assert rows[0].value == 0j and rows[0].tail_bound == 0.0


def test_json_format_and_output_file(workdir, capsys, tmp_path):
    target = tmp_path / "r.json"
    code, out, _ = _run(capsys, [
        "ruelle", "--spectrum", str(workdir / "spectrum.json"),
        "--s", "4.2", "--format", "json", "--output", str(target),
    ])
    assert code == 0 and out == ""
    records = json.loads(target.read_text())
    assert len(records) == 1
    assert records[0]["s_re"] == 4.2


def test_plancherel_rows(capsys):
    code, out, _ = _run(capsys, [
        "plancherel", "--d", "5", "--sigma", "1,0", "--s", "2", "--s", "3",
    ])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == pytest.approx(0.0, abs=1e-12)
    assert float(lines[2].split(",")[2]) == pytest.approx(15.0)


def test_heat_trace_uses_time_column(workdir, capsys):
    code, out, _ = _run(capsys, [
        "heat-trace", "--spectrum", str(workdir / "spectrum.json"),
        "--t", "0.05", "--t", "0.2", "--lmax", "12",
    ])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.05, 0.2]


def test_resolvent_spectrum_route_prints_both_routes(workdir, capsys):
    code, out, _ = _run(capsys, [
        "resolvent", "--spectrum", str(workdir / "spectrum.json"),
        "--anchor", "2", "--anchor", "3", "--lmax", "36", "--tail-eps", "1e-5",
    ])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # geometric route, then the heat route
    geo = float(lines[1].split(",")[2])
    heat = float(lines[2].split(",")[2])
    assert abs(geo - heat) < 1e-5 * abs(geo)


def test_resolvent_eigen_route(workdir, capsys):
    code, out, _ = _run(capsys, [
        "resolvent", "--eigen", str(workdir / "eig.json"),
        "--anchor", "1", "--anchor", "2",
    ])
    assert code == 0
    val = float(out.splitlines()[1].split(",")[2])
    assert val == pytest.approx(2 / ((2 + 1) * (2 + 4)) + 1 / ((5 + 1) * (5 + 4)), rel=1e-12)
    # neither route reads the continuation options, so they are not accepted
    for flag, value in (("--volume", "2"), ("--dim-chi", "2")):
        code, out, err = _run(capsys, [
            "resolvent", "--eigen", str(workdir / "eig.json"),
            "--anchor", "1", "--anchor", "2", flag, value,
        ])
        assert code == 1 and out == "" and flag in err


@pytest.mark.parametrize("flag,value", [("--sigma", "1"), ("--lmax", "5"), ("--tail-eps", "1e-300")])
def test_resolvent_eigen_route_refuses_the_spectrum_route_options(workdir, tmp_path, capsys,
                                                                   flag, value):
    # resolvent accepts these for its --spectrum route; the spectral route
    # reads none of them, so a given value is refused, as a flag or a key
    argv = ["resolvent", "--eigen", str(workdir / "eig.json"), "--anchor", "2", "--anchor", "3"]
    code, out, err = _run(capsys, [*argv, flag, value])
    assert (code, out) == (1, "") and flag in err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    code, out, err = _run(capsys, [*argv, "--config", str(conf)])
    assert (code, out) == (1, "") and flag in err


@pytest.mark.parametrize("argv, shown", [
    (["continue", "--d", "5", "--sigma", "1,1", "--s", "1.5"], "sigma = (1, 1) has w sigma = (1, -1)"),
    (["continue", "--d", "5", "--sigma", "1,-1", "--s", "1.5"], "sigma = (1, -1) has w sigma = (1, 1)"),
    (["residues", "--d", "3", "--sigma", "1"], "sigma = (1) has w sigma = (-1)"),
])
def test_continuation_refuses_a_sigma_other_than_w_sigma(workdir, capsys, argv, shown):
    # the eigen data of such a sigma could be those of sigma or of sigma + w sigma
    code, out, err = _run(capsys, [*argv, "--eigen", str(workdir / "eig.json")])
    assert (code, out) == (1, "")
    assert shown in err and err.startswith(f"error: {argv[0]} reads eigen data of a sigma equal")
    # sigma = w sigma is read as before
    fixed = [argv[0], "--d", "5", "--sigma", "1,0", "--eigen", str(workdir / "eig.json")]
    if argv[0] == "continue":
        fixed += ["--s", "1.5"]
    code, _, err = _run(capsys, fixed)
    assert code == 0, err


def test_continue_and_residues(workdir, capsys):
    code, out, _ = _run(capsys, [
        "continue", "--eigen", str(workdir / "eig.json"), "--d", "3",
        "--volume", "1", "--s", "0.5", "--s", "1.5",
    ])
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = _run(capsys, ["residues", "--eigen", str(workdir / "eig.json"), "--d", "3"])
    assert code == 0
    lines = out.splitlines()[1:]
    # one row per pole: +-i sqrt(2) carrying 2, +-i sqrt(5) carrying 1
    vals = sorted(round(float(l.split(",")[2])) for l in lines)
    assert vals == [1, 1, 2, 2]
    assert all(float(l.split(",")[4]) < 1e-6 for l in lines)


def test_factorization_check_passes(workdir, capsys):
    code, out, err = _run(capsys, [
        "factorization-check", "--spectrum", str(workdir / "spectrum.json"),
        "--s", "4.5", "--s", "5.1", "--lmax", "24", "--tail-eps", "1e-2",
    ])
    assert code == 0
    assert "OK" in err


@pytest.fixture(scope="module")
def spectrum_d3_200(tmp_path_factory):
    path = tmp_path_factory.mktemp("fact") / "spectrum.json"
    assert main(["gen-spectrum", "--d", "3", "--count", "200", "--seed", "7",
                 "--output", str(path)]) == 0
    return path


@pytest.mark.parametrize("points, tail_eps, message", [
    # the p = 2 piece at s + |rho| - 2 = 3 refuses; the Ruelle series at s = 4
    # passes with its tail 8.095e-03
    (("4", "1.9"), "9e-3", "certified tail 1.083e-02 exceeds tail_eps 9.0e-03 at s = (3+0j)"),
    (("1.9", "4"), "9e-3", "series for kind 'ruelle' does not converge at s = (1.9+0j)"),
    (("4", "1.9"), "1e-4", "certified tail 8.095e-03 exceeds tail_eps 1.0e-04 at s = (4+0j)"),
])
def test_factorization_check_refuses_point_by_point(spectrum_d3_200, capsys, points, tail_eps,
                                                    message):
    # per point, the Ruelle series' refusals, then each piece's in p order;
    # a refusal at any point leaves no row
    code, out, err = _run(capsys, [
        "factorization-check", "--spectrum", str(spectrum_d3_200), "--lmax", "2",
        "--tail-eps", tail_eps, *[arg for s in points for arg in ("--s", s)],
    ])
    assert (code, out) == (2, "")
    assert err.startswith(f"domain error: {message}"), err


@pytest.mark.parametrize("tol", ["nan", "-1e-3", "-0.5", "abc"])
def test_factorization_check_refuses_a_nan_or_negative_tol(workdir, capsys, tmp_path, tol):
    # a tolerance no difference can meet is a bad option, not a FAIL of the check
    job = ["factorization-check", "--spectrum", str(workdir / "spectrum.json"),
           "--s", "4.5", "--lmax", "24", "--tail-eps", "1e-2"]
    want = f"error: --tol: expected a nonnegative float, got {tol!r}\n"
    assert _run(capsys, [*job, f"--tol={tol}"]) == (1, "", want)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": tol}))
    assert _run(capsys, [*job, "--config", str(conf)]) == (1, "", "error: config key 'tol': "
                                                             + want[len("error: "):])
    code, _, err = _run(capsys, [*job, "--tol=0"])
    assert code == 1 and err.endswith("FAIL\n")


@pytest.mark.parametrize("argv, code, want", [
    (["selberg", "--s", "-2+1j"], 2, "domain error: series for kind 'selberg' does not converge "
     "at s = (-2+1j): Re(s) = -2 is at or left of the abscissa estimate 1\n"),
    (["factorization-check", "--s", "4.5", "--tol", "-1e-3"], 1,
     "error: --tol: expected a nonnegative float, got '-1e-3'\n"),
    (["selberg", "--s", "4", "--lmax", "-1e-3"], 1,
     "error: lmax: expected positive and finite, got -0.001\n"),
    (["selberg", "--s", "4", "--lmax", "-inf"], 1,
     "error: lmax: expected positive and finite, got -inf\n"),
    (["selberg", "--s", "4", "--tail-eps", "-1e-9"], 1,
     "error: tail_eps: expected positive, got -1e-09\n"),
])
def test_a_negative_number_after_a_flag_is_its_value(workdir, capsys, argv, code, want):
    job = [argv[0], "--spectrum", str(workdir / "spectrum.json"), *argv[1:-2]]
    flag, value = argv[-2:]
    assert _run(capsys, [*job, flag, value]) == (code, "", want)
    assert _run(capsys, [*job, f"{flag}={value}"]) == (code, "", want)


def test_a_flag_where_a_value_belongs_is_refused(workdir, capsys):
    got = _run(capsys, ["selberg", "--spectrum", str(workdir / "spectrum.json"),
                        "--s", "--sigma", "0"])
    assert got == (1, "", "error: argument --s: expected one argument\n")


@pytest.mark.parametrize("job", [
    ["gen-spectrum", "--d", "3", "--count", "4"],
    ["verify", "--suite", "lemma6"],
])
@pytest.mark.parametrize("seed", ["-1", "-2147483648", "1.5"])
def test_a_negative_seed_is_refused_by_its_flag(capsys, tmp_path, job, seed):
    want = f"error: --seed: expected a nonnegative int, got {seed!r}\n"
    assert _run(capsys, [*job, "--seed", seed]) == (1, "", want)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": json.loads(seed)}))
    assert _run(capsys, [*job, "--config", str(conf)]) == (1, "", "error: config key 'seed': "
                                                             + want[len("error: "):])
    code, out, _ = _run(capsys, [*job, "--seed", "0"])
    assert code == 0 and out


def test_verify_suite_command(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "lemma6"])
    assert code == 0
    assert "ok" in out
    code, _, err = _run(capsys, ["verify", "--suite", "unheard-of"])
    assert code == 1
    assert "error:" in err


def test_validation_failures_exit_one(capsys, tmp_path):
    code, _, err = _run(capsys, ["selberg", "--s", "3.0"])
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, ["selberg", "--spectrum", str(tmp_path / "nope.json"), "--s", "3"])
    assert code == 1 and "error:" in err
    code, _, err = _run(capsys, ["gen-spectrum", "--count", "4"])
    assert code == 1 and "--d" in err
    code, _, err = _run(capsys, ["unknown-command"])
    assert code == 1


SERIES = ["selberg", "--spectrum", "{spectrum}", "--s", "3"]
ONE_ROUTE = "resolvent takes exactly one of --spectrum or --eigen"


@pytest.mark.parametrize("argv, message", [
    (["gen-spectrum", "--d", "3", "--output", "{tmp}/x.json"], "gen-spectrum requires --count"),
    (["heat-trace", "--spectrum", "{spectrum}"], "heat-trace requires at least one --t time"),
    # the grid is checked before the spectrum is read, as every spectrum command does
    (["heat-trace", "--spectrum", "{tmp}/missing.json"],
     "heat-trace requires at least one --t time"),
    (["resolvent", "--spectrum", "{spectrum}", "--anchor", "2"],
     "resolvent requires at least two --anchor points"),
    (["resolvent", "--spectrum", "{spectrum}", "--eigen", "{eigen}",
      "--anchor", "2", "--anchor", "3"], ONE_ROUTE),
    (["resolvent", "--anchor", "2", "--anchor", "3"], ONE_ROUTE),
    (["continue", "--d", "3", "--s", "2"], "continue requires --eigen"),
    (["selberg", "--spectrum", "{spectrum}", "--s", "nan"], "non-finite evaluation point 'nan'"),
    ([*SERIES, "--sigma", "1,x"], "cannot parse '1,x' as a comma-separated list of rationals"),
    ([*SERIES, "--config", "{tmp}/missing.json"], "cannot read config file {tmp}/missing.json: "),
    ([*SERIES, "--config", "{tmp}/bad.json"], "config file {tmp}/bad.json is not valid JSON: "),
    ([*SERIES, "--config", "{tmp}/list.json"], "config file must hold a JSON object"),
])
def test_a_refused_job_exits_one_with_its_message_on_stderr_only(
    workdir, capsys, tmp_path, argv, message
):
    (tmp_path / "bad.json").write_text('{"d": 3')
    (tmp_path / "list.json").write_text("[1, 2]")
    paths = {"spectrum": workdir / "spectrum.json", "eigen": workdir / "eig.json", "tmp": tmp_path}
    code, out, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message.format(**paths)}"), err
    assert not (tmp_path / "x.json").exists()


def test_domain_failures_exit_two(workdir, capsys):
    # below the abscissa of convergence: the offending point is named
    code, _, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--s", "0.25",
    ])
    assert code == 2
    assert "domain error:" in err and "0.25" in err
    code, _, err = _run(capsys, [
        "continue", "--eigen", str(workdir / "eig.json"), "--d", "3",
        "--s", "0+1.4142135623730951j",
    ])
    assert code == 2
    assert "t_k" in err


def test_cutoff_past_int64_powers_exits_one(workdir, capsys, tmp_path):
    spectrum = workdir / "spectrum.json"
    code, _, err = _run(capsys, ["selberg", "--spectrum", str(spectrum), "--s", "4",
                                 "--lmax", "1e300"])
    assert code == 1
    assert "error: length cutoff 1e+300 is too large" in err
    # the default cutoff, 4x the longest class, reaches the same limit
    doc = json.loads(spectrum.read_text())
    doc["classes"][3]["l0"] = 1e300
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["selberg", "--spectrum", str(huge), "--s", "4"])
    assert code == 1
    assert "error: length cutoff 4e+300 is too large" in err


def test_cutoff_past_the_plan_size_exits_one(workdir, capsys):
    # about 5e13 powers of the 40 classes: far under 2^63, refused from the
    # per-class counts before the plan allocates anything
    code, out, err = _run(capsys, ["selberg", "--spectrum", str(workdir / "spectrum.json"),
                                   "--s", "4", "--lmax", "1e12"])
    assert code == 1 and out == ""
    assert "error: length cutoff 1e+12 is too large: it takes 2^24 powers or more" in err


def test_cutoff_below_the_shortest_class_exits_two(workdir, capsys):
    spectrum = str(workdir / "spectrum.json")
    for argv in (["selberg", "--s", "4"], ["heat-trace", "--t", "0.01"]):
        code, out, err = _run(capsys, [*argv, "--spectrum", spectrum, "--lmax", "0.1"])
        assert code == 2 and out == ""
        assert "no power has length at or below lmax = 0.1" in err
        assert "shortest class has length" in err


def test_a_cutoff_past_an_overflowing_twist_trace_exits_two(capsys, tmp_path):
    # |chi| = 100 on the class of length 0.5: its traces pass the float range
    # from length 77.5 on, which no move of s mends
    spectrum = tmp_path / "overflow.json"
    save(LengthSpectrum(gd=GroupData(3), l0=[0.5, 1.0], angles=[[0.3], [1.0]],
                        chi=[[[100.0]], [[1.0]]], volume=1.0, dim_chi=1), spectrum)
    flags = ["--spectrum", str(spectrum), "--lmax", "80", "--tail-eps", "1"]
    for command in ("selberg", "ruelle", "log-derivative", "factorization-check"):
        assert _run(capsys, [command, "--s", "60", *flags]) == (2, "", (
            "domain error: the twist trace of the power of length 77.5 overflows double "
            "precision; lower lmax below 77.5\n"))
    code, out, _ = _run(capsys, ["selberg", "--s", "60", *flags[:2], "--lmax", "77",
                                 "--tail-eps", "1"])
    assert code == 0 and "60.0,0.0,-2.715668763327e-11,0.0,0.0" in out
    # the heat kernel zeroes those powers
    assert _run(capsys, ["heat-trace", "--t", "0.1", *flags]) == (0, (
        "s_re,s_im,value_re,value_im,tail_bound\n0.1,0.0,1122.8367915925285,0.0,0.0\n"), "")


def test_config_file_merge(workdir, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"sigma": "0", "s_grid": ["3.5"], "lmax": 25.0}))
    code, base, _ = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--config", str(conf),
    ])
    assert code == 0
    # flags win over the file
    code, out, _ = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--config", str(conf),
        "--s", "4.0",
    ])
    assert code == 0
    assert out != base
    assert out.splitlines()[1].startswith("4.0,")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_option": 1}))
    code, _, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--config", str(bad),
        "--s", "3",
    ])
    assert code == 1 and "no_such_option" in err
    # the command comes from the command line, never from the file
    cmd = tmp_path / "cmd.json"
    cmd.write_text(json.dumps({"command": "ruelle"}))
    code, out, err = _run(capsys, [
        "gen-spectrum", "--d", "3", "--count", "4", "--config", str(cmd),
    ])
    assert code == 1 and out == "" and "'command'" in err


def test_deterministic_flag_and_worker_invariance(workdir, capsys, monkeypatch):
    argv = [
        "selberg", "--spectrum", str(workdir / "spectrum.json"),
        "--sigma", "0", "--s", "3.5", "--s", "4+1j", "--deterministic",
    ]
    outputs = set()
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("ZETAFLOW_THREADS", workers)
        for _ in range(2):
            code, out, _ = _run(capsys, argv)
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def test_run_accepts_job_config(workdir):
    cfg = JobConfig(
        command="ruelle",
        spectrum_path=str(workdir / "spectrum.json"),
        sigma=(0,),
        s_grid=(4.4 + 0j,),
        lmax=20.0,
    )
    assert run(cfg) == 0
    with pytest.raises(ValidationError):
        run(JobConfig(command="ruelle", spectrum_path=str(workdir / "spectrum.json")))
    with pytest.raises(ValidationError):
        run(JobConfig(command="no-such-thing"))


def test_console_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "zetaflow.cli", "gen-spectrum", "--d", "3",
         "--count", "3", "--output", str(tmp_path / "s.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "s.json").read_text())["d"] == 3


def test_a_large_dimension_with_the_trivial_sigma_runs_in_seconds(tmp_path):
    # the trivial weight of D_12 is its own Weyl orbit; expanding it over
    # every sign mask and permutation would make 12! 2^12 tuples, so the
    # subprocess's timeout fails that instead of hanging the suite
    spectrum = str(tmp_path / "d25.json")
    save(synthesize(GroupData(25), 5, systole=0.5, seed=1), spectrum)
    code = (
        "import sys; from zetaflow import weight_multiplicities; from zetaflow.cli import main\n"
        "assert weight_multiplicities('D', (0,) * 12) == {(0,) * 12: 1}\n"
        "sys.exit(main(sys.argv[1:4] + ['--s', '30', '--lmax', '10'])"
        " or main(sys.argv[4:] + ['--t', '1']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "selberg", "--spectrum", spectrum,
         "heat-trace", "--spectrum", spectrum],
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split(",")[0] for row in rows] == ["s_re", "30.0", "s_re", "1.0"]


# a process's own command line, as the console script and the benchmark run it
_LAUNCH = "import sys; from zetaflow.cli import main; sys.exit(main())"


def test_the_factorization_check_at_d21_runs_in_seconds(tmp_path, capsys):
    # its exterior-power tables of D_10 hold large Weyl orbits; their
    # closures and sort on Fraction weights took about 20 s, on doubled int
    # coordinates a few
    spectrum = str(tmp_path / "d21.json")
    assert main(["gen-spectrum", "--d", "21", "--count", "5", "--seed", "1",
                 "--output", spectrum]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, "factorization-check", "--spectrum", spectrum,
         "--s", "30", "--lmax", "10"], capture_output=True, text=True, timeout=15,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("30.0,0.0,")
    assert proc.stderr.startswith("factorization check: max |difference| ")
    assert proc.stderr.endswith(": OK\n")


def _exit_cases(workdir):
    """A command line per way out of main: status 0, 1 and 2, and --help."""
    spectrum = str(workdir / "spectrum.json")
    return [
        ["selberg", "--spectrum", spectrum, "--s", "4", "--s", "5+1j"],
        ["selberg", "--s", "4"],
        ["selberg", "--spectrum", spectrum, "--s", "0.25"],
        ["--help"],
    ]


def test_a_command_line_run_prints_and_exits_as_main_in_process(workdir, capsys):
    cases = _exit_cases(workdir)
    for argv in cases:
        proc = subprocess.run([sys.executable, "-c", _LAUNCH, *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == _outcome(capsys, argv), argv
    assert [_outcome(capsys, argv)[0] for argv in cases] == [0, 1, 2, 0]


def test_a_long_table_arrives_whole_from_a_command_line_run(tmp_path, capsys):
    argv = ["plancherel", "--d", "5", "--sigma", "1,0"]
    for k in range(2000):
        argv += ["--s", f"{k / 7:.6f}+{k % 13}j"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == "" and len(out.splitlines()) == 2001
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    path = tmp_path / "long.csv"
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, *argv, "--output", str(path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert path.read_text() == out


def test_a_command_line_run_freezes_the_heap_on_every_way_out(workdir):
    # main() with no argv, then the freeze count; the last run's handler raises
    code = """if True:
        import gc, json, sys
        from zetaflow import cli
        frozen = []
        for argv in json.loads(sys.argv[1]) + [["gen-spectrum"]]:
            gc.unfreeze()
            sys.argv = ["zetaflow", *argv]
            if argv == ["gen-spectrum"]:
                cli.run = lambda config: 1 / 0
            try:
                cli.main()
            except (SystemExit, ZeroDivisionError):
                pass
            frozen.append(gc.get_freeze_count() > 0)
        print(json.dumps(frozen))
    """
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(_exit_cases(workdir))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True] * 5


def test_a_twisted_selberg_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma takes 10-25 ms and about 1.5 MB to import, and no command
    # needs it; class 3 gets a Jordan block, so the plan build also takes
    # its per-class multiplication route
    ls = synthesize(GroupData(3), 40, systole=0.5, seed=29, dim_chi=2)
    chi = ls.chi.copy()
    chi[3] = [[np.exp(0.3j), 1.0], [0.0, np.exp(0.3j)]]
    save(LengthSpectrum(gd=ls.gd, l0=ls.l0, angles=ls.angles, chi=chi, volume=ls.volume,
                        dim_chi=2), tmp_path / "twisted.json")
    argv = ["selberg", "--spectrum", str(tmp_path / "twisted.json"), "--s", "4",
            "--lmax", "20", "--tail-eps", "1"]
    code = ("import sys; from zetaflow.cli import main; "
            f"status = main({argv!r}); print(status, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


def _cold_run(argv: list[str]) -> tuple[int, set[str]]:
    """Exit status of one command run in a fresh interpreter, and the
    zetaflow modules it loaded."""
    code = (f"import json, sys; from zetaflow.cli import main; status = main({argv!r}); "
            "print(json.dumps([status, [m for m in sys.modules if m.startswith('zetaflow.')]]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    return status, {m.removeprefix("zetaflow.") for m in modules}


# the layers that only the heat, resolvent, continuation and verify commands run
_LAZY = {"verify", "continuation", "heat", "quadrature", "plancherel"}


@pytest.mark.parametrize("argv", [
    ["selberg", "--s", "4"],
    ["ruelle", "--s", "4"],
    ["log-derivative", "--s", "4"],
    ["factorization-check", "--s", "4.5", "--lmax", "24", "--tail-eps", "1e-2"],
    ["gen-spectrum", "--d", "3", "--count", "5"],
], ids=lambda argv: argv[0])
def test_series_and_synthesis_commands_load_no_lazy_layer(workdir, argv):
    if argv[0] != "gen-spectrum":
        argv = [*argv, "--spectrum", str(workdir / "spectrum.json")]
    status, modules = _cold_run([*argv, "--output", str(workdir / f"cold-{argv[0]}.out")])
    assert status == 0
    assert {"cli", "zeta", "spectra"} <= modules
    assert not modules & _LAZY
    # only the exterior-power factorization reads the branching layer
    assert ("branching" in modules) == (argv[0] == "factorization-check")


def test_heat_trace_loads_only_the_heat_layers(workdir):
    status, modules = _cold_run([
        "heat-trace", "--spectrum", str(workdir / "spectrum.json"), "--t", "0.5",
        "--output", str(workdir / "cold-heat.out"),
    ])
    assert status == 0
    assert {"heat", "plancherel"} <= modules
    assert not modules & {"verify", "continuation", "quadrature"}


def test_verify_runs_from_a_cold_start(workdir):
    status, modules = _cold_run([
        "verify", "--suite", "lemma6", "--output", str(workdir / "cold-verify.out"),
    ])
    assert status == 0 and "verify" in modules
    assert "ok" in (workdir / "cold-verify.out").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["plancherel", "continue"])
def test_an_overflowing_value_exits_two(workdir, capsys, command, fmt):
    # P(1e200) overflows to nan; the table would hold nan, or bare NaN tokens
    # that are not JSON
    argv = [command, "--d", "3", "--s", "2", "--s", "1e200", "--format", fmt]
    if command == "continue":
        argv += ["--eigen", str(workdir / "eig.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("domain error: the value at s = (1e+200+0j) overflows double "
                   "precision; move s toward the origin\n")


@pytest.mark.parametrize("anchor, fmt, shown", [
    ("1e200", "csv", "(1e+200+0j)"),
    ("1e300j", "json", "1e+300j"),
])
def test_an_overflowing_spectral_resolvent_exits_two(workdir, capsys, anchor, fmt, shown):
    # the product over the anchor squares overflows; the table would hold nan
    argv = ["resolvent", "--eigen", str(workdir / "eig.json"), "--anchor", anchor,
            "--anchor", "2", "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (f"domain error: the value at s = {shown} overflows double "
                   "precision; move s toward the origin\n")


def test_an_overflowing_geometric_resolvent_prints_no_warning(workdir):
    # the refusal came after a numpy RuntimeWarning on stderr; a fresh
    # interpreter shows stderr as a user sees it
    argv = ["resolvent", "--spectrum", str(workdir / "spectrum.json"), "--anchor", "1e200",
            "--anchor", "2"]
    proc = subprocess.run([sys.executable, "-m", "zetaflow.cli", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("domain error: the heat route at anchors (1e+200+0j), (2+0j) fails: "
                           "half-line integrand is non-finite at t = 1.0; move the anchors "
                           "toward the origin and the real axis\n")


def test_a_heat_route_overflow_names_the_anchors_not_t(workdir, capsys):
    # the identity term overflows at a quadrature node t ~ 1e-206, which the
    # user never set, so the refusal names the anchors instead
    argv = ["resolvent", "--spectrum", str(workdir / "spectrum.json"), "--anchor", "1e100",
            "--anchor", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("domain error: the heat route at anchors (1e+100+0j), (2+0j) fails: "
                   "identity heat term overflows at t = 2.2991262438375058e-206; move the "
                   "anchors toward the origin and the real axis\n")


def test_a_heat_tail_above_tail_eps_exits_two(workdir, capsys):
    argv = ["heat-trace", "--spectrum", str(workdir / "spectrum.json"), "--t", "0.5",
            "--tail-eps", "1e-300"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("domain error: certified heat tail ")
    assert err.endswith(" exceeds tail_eps 1.0e-300 at t = 0.5; raise lmax above 30\n")


def test_a_long_heat_time_has_a_tail(tmp_path, capsys):
    # lmax / 4t = 2.5 is below |rho| = 3: the kernel still beats every
    # class's powers, so the per-class tail holds
    path = str(tmp_path / "d7.json")
    assert main(["gen-spectrum", "--d", "7", "--count", "5", "--seed", "1", "--output", path]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, ["heat-trace", "--spectrum", path, "--t", "3", "--lmax", "30"])
    assert (code, err) == (0, "")
    [row] = out.splitlines()[1:]
    assert 0.0 < float(row.split(",")[4]) < 1e-8


def test_a_heat_class_with_no_tail_exits_two(tmp_path, capsys):
    # twists of norm up to 40 outgrow the kernel's e^{-(|rho| + lmax/4t) l0}
    # at t = 5, so some class has q_c >= 1
    path = str(tmp_path / "d5.json")
    assert main(["gen-spectrum", "--d", "5", "--count", "200", "--seed", "7", "--dim-chi", "2",
                 "--chi-norm", "40", "--output", path]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, ["heat-trace", "--spectrum", path, "--t", "5",
                                   "--tail-eps", "inf"])
    assert (code, out) == (2, "")
    assert err == ("domain error: the per-class tail past lmax = 30 is not a finite number, "
                   "so no tail bound holds; raise lmax above 30\n")


def test_a_heat_resolvent_with_too_few_anchors_exits_two(tmp_path, capsys):
    assert main(["gen-spectrum", "--d", "5", "--count", "20", "--output",
                 str(tmp_path / "d5.json")]) == 0
    argv = ["resolvent", "--spectrum", str(tmp_path / "d5.json"), "--anchor", "3",
            "--anchor", "4"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("domain error: need more than 2.5 anchors to cancel the small-time "
                   "divergence in dimension 5, got 2\n")


@pytest.fixture(scope="module")
def tiny_class(tmp_path_factory):
    """A d = 3 document whose shortest class is so short that e^{-l0}
    rounds to 1."""
    path = tmp_path_factory.mktemp("tiny") / "spectrum.json"
    save(LengthSpectrum(gd=GroupData(3), l0=[1e-20, 1.0], angles=[[0.5], [1.5]],
                        chi=np.ones((2, 1, 1)), volume=1.0, dim_chi=1), path)
    return path


@pytest.mark.parametrize("argv,tail", [
    (["selberg", "--s", "5"], "tail 1.515e+56 exceeds tail_eps 1.0e-08 at s = (5+0j)"),
    (["log-derivative", "--s", "5"], "tail 1.692e+37 exceeds tail_eps 1.0e-08 at s = (5+0j)"),
    (["heat-trace", "--t", "1e-21"], "heat tail 3.431e+46 exceeds tail_eps 1.0e-08 at t = 1e-21"),
    (["resolvent", "--anchor", "2", "--anchor", "3"],
     "tail 3.857e+37 exceeds tail_eps 1.0e-08 at s = (2+0j)"),
])
def test_a_class_too_short_for_a_det_floor_exits_two(tiny_class, capsys, argv, tail):
    # the class of length 1e-20 keeps its powers j <= 10 and drops the rest,
    # whose ratio q = e^{-a 1e-20} is within 1e-19 of 1, and the det floor
    # (1 - e^{-1e-19})^2 is 1e-38: the tail bound is far above tail_eps
    code, out, err = _run(capsys, [*argv, "--spectrum", str(tiny_class), "--lmax", "1e-19"])
    assert (code, out) == (2, "")
    advice = "" if argv[0] == "heat-trace" else " or move s to the right"
    assert err == f"domain error: certified {tail}; raise lmax above 1e-19{advice}\n"


def test_the_ruelle_tail_covers_what_a_class_too_short_drops(tiny_class, capsys):
    # class 0 keeps its powers j <= 10 of the ratio q = e^{-5e-20}; it drops
    # log(1 / (1 - q)) - sum_{j <= 10} q^j / j, about 41.51
    code, out, _ = _run(capsys, ["ruelle", "--s", "5", "--spectrum", str(tiny_class),
                                 "--lmax", "1e-19", "--tail-eps", "1e19"])
    assert code == 0
    [row] = out.splitlines()[1:]
    dropped = -math.log(-math.expm1(-5e-20)) - math.fsum(math.exp(-5e-20 * j) / j
                                                         for j in range(1, 11))
    assert dropped > 41.51
    assert float(row.split(",")[4]) >= dropped


# the option dests each command accepts: every one is read by its handler
# (--deterministic, accepted everywhere, changes nothing)
_COMMON = {"config", "output", "deterministic"}
_TABLE = _COMMON | {"format"}
_SEEDED = _COMMON | {"seed"}
_TRUNC = {"lmax", "tail_eps"}
_SERIES = _TABLE | _TRUNC | {"s_grid", "sigma", "spectrum_path"}
OPTIONS = {
    "gen-spectrum": _SEEDED | {"d", "count", "systole", "dim_chi", "chi_norm"},
    "plancherel": _TABLE | {"s_grid", "sigma", "d"},
    "selberg": _SERIES,
    "ruelle": _SERIES,
    "log-derivative": _SERIES,
    "heat-trace": _TABLE | _TRUNC | {"sigma", "spectrum_path", "t_grid"},
    "resolvent": _TABLE | _TRUNC | {"sigma", "spectrum_path", "eigen_path", "anchors"},
    "continue": _TABLE | {"s_grid", "sigma", "eigen_path", "d", "dim_chi", "volume"},
    "residues": _TABLE | {"sigma", "eigen_path", "d", "dim_chi", "volume"},
    "factorization-check": _SERIES | {"tol"},
    "verify": _SEEDED | {"suite"},
}

TABLE_COMMANDS = sorted(c for c, dests in OPTIONS.items() if "format" in dests)
TRUNCATED_COMMANDS = sorted(c for c, dests in OPTIONS.items() if "lmax" in dests)
# (command, flag, value) of every option taken off a command that never read it
REMOVED = (
    [(c, "--seed", "3") for c in TABLE_COMMANDS]
    + [(c, "--format", "json") for c in ("gen-spectrum", "verify")]
    + [(c, "--abscissa-margin", "0.5") for c in TRUNCATED_COMMANDS]
    + [("resolvent", "--d", "3")]
)


def _command_parsers(parser=None):
    parser = parser or build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _outcome(capsys, argv):
    """(exit status, stdout, stderr) of main(argv), --help's exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_a_command_parses_with_its_own_subparser_as_with_all_of_them(
        capsys, monkeypatch, tmp_path, command):
    (tmp_path / "key.json").write_text('{"deterministic": true, "no_such_key": 1}')
    (tmp_path / "list.json").write_text('{"output": ["a.csv", "b.csv"]}')
    argvs = [
        [command, "--help"],
        [command, "--no-such-option", "1"],
        [command, "--output"],
        [command, "--config", str(tmp_path / "key.json")],
        [command, "--config", str(tmp_path / "list.json")],
    ]
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda name=None: built.append(name) or build_parser(name))
    own = [_outcome(capsys, argv) for argv in argvs]
    assert built == [command] * len(argvs)
    [(name, _)] = _command_parsers(build_parser(command)).items()
    assert name == command
    monkeypatch.setattr(cli, "build_parser", lambda name=None: build_parser())
    assert own == [_outcome(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in own] == [0, 1, 1, 1, 1]


def test_help_no_command_and_an_unknown_command_build_every_subparser(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda name=None: built.append(name) or build_parser(name))
    code, out, _ = _outcome(capsys, ["--help"])
    assert code == 0 and all(command in out for command in OPTIONS)
    assert _outcome(capsys, []) == (1, "", "error: the following arguments are required: command\n")
    code, out, err = _outcome(capsys, ["no-such-command", "--s", "1"])
    assert (code, out) == (1, "") and all(repr(command) in err for command in OPTIONS)
    assert built == [None] * 3


def test_each_command_accepts_exactly_the_options_it_reads():
    accepted = {
        command: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        for command, p in _command_parsers().items()
    }
    assert accepted == OPTIONS
    assert sum(map(len, accepted.values())) == 96
    assert len(TABLE_COMMANDS) == 9 and len(REMOVED) == 18


# the config keys that differ from their flag, as README.md documents them;
# every other key is the long flag with underscores in place of dashes
KEY_FLAGS = {"s_grid": "--s", "t_grid": "--t", "anchors": "--anchor",
             "spectrum_path": "--spectrum", "eigen_path": "--eigen"}


def _flag(dest):
    return KEY_FLAGS.get(dest, "--" + dest.replace("_", "-"))


def test_config_keys_are_the_option_dests():
    for command, p in _command_parsers().items():
        for a in p._actions:
            if a.option_strings and a.dest not in ("help", "config"):
                assert a.option_strings == [_flag(a.dest)], (command, a.dest)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_the_options_and_their_defaults(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exit_.value.code == 0
    flags = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.M))
    assert flags == {"--help"} | {_flag(dest) for dest in OPTIONS[command]}
    text = " ".join(out.split())
    for dest in OPTIONS[command]:
        default = getattr(JobConfig, dest, None)
        if dest == "tail_eps":  # a job that gives none gets the truncation policy's
            default = TruncationPolicy.tail_eps
        if isinstance(default, (int, float, str)) and not isinstance(default, bool):
            assert f"(default {default})" in text, dest


def _readme_table(marker):
    """The rows, as lists of cells, of the first README table after the
    first line that holds marker."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line)
    rows = []
    for line in lines[start + 1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("| `"):
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_readme_tables_match_the_parser():
    commands = _command_parsers()
    assert [row[0] for row in _readme_table("## Command line")] == list(commands)
    renamed = {
        a.dest: a.option_strings[0]
        for p in commands.values() for a in p._actions
        if a.option_strings and a.option_strings[0] != "--" + a.dest.replace("_", "-")
        and a.dest != "help"
    }
    assert dict(_readme_table("except these five:")) == renamed


@pytest.mark.parametrize("command,flag,value", REMOVED)
def test_removed_option_is_rejected(tmp_path, capsys, command, flag, value):
    code, out, err = _run(capsys, [command, flag, value])
    assert code == 1 and out == "" and flag in err
    key = flag[2:].replace("-", "_")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    code, out, err = _run(capsys, [command, "--config", str(conf)])
    assert code == 1 and out == "" and repr(key) in err


def test_an_abbreviated_flag_is_refused(workdir, capsys):
    # a prefix is not read as the flag it starts: --spec is not --spectrum,
    # and --d is not --deterministic on a command without --d
    spectrum = str(workdir / "spectrum.json")
    for argv, named in ((["selberg", "--spec", spectrum, "--s", "3"], "--spec"),
                        (["selberg", "--spectrum", spectrum, "--s", "3", "--d"], "--d")):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "") and f"unrecognized arguments: {named}" in err


def test_no_tail_budget_admits_a_point_left_of_the_abscissa(workdir, capsys):
    # unitary twists in d = 3: the Selberg abscissa is 1
    code, out, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--s", "0.9",
        "--tail-eps", "inf",
    ])
    assert code == 2 and out == "" and "abscissa" in err


def test_config_file_supplies_required_options(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"d": 3, "count": 4, "seed": 7}))
    assert main(["gen-spectrum", "--config", str(conf), "--output", str(tmp_path / "a")]) == 0
    assert main(["gen-spectrum", "--d", "3", "--count", "4", "--seed", "7",
                 "--output", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_config_values_parse_like_their_flags(workdir, capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "tail_eps": "1e-3", "lmax": 25, "s_grid": ["4", 4.5], "sigma": 0,
        "deterministic": True, "format": "json",
    }))
    spectrum = ["--spectrum", str(workdir / "spectrum.json")]
    code, from_file, _ = _run(capsys, ["selberg", *spectrum, "--config", str(conf)])
    assert code == 0
    code, from_flags, _ = _run(capsys, [
        "selberg", *spectrum, "--tail-eps", "1e-3", "--lmax", "25", "--s", "4", "--s", "4.5",
        "--sigma", "0", "--deterministic", "--format", "json",
    ])
    assert code == 0 and from_file == from_flags


@pytest.mark.parametrize("key,value", [
    ("lmax", "abc"),
    ("lmax", True),
    ("lmax", None),
    ("lmax", [25.0]),
    ("tail_eps", {"value": 1e-3}),
    ("s_grid", 3),
    ("s_grid", ["3", "x"]),
    ("sigma", [0]),
    ("format", "xml"),
    ("deterministic", False),
    ("output", ["a", "b"]),
])
def test_bad_config_value_is_rejected(workdir, capsys, tmp_path, key, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: value}))
    code, out, err = _run(capsys, [
        "selberg", "--spectrum", str(workdir / "spectrum.json"), "--config", str(conf),
    ])
    assert code == 1 and out == "" and err.startswith("error: ") and repr(key) in err


def test_heat_time_refusals(workdir, capsys, tmp_path):
    spectrum = str(workdir / "spectrum.json")
    code, out, err = _run(capsys, ["heat-trace", "--spectrum", spectrum, "--t", "nan"])
    assert (code, out, err) == (1, "", "error: heat time must be positive and finite, got nan\n")
    # every finite t has a value and a tail, also where 4 pi t overflows: far
    # out, the trace and its tail fall like t^(-1/2)
    rows = {}
    for t in ("1e300", "1e308"):
        code, out, err = _run(capsys, ["heat-trace", "--spectrum", spectrum, "--t", t])
        assert (code, err) == (0, "")
        rows[t] = [float(x) for x in out.splitlines()[1].split(",")[2:]]
    assert rows["1e300"][2] > 0.0
    for far, near in zip(rows["1e308"], rows["1e300"]):
        assert math.isclose(far, 1e-4 * near, rel_tol=1e-12)
    assert main(["gen-spectrum", "--d", "7", "--count", "5", "--seed", "1",
                 "--output", str(tmp_path / "d7.json")]) == 0
    capsys.readouterr()
    # t^-(m + 1/2) leaves the float range: a refusal naming t, at d = 3 and 7
    for path in (spectrum, str(tmp_path / "d7.json")):
        code, out, err = _run(capsys, ["heat-trace", "--spectrum", path, "--t", "1e-300"])
        assert code == 2 and out == ""
        assert err == "domain error: identity heat term overflows at t = 1e-300; raise t\n"


@pytest.mark.parametrize("flags, field", [
    (["--volume", "nan"], "volume"),
    (["--volume", "-2"], "volume"),
    (["--volume", "inf"], "volume"),
    (["--dim-chi", "0"], "dim_chi"),
    (["--dim-chi", "-1"], "dim_chi"),
])
def test_continuation_constants_are_validated(workdir, capsys, flags, field):
    eig = str(workdir / "eig.json")
    for argv in (["continue", "--s", "0.5"], ["residues"]):
        code, out, err = _run(capsys, [*argv, "--eigen", eig, "--d", "3", *flags])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}: expected a positive")


@pytest.mark.parametrize("chi_norm, want", [
    ("nan", "a finite number, got nan"),
    ("inf", "a finite number, got inf"),
    ("0.5", ">= 1, got 0.5"),
])
def test_gen_spectrum_refuses_a_bad_chi_norm(capsys, chi_norm, want):
    code, out, err = _run(capsys, ["gen-spectrum", "--d", "3", "--count", "3",
                                   "--chi-norm", chi_norm])
    assert (code, out, err) == (1, "", f"error: chi_norm: expected {want}\n")


@pytest.mark.parametrize("argv", [
    ["plancherel", "--d", "3", "--s", "1"],
    ["gen-spectrum", "--d", "3", "--count", "3"],
    ["verify", "--suite", "branching"],
])
def test_output_to_an_unwritable_path_exits_one(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = _run(capsys, argv + ["--output", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("d, limit, systole", [("3", "354.9", "355"), ("7", "118.3", "118.4")])
def test_gen_spectrum_refuses_an_overflowing_systole(capsys, d, limit, systole):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["gen-spectrum", "--d", d, "--count", "3",
                                       "--systole", systole])
    assert (code, out) == (1, "")
    assert err == (f"error: systole: exp(2|rho| * systole) overflows above {limit} "
                   f"at d = {d}, got {float(systole)!r}\n")
    # under the limit the lengths start at the systole
    assert main(["gen-spectrum", "--d", d, "--count", "3", "--systole", "118"]) == 0
    assert '"l0": 118' in capsys.readouterr().out
