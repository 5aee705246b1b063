"""Command line surface.

One subcommand per capability: spectrum synthesis, density and zeta
evaluations, heat and resolvent traces, analytic continuation, residues,
the factorization cross-check, and the verification suites. Evaluation
commands write tables through emit_table; everything else prints text.

Exit statuses are exhaustive: 0 on success, 1 on invalid input or a failed
check, 2 on a numerical domain refusal (the message names the offending
point and what to change). Every table command refuses, with status 2, a
value that overflows double precision, before anything is written.

All output is deterministic for a fixed command line: random draws are
seeded and every series is summed serially in a fixed order; no
environment variable is read. Every command accepts --deterministic for
batch-harness compatibility; it changes nothing.

Two tables declare the command line once: _OPTIONS holds each option's
flag and argparse keywords under its dest, and _COMMANDS holds each
command's help, the dests of the options it reads, and its handler. A
command accepts no other option: --seed only gen-spectrum and verify,
--format only the nine table commands. resolvent reads --sigma, --lmax
and --tail-eps on its --spectrum route only, and refuses them with --eigen.
Every job over a length spectrum reads it, sigma and lmax in _spectrum_job.

A JSON config file may supply any option of the command but not the
command itself; explicit flags win on conflict. Its keys are the option
dests, the keys of _OPTIONS. Each value goes through its flag's own
parser: a string or number stands for the flag's text, a list for a
repeatable flag's values, true for --deterministic.

A job builds only the subparser of the command it names first; --help,
no arguments and an unknown command build every command's.

Only the modules the evaluating commands share are imported at the top.
The plancherel, heat, continuation and verify layers are imported inside
the commands that run them, so a job loads only what it runs; a fresh
interpreter compiles every module it imports when no bytecode is cached.

A command-line run, main() with no argv, freezes the garbage collector's
heap as it returns: the process exits next, and the interpreter's
shutdown collections then skip the objects still alive, some 22,000 of
numpy and this package, that the operating system reclaims with the
process anyway. Everything else of the exit is kept: atexit handlers,
the flush of stdout and stderr, the status. main(argv) with a list runs in
a process that goes on, and leaves the collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .spectra import (
    LengthSpectrum,
    length_spectrum_to_json,
    load_eigen_spectrum,
    load_length_spectrum,
    synthesize,
)
from .tables import ResultRow, emit_table, write_text
from .weights import GroupData, weyl_action
from .zeta import (
    TruncationPolicy,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
)


@dataclass(frozen=True)
class JobConfig:
    command: str
    d: int | None = None
    sigma: tuple[Fraction, ...] | None = None
    spectrum_path: str | None = None
    eigen_path: str | None = None
    s_grid: tuple[complex, ...] = ()
    t_grid: tuple[float, ...] = ()
    anchors: tuple[complex, ...] = ()
    lmax: float | None = None
    tail_eps: float | None = None  # None: TruncationPolicy's default
    output: str | None = None
    format: str = "csv"
    seed: int = 0
    deterministic: bool = False
    count: int | None = None
    systole: float = 0.5
    dim_chi: int = 1
    chi_norm: float = 1.0
    volume: float = 1.0
    suite: str = "all"
    tol: float = 1e-8


def _parse_complex(text: str) -> complex:
    try:
        z = complex(str(text).replace(" ", ""))
    except ValueError:
        raise ValidationError(f"cannot parse {text!r} as a complex number") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"non-finite evaluation point {text!r}")
    return z


def _parse_sigma(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in str(text).split(","))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(
            f"cannot parse {text!r} as a comma-separated list of rationals"
        ) from None


def _nonnegative(convert: type, dest: str):
    """The parser of option dest, whose value is convert(text) and at least
    0; NaN and text that convert refuses are refused too."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not value >= 0:
            raise ValidationError(
                f"{_OPTIONS[dest][0]}: expected a nonnegative {convert.__name__}, got {text!r}"
            )
        return value

    return parse


def _is_number(text: str) -> bool:
    try:
        complex(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # argparse takes a token that starts with "-" for a value only where
        # its private _negative_number_matcher (Python 3.11) matches, and its
        # own pattern takes -N and -N.N alone; matching every number that
        # complex() reads, float's included, lets "--tol -1e-3" reach the
        # flag's parser as "--tol=-1e-3" does
        self._negative_number_matcher = SimpleNamespace(match=_is_number)

    def error(self, message: str) -> None:  # argparse would exit with status 2
        raise ValidationError(message)


# every option by its dest, which is also its config key and its JobConfig
# field: (flag, argparse keywords); build_parser appends JobConfig's default
# to the help
_OPTIONS = {
    "config": ("--config", dict(help="JSON file of option defaults; flags win")),
    "output": ("--output", dict(help="destination path (default: stdout)")),
    "deterministic": ("--deterministic", dict(action="store_const", const=True, help=(
        "accepted for batch harnesses; changes nothing, output is always deterministic"))),
    "format": ("--format", dict(choices=("csv", "json"), help="table format")),
    "seed": ("--seed", dict(type=_nonnegative(int, "seed"), help="seed of the random draws")),
    "s_grid": ("--s", dict(action="append", type=_parse_complex, metavar="S", help=(
        "evaluation point, repeatable (accepts complex such as 2.5+1j)"))),
    "t_grid": ("--t", dict(action="append", type=float, metavar="T", help=(
        "heat time, repeatable; written to the s_re column"))),
    "anchors": ("--anchor", dict(action="append", type=_parse_complex, metavar="S", help=(
        "anchor point, repeatable (at least two)"))),
    "sigma": ("--sigma", dict(type=_parse_sigma, metavar="A,B,...", help=(
        "twist type as comma-separated rationals (default: all zeros)"))),
    "spectrum_path": ("--spectrum", dict(help="length spectrum JSON file")),
    "eigen_path": ("--eigen", dict(help="eigenvalue spectrum JSON file")),
    "d": ("--d", dict(type=int, help="ambient odd dimension")),
    "lmax": ("--lmax", dict(type=float, help=(
        "length cutoff (default: max(30, 4x longest primitive))"))),
    "tail_eps": ("--tail-eps", dict(type=float, help=(
        f"certified tail budget (default {TruncationPolicy.tail_eps})"))),
    "count": ("--count", dict(type=int, help="number of primitive classes")),
    "systole": ("--systole", dict(type=float, help="shortest primitive length")),
    "dim_chi": ("--dim-chi", dict(type=int, help="twist dimension")),
    "chi_norm": ("--chi-norm", dict(type=float, help="twist operator norm bound")),
    "volume": ("--volume", dict(type=float, help="manifold volume")),
    "tol": ("--tol", dict(type=_nonnegative(float, "tol"), help="largest allowed difference")),
    "suite": ("--suite", dict(help="suite name or 'all'")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser: every command's subparser, or only that of
    command when one is named. A command's subparser parses, refuses and
    prints its help alike whichever others are built beside it."""
    p = _Parser(prog="zetaflow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    commands = _COMMANDS if command is None else {command: _COMMANDS[command]}
    for name, (doc, dests, _handler) in commands.items():
        # no abbreviations: a flag a command lacks is refused by its own name,
        # never read as another flag it prefixes (--d as --deterministic)
        g = sub.add_parser(name, help=doc, allow_abbrev=False)
        for dest in dests:
            flag, keywords = _OPTIONS[dest]
            default = getattr(JobConfig, dest, None)
            if isinstance(default, (int, float, str)) and not isinstance(default, bool):
                keywords = {**keywords, "help": f"{keywords['help']} (default {default})"}
            g.add_argument(flag, dest=dest, **keywords)
    return p


def _config_value(parser: argparse.ArgumentParser, command: str, key: str, value: object):
    """The config value of option key, parsed by the option's flag as the
    command line would parse it."""
    flag = _OPTIONS[key][0]
    items = value if isinstance(value, list) else [value]
    if value is True:
        tokens = [flag]
    elif all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in items):
        tokens = [f"{flag}={v}" for v in items]
    else:
        raise ValidationError(f"config key {key!r}: cannot use {json.dumps(value)}")
    try:
        parsed = getattr(parser.parse_args([command, *tokens]), key)
    except ValidationError as exc:
        raise ValidationError(f"config key {key!r}: {exc}") from None
    if parsed is not None and isinstance(parsed, list) != isinstance(value, list):
        raise ValidationError(
            f"config key {key!r}: expected " + ("a list" if isinstance(parsed, list) else "one value")
        )
    return parsed


def _merge_config(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> JobConfig:
    values = vars(ns)
    path = values.pop("config", None)
    if path:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in values or key == "command":
                raise ValidationError(f"config key {key!r} is not an option of {ns.command}")
            value = _config_value(parser, ns.command, key, value)
            if values[key] is None:
                values[key] = value
    return JobConfig(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in values.items() if v is not None
    })


def _group(cfg: JobConfig) -> GroupData:
    if cfg.d is None:
        raise ValidationError(f"{cfg.command} requires --d")
    return GroupData(cfg.d)


def _sigma_for(cfg: JobConfig, gd: GroupData) -> tuple[Fraction, ...]:
    return cfg.sigma if cfg.sigma is not None else (Fraction(0),) * gd.n


def _spectrum_job(cfg: JobConfig) -> tuple[LengthSpectrum, tuple, TruncationPolicy]:
    """The length spectrum, sigma and truncation policy of a --spectrum job;
    lmax is max(30, 4x longest primitive) by default."""
    if cfg.spectrum_path is None:
        raise ValidationError(f"{cfg.command} requires --spectrum")
    ls = load_length_spectrum(cfg.spectrum_path)
    lmax = cfg.lmax
    if lmax is None:
        lmax = max(30.0, 4.0 * float(ls.l0.max(initial=0.0)))
    given = {} if cfg.tail_eps is None else {"tail_eps": cfg.tail_eps}
    return ls, _sigma_for(cfg, ls.gd), TruncationPolicy(lmax=lmax, **given)


def _grid(cfg: JobConfig) -> tuple[complex, ...]:
    if not cfg.s_grid:
        raise ValidationError(f"{cfg.command} requires at least one --s point")
    return cfg.s_grid


def _cmd_gen_spectrum(cfg: JobConfig) -> int:
    """Write a synthetic spectrum's document: byte for byte what
    json.dumps(doc, indent=1) writes, plus a final newline, so any JSON
    tool may re-serialize it."""
    gd = _group(cfg)
    if cfg.count is None:
        raise ValidationError("gen-spectrum requires --count")
    ls = synthesize(gd, cfg.count, cfg.systole, cfg.seed, cfg.dim_chi, cfg.chi_norm)
    write_text(length_spectrum_to_json(ls) + "\n", cfg.output)
    return 0


def _cmd_plancherel(cfg: JobConfig) -> int:
    from .plancherel import plancherel_polynomial

    gd = _group(cfg)
    P = plancherel_polynomial(gd, _sigma_for(cfg, gd))
    rows = [ResultRow(s, P(s), 0.0) for s in _grid(cfg)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_series(op, cfg: JobConfig) -> int:
    grid = _grid(cfg)
    ls, sigma, tp = _spectrum_job(cfg)
    rows = [ResultRow(s, *op(s, sigma, ls, tp)) for s in grid]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_heat_trace(cfg: JobConfig) -> int:
    from .heat import geometric_heat_trace

    if not cfg.t_grid:
        raise ValidationError("heat-trace requires at least one --t time")
    ls, sigma, tp = _spectrum_job(cfg)
    values = geometric_heat_trace(ls, sigma, cfg.t_grid, tp)
    rows = [ResultRow(complex(t), *value) for t, value in zip(cfg.t_grid, values)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_resolvent(cfg: JobConfig) -> int:
    from .continuation import (
        anchor_set,
        resolvent_trace_geometric,
        resolvent_trace_spectral,
        resolvent_trace_via_heat,
    )

    if len(cfg.anchors) < 2:
        raise ValidationError("resolvent requires at least two --anchor points")
    aset = anchor_set(cfg.anchors)
    if (cfg.spectrum_path is None) == (cfg.eigen_path is None):
        raise ValidationError("resolvent takes exactly one of --spectrum or --eigen")
    mark = cfg.anchors[0]
    if cfg.spectrum_path is not None:
        ls, sigma, tp = _spectrum_job(cfg)
        rows = [ResultRow(mark, *route(ls, sigma, aset, tp))
                for route in (resolvent_trace_geometric, resolvent_trace_via_heat)]
    else:
        for dest in ("sigma", *_TRUNC):
            if getattr(cfg, dest) is not None:
                raise ValidationError(
                    f"resolvent --eigen does not read {_OPTIONS[dest][0]}; only --spectrum does"
                )
        es = load_eigen_spectrum(cfg.eigen_path)
        rows = [ResultRow(mark, resolvent_trace_spectral(es, aset), 0.0)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _continued(cfg: JobConfig):
    from .continuation import continued_from

    if cfg.eigen_path is None:
        raise ValidationError(f"{cfg.command} requires --eigen")
    es = load_eigen_spectrum(cfg.eigen_path)
    gd = _group(cfg)
    sigma = gd.validate_m_weight(_sigma_for(cfg, gd))
    if sigma[-1]:
        # for sigma != w sigma the eigen data may be those of sigma or of
        # sigma + w sigma, and neither the file nor the command says which
        raise ValidationError(
            f"{cfg.command} reads eigen data of a sigma equal to w sigma only (last coordinate 0); "
            f"sigma = ({', '.join(map(str, sigma))}) has "
            f"w sigma = ({', '.join(map(str, weyl_action(sigma)))})"
        )
    return continued_from(es, gd, sigma, cfg.dim_chi, cfg.volume)


def _cmd_continue(cfg: JobConfig) -> int:
    grid = _grid(cfg)
    cl = _continued(cfg)
    rows = [ResultRow(s, cl(s), 0.0) for s in grid]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_residues(cfg: JobConfig) -> int:
    from .continuation import contour_residue, singularities

    cl = _continued(cfg)
    rows = []
    for point, _order in singularities(cl):
        raw = contour_residue(cl, point)
        rows.append(ResultRow(point, raw, abs(raw - round(raw.real))))
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_factorization_check(cfg: JobConfig) -> int:
    grid = _grid(cfg)
    ls, sigma, tp = _spectrum_job(cfg)
    rows = []
    worst = 0.0
    for s in grid:
        direct = ruelle_log(s, sigma, ls, tp)
        split = ruelle_factorized_log(s, sigma, ls, tp)
        diff = direct.value - split.value
        worst = max(worst, abs(diff))
        rows.append(ResultRow(s, diff, direct.tail_bound + split.tail_bound))
    emit_table(rows, cfg.format, cfg.output)
    ok = worst <= cfg.tol
    print(
        f"factorization check: max |difference| {worst:.3e}, tolerance {cfg.tol:.1e}: "
        + ("OK" if ok else "FAIL"),
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_verify(cfg: JobConfig) -> int:
    from .verify import format_results, run_suite

    results = run_suite(cfg.suite, cfg.seed)
    write_text(format_results(results), cfg.output)
    return 0 if all(r.passed for r in results) else 1


_COMMON = ("config", "output", "deterministic")
_TABLE = (*_COMMON, "format")
_SEEDED = (*_COMMON, "seed")
_TRUNC = ("lmax", "tail_eps")
_SERIES = (*_TABLE, "s_grid", "sigma", "spectrum_path", *_TRUNC)
_CONTINUED = (*_TABLE, "sigma", "eigen_path", "d", "dim_chi", "volume")

# every command: (help, the dests of the options it reads, handler). A
# series handler names its evaluator, which is looked up when the job runs,
# so a wrapper later bound over this module's name (as the benchmark's
# tracer binds one) sees the call.
_COMMANDS = {
    "gen-spectrum": ("synthesize a length spectrum", (
        *_SEEDED, "d", "count", "systole", "dim_chi", "chi_norm"), _cmd_gen_spectrum),
    "plancherel": ("evaluate the density", (*_TABLE, "s_grid", "sigma", "d"), _cmd_plancherel),
    "selberg": ("log of the twisted Selberg zeta", _SERIES,
                lambda cfg: _cmd_series(selberg_log, cfg)),
    "ruelle": ("log of the twisted Ruelle zeta", _SERIES,
               lambda cfg: _cmd_series(ruelle_log, cfg)),
    "log-derivative": ("logarithmic derivative of the Selberg zeta", _SERIES,
                       lambda cfg: _cmd_series(log_derivative, cfg)),
    "heat-trace": ("geometric heat trace", (
        *_TABLE, "sigma", "spectrum_path", *_TRUNC, "t_grid"), _cmd_heat_trace),
    "resolvent": (
        "anchored resolvent trace; rows are the geometric then the heat "
        "route for a length spectrum, one spectral row for an eigen file; "
        "the s columns echo the first anchor",
        (*_TABLE, "sigma", "spectrum_path", "eigen_path", *_TRUNC, "anchors"),
        _cmd_resolvent,
    ),
    "continue": ("evaluate the continued log derivative from eigenvalue data",
                 (*_CONTINUED, "s_grid"), _cmd_continue),
    "residues": (
        "contour residues at the continuation poles; rows hold the pole, "
        "the measured residue, and its distance to the nearest integer",
        _CONTINUED,
        _cmd_residues,
    ),
    "factorization-check": ("Ruelle zeta against its alternating Selberg factorization",
                            (*_SERIES, "tol"), _cmd_factorization_check),
    "verify": ("run numerical verification suites", (*_SEEDED, "suite"), _cmd_verify),
}


def run(config: JobConfig) -> int:
    """Execute one configured command and return its exit status."""
    if config.command not in _COMMANDS:
        raise ValidationError(f"unknown command {config.command!r}")
    # a value that overflows is refused by the table writer, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _COMMANDS[config.command][2](config)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit status.

    With argv None the command line is the process's own, sys.argv[1:], as
    the zetaflow console script and ``sys.exit(main())`` run it, and the
    process exits once main returns. main then freezes the collector's
    heap on every way out (a status, --help's SystemExit, an escaping
    exception), so the shutdown collections do not walk and free, one by
    one, objects the process's exit reclaims at once: about 25 ms of a
    one-point job. A caller that passes argv goes on running, as tests and
    in-process harnesses do, and its collector is left untouched.
    """
    if argv is not None:
        return _main(list(argv))
    try:
        return _main(sys.argv[1:])
    finally:
        gc.freeze()


def _main(argv: list[str]) -> int:
    try:
        # --help, no arguments and an unknown command need every command
        parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
        return run(_merge_config(parser, parser.parse_args(argv)))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
