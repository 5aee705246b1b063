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
batch-harness compatibility; it changes nothing. Each command accepts
only the options it reads: --seed only gen-spectrum and verify, --format
only the nine table commands.

A JSON config file may supply any option of the command but not the
command itself; explicit flags win on conflict. Its keys are the option
dests: the long flag with underscores in place of dashes, except s_grid
(--s), t_grid (--t), anchors (--anchor), spectrum_path (--spectrum) and
eigen_path (--eigen). Each value goes through its flag's own parser: a
string or number stands for the flag's text, a list for a repeatable
flag's values, true for --deterministic.

Only the modules the evaluating commands share are imported at the top.
The plancherel, heat, continuation and verify layers are imported inside
the commands that run them, so a job loads only what it runs; a fresh
interpreter compiles every module it imports when no bytecode is cached.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
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
from .weights import GroupData
from .zeta import (
    TruncationPolicy,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
)

# the config keys that differ from their flag; every other key is the
# long flag with underscores in place of dashes
_FLAGS = {"s_grid": "--s", "t_grid": "--t", "anchors": "--anchor",
          "spectrum_path": "--spectrum", "eigen_path": "--eigen"}


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
    tail_eps: float = 1e-8
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


def _nonnegative(convert: type, flag: str):
    """The parser of a flag whose value is convert(text) and at least 0;
    NaN and text that convert refuses are refused too."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not value >= 0:
            raise ValidationError(
                f"{flag}: expected a nonnegative {convert.__name__}, got {text!r}"
            )
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit with status 2
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file of option defaults; flags win")
    common.add_argument("--output", help="destination path (default: stdout)")
    common.add_argument(
        "--deterministic",
        action="store_const",
        const=True,
        help="accepted for batch harnesses; changes nothing, output is always deterministic",
    )

    table = _Parser(add_help=False, parents=[common])
    table.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")

    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument(
        "--seed", type=_nonnegative(int, "--seed"), help="seed of the random draws (default 0)"
    )

    trunc = _Parser(add_help=False)
    trunc.add_argument(
        "--lmax", type=float, help="length cutoff (default: max(30, 4x longest primitive))"
    )
    trunc.add_argument("--tail-eps", type=float, help="certified tail budget (default 1e-8)")

    grid = _Parser(add_help=False)
    grid.add_argument(
        "--s", dest="s_grid", action="append", type=_parse_complex, metavar="S",
        help="evaluation point, repeatable (accepts complex such as 2.5+1j)",
    )

    sigma = _Parser(add_help=False)
    sigma.add_argument(
        "--sigma", type=_parse_sigma, metavar="A,B,...",
        help="twist type as comma-separated rationals (default: all zeros)",
    )

    spectrum = _Parser(add_help=False)
    spectrum.add_argument("--spectrum", dest="spectrum_path", help="length spectrum JSON file")

    eigen = _Parser(add_help=False)
    eigen.add_argument("--eigen", dest="eigen_path", help="eigenvalue spectrum JSON file")
    eigen.add_argument("--d", type=int, help="ambient odd dimension")

    continued = _Parser(add_help=False, parents=[eigen])
    continued.add_argument("--dim-chi", type=int, help="twist dimension (default 1)")
    continued.add_argument("--volume", type=float, help="manifold volume (default 1)")

    p = _Parser(prog="zetaflow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-spectrum", parents=[seeded], help="synthesize a length spectrum")
    g.add_argument("--d", type=int)
    g.add_argument("--count", type=int, help="number of primitive classes")
    g.add_argument("--systole", type=float, help="shortest primitive length (default 0.5)")
    g.add_argument("--dim-chi", type=int, help="twist dimension (default 1)")
    g.add_argument("--chi-norm", type=float, help="twist operator norm bound (default 1)")

    g = sub.add_parser("plancherel", parents=[table, grid, sigma], help="evaluate the density")
    g.add_argument("--d", type=int)

    for name, doc in (
        ("selberg", "log of the twisted Selberg zeta"),
        ("ruelle", "log of the twisted Ruelle zeta"),
        ("log-derivative", "logarithmic derivative of the Selberg zeta"),
    ):
        sub.add_parser(name, parents=[table, grid, sigma, spectrum, trunc], help=doc)

    g = sub.add_parser(
        "heat-trace", parents=[table, sigma, spectrum, trunc], help="geometric heat trace"
    )
    g.add_argument(
        "--t", dest="t_grid", action="append", type=float, metavar="T",
        help="heat time, repeatable; written to the s_re column",
    )

    g = sub.add_parser(
        "resolvent",
        parents=[table, sigma, spectrum, eigen, trunc],
        help="anchored resolvent trace; rows are the geometric then the heat "
        "route for a length spectrum, one spectral row for an eigen file; "
        "the s columns echo the first anchor",
    )
    g.add_argument(
        "--anchor", dest="anchors", action="append", type=_parse_complex, metavar="S",
        help="anchor point, repeatable (at least two)",
    )

    sub.add_parser(
        "continue",
        parents=[table, grid, sigma, continued],
        help="evaluate the continued log derivative from eigenvalue data",
    )

    sub.add_parser(
        "residues",
        parents=[table, sigma, continued],
        help="contour residues at the continuation poles; rows hold the pole, "
        "the measured residue, and its distance to the nearest integer",
    )

    g = sub.add_parser(
        "factorization-check",
        parents=[table, grid, sigma, spectrum, trunc],
        help="Ruelle zeta against its alternating Selberg factorization",
    )
    g.add_argument(
        "--tol", type=_nonnegative(float, "--tol"),
        help="largest allowed difference (default 1e-8)",
    )

    g = sub.add_parser("verify", parents=[seeded], help="run numerical verification suites")
    g.add_argument("--suite", help="suite name or 'all' (default)")

    return p


def _config_value(parser: argparse.ArgumentParser, command: str, key: str, value: object):
    """The config value of option key, parsed by the option's flag as the
    command line would parse it."""
    flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
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


def _length_spectrum(cfg: JobConfig) -> LengthSpectrum:
    if cfg.spectrum_path is None:
        raise ValidationError(f"{cfg.command} requires --spectrum")
    ls = load_length_spectrum(cfg.spectrum_path)
    if cfg.d is not None and cfg.d != ls.gd.d:
        raise ValidationError(
            f"--d {cfg.d} contradicts dimension {ls.gd.d} recorded in {cfg.spectrum_path}"
        )
    return ls


def _policy(cfg: JobConfig, ls: LengthSpectrum) -> TruncationPolicy:
    lmax = cfg.lmax
    if lmax is None:
        lmax = 30.0
        if ls.l0.size:
            lmax = max(lmax, 4.0 * float(ls.l0.max()))
    return TruncationPolicy(lmax=lmax, tail_eps=cfg.tail_eps)


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


def _cmd_series(cfg: JobConfig) -> int:
    op = {"selberg": selberg_log, "ruelle": ruelle_log, "log-derivative": log_derivative}[
        cfg.command
    ]
    grid = _grid(cfg)
    ls = _length_spectrum(cfg)
    sigma = _sigma_for(cfg, ls.gd)
    tp = _policy(cfg, ls)
    rows = [ResultRow(s, *op(s, sigma, ls, tp)) for s in grid]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_heat_trace(cfg: JobConfig) -> int:
    from .heat import geometric_heat_trace

    ls = _length_spectrum(cfg)
    sigma = _sigma_for(cfg, ls.gd)
    tp = _policy(cfg, ls)
    if not cfg.t_grid:
        raise ValidationError("heat-trace requires at least one --t time")
    rows = []
    for t in cfg.t_grid:
        ev = geometric_heat_trace(ls, sigma, t, tp)
        rows.append(ResultRow(complex(t), ev.total, ev.tail_bound))
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
        ls = _length_spectrum(cfg)
        sigma = _sigma_for(cfg, ls.gd)
        tp = _policy(cfg, ls)
        geo = resolvent_trace_geometric(ls, sigma, aset, tp)
        heat, diff = resolvent_trace_via_heat(ls, sigma, aset, tp)
        rows = [ResultRow(mark, geo.value, geo.tail_bound), ResultRow(mark, heat, abs(diff))]
    else:
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
    return continued_from(es, gd, _sigma_for(cfg, gd), cfg.dim_chi, cfg.volume)


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
    ls = _length_spectrum(cfg)
    sigma = _sigma_for(cfg, ls.gd)
    tp = _policy(cfg, ls)
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


_HANDLERS = {
    "gen-spectrum": _cmd_gen_spectrum,
    "plancherel": _cmd_plancherel,
    "selberg": _cmd_series,
    "ruelle": _cmd_series,
    "log-derivative": _cmd_series,
    "heat-trace": _cmd_heat_trace,
    "resolvent": _cmd_resolvent,
    "continue": _cmd_continue,
    "residues": _cmd_residues,
    "factorization-check": _cmd_factorization_check,
    "verify": _cmd_verify,
}


def run(config: JobConfig) -> int:
    """Execute one configured command and return its exit status."""
    if config.command not in _HANDLERS:
        raise ValidationError(f"unknown command {config.command!r}")
    # a value that overflows is refused by the table writer, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _HANDLERS[config.command](config)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        return run(_merge_config(parser, parser.parse_args(argv)))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
