"""Command line surface.

One subcommand per capability: spectrum synthesis, density and zeta
evaluations, heat and resolvent traces, analytic continuation, residues,
the factorization cross-check, and the verification suites. Evaluation
commands write tables through emit_table; everything else prints text.

Exit statuses are exhaustive: 0 on success, 1 on invalid input or a failed
check, 2 on a numerical domain refusal (the message names the offending
point and what to change).

All output is deterministic for a fixed command line: random draws are
seeded and every series is summed serially in a fixed order; no
environment variable is read. The --deterministic flag asserts this
contract; it is accepted on every command for batch-harness
compatibility.

A JSON config file may supply any long option of the command (keys use
underscores in place of dashes), but not the command itself; explicit
flags win on conflict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .continuation import (
    anchor_set,
    continued_from,
    contour_residue,
    resolvent_trace_geometric,
    resolvent_trace_spectral,
    resolvent_trace_via_heat,
    singularities,
)
from .errors import DomainError, ValidationError
from .heat import geometric_heat_trace
from .plancherel import plancherel_polynomial
from .spectra import (
    LengthSpectrum,
    length_spectrum_to_dict,
    load_eigen_spectrum,
    load_length_spectrum,
    synthesize,
)
from .tables import ResultRow, emit_table
from .verify import format_results, run_suite
from .weights import GroupData
from .zeta import (
    TruncationPolicy,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
)

_EVAL_COMMANDS = ("plancherel", "selberg", "ruelle", "log-derivative", "continue")


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
    abscissa_margin: float = 0.0
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit with status 2
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file of option defaults; flags win")
    common.add_argument("--output", help="destination path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")
    common.add_argument("--seed", type=int, help="seed for commands that draw randomness")
    common.add_argument(
        "--deterministic",
        action="store_const",
        const=True,
        help="assert byte-identical output across runs and worker counts (always holds)",
    )

    trunc = _Parser(add_help=False)
    trunc.add_argument("--lmax", type=float, help="length cutoff (default: 4x longest primitive)")
    trunc.add_argument("--tail-eps", type=float, help="certified tail budget (default 1e-8)")
    trunc.add_argument(
        "--abscissa-margin",
        type=float,
        help="slack past the convergence abscissa estimate before refusal (default 0)",
    )

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

    g = sub.add_parser("gen-spectrum", parents=[common], help="synthesize a length spectrum")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--count", type=int, required=True, help="number of primitive classes")
    g.add_argument("--systole", type=float, help="shortest primitive length (default 0.5)")
    g.add_argument("--dim-chi", type=int, help="twist dimension (default 1)")
    g.add_argument("--chi-norm", type=float, help="twist operator norm bound (default 1)")

    g = sub.add_parser("plancherel", parents=[common, grid, sigma], help="evaluate the density")
    g.add_argument("--d", type=int, required=True)

    for name, doc in (
        ("selberg", "log of the twisted Selberg zeta"),
        ("ruelle", "log of the twisted Ruelle zeta"),
        ("log-derivative", "logarithmic derivative of the Selberg zeta"),
    ):
        sub.add_parser(name, parents=[common, grid, sigma, spectrum, trunc], help=doc)

    g = sub.add_parser(
        "heat-trace", parents=[common, sigma, spectrum, trunc], help="geometric heat trace"
    )
    g.add_argument(
        "--t", dest="t_grid", action="append", type=float, metavar="T",
        help="heat time, repeatable; written to the s_re column",
    )

    g = sub.add_parser(
        "resolvent",
        parents=[common, sigma, spectrum, eigen, trunc],
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
        parents=[common, grid, sigma, continued],
        help="evaluate the continued log derivative from eigenvalue data",
    )

    sub.add_parser(
        "residues",
        parents=[common, sigma, continued],
        help="contour residues at the continuation poles; rows hold the pole, "
        "the measured residue, and its distance to the nearest integer",
    )

    g = sub.add_parser(
        "factorization-check",
        parents=[common, grid, sigma, spectrum, trunc],
        help="Ruelle zeta against its alternating Selberg factorization",
    )
    g.add_argument("--tol", type=float, help="largest allowed difference (default 1e-8)")

    g = sub.add_parser("verify", parents=[common], help="run numerical verification suites")
    g.add_argument("--suite", help="suite name or 'all' (default)")

    return p


def _merge_config(ns: argparse.Namespace) -> JobConfig:
    values = {k: v for k, v in vars(ns).items() if k != "config"}
    if getattr(ns, "config", None):
        try:
            doc = json.loads(Path(ns.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read config file {ns.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {ns.config} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        parsers = {
            "s_grid": lambda v: tuple(_parse_complex(x) for x in v),
            "anchors": lambda v: tuple(_parse_complex(x) for x in v),
            "t_grid": lambda v: tuple(float(x) for x in v),
            "sigma": _parse_sigma,
        }
        for key, value in doc.items():
            if key not in values or key == "command":
                raise ValidationError(f"config key {key!r} is not an option of {ns.command}")
            if values[key] is None:
                values[key] = parsers[key](value) if key in parsers else value
    known = {f.name for f in fields(JobConfig)}
    values = {k: v for k, v in values.items() if v is not None and k in known}
    for key in ("s_grid", "t_grid", "anchors"):
        if key in values:
            values[key] = tuple(values[key])
    try:
        return JobConfig(**values)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


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


def _policy(cfg: JobConfig, ls: LengthSpectrum | None = None) -> TruncationPolicy:
    lmax = cfg.lmax
    if lmax is None:
        lmax = 30.0
        if ls is not None and ls.l0.size:
            lmax = max(lmax, 4.0 * float(ls.l0.max()))
    return TruncationPolicy(
        lmax=lmax, tail_eps=cfg.tail_eps, abscissa_margin=cfg.abscissa_margin
    )


def _grid(cfg: JobConfig) -> tuple[complex, ...]:
    if not cfg.s_grid:
        raise ValidationError(f"{cfg.command} requires at least one --s point")
    return cfg.s_grid


def _cmd_gen_spectrum(cfg: JobConfig) -> int:
    gd = _group(cfg)
    if cfg.count is None:
        raise ValidationError("gen-spectrum requires --count")
    ls = synthesize(gd, cfg.count, cfg.systole, cfg.seed, cfg.dim_chi, cfg.chi_norm)
    _write_text(json.dumps(length_spectrum_to_dict(ls), indent=1) + "\n", cfg.output)
    return 0


def _cmd_plancherel(cfg: JobConfig) -> int:
    gd = _group(cfg)
    P = plancherel_polynomial(gd, _sigma_for(cfg, gd))
    rows = [ResultRow(s, P(s), 0.0) for s in _grid(cfg)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_series(cfg: JobConfig) -> int:
    op = {"selberg": selberg_log, "ruelle": ruelle_log, "log-derivative": log_derivative}[
        cfg.command
    ]
    ls = _length_spectrum(cfg)
    sigma = _sigma_for(cfg, ls.gd)
    tp = _policy(cfg, ls)
    rows = [ResultRow(s, *op(s, sigma, ls, tp)) for s in _grid(cfg)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_heat_trace(cfg: JobConfig) -> int:
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
    if cfg.eigen_path is None:
        raise ValidationError(f"{cfg.command} requires --eigen")
    es = load_eigen_spectrum(cfg.eigen_path)
    gd = _group(cfg)
    return continued_from(es, gd, _sigma_for(cfg, gd), cfg.dim_chi, cfg.volume)


def _cmd_continue(cfg: JobConfig) -> int:
    cl = _continued(cfg)
    rows = [ResultRow(s, cl(s), 0.0) for s in _grid(cfg)]
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_residues(cfg: JobConfig) -> int:
    cl = _continued(cfg)
    rows = []
    for point, _order in singularities(cl):
        raw = contour_residue(cl, point)
        rows.append(ResultRow(point, raw, abs(raw - round(raw.real))))
    emit_table(rows, cfg.format, cfg.output)
    return 0


def _cmd_factorization_check(cfg: JobConfig) -> int:
    ls = _length_spectrum(cfg)
    sigma = _sigma_for(cfg, ls.gd)
    tp = _policy(cfg, ls)
    rows = []
    worst = 0.0
    for s in _grid(cfg):
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
    results = run_suite(cfg.suite, cfg.seed)
    _write_text(format_results(results), cfg.output)
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
    if config.command in _EVAL_COMMANDS and not config.s_grid:
        raise ValidationError(f"{config.command} requires at least one --s point")
    return _HANDLERS[config.command](config)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return run(_merge_config(ns))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
