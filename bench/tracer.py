"""Span tracer for the traced replay of zetaflow CLI jobs.

The tracer wraps the public functions and methods of each layer of
``src/zetaflow/`` from outside: the program's own code is not edited. A
wrapper records one span per call, ``[name, start, end, parent, attrs]``,
in memory; the replay writes the list out when the job ends. Self times
and counts are derived from the spans afterwards, by ``job_summary``.

Modules such as ``zeta``, ``heat`` and ``continuation`` import the
functions they use by name, so every module binding of a wrapped function
is replaced, not only the one in its defining module. Names that a later
version of the program no longer defines are skipped; their metrics then
read zero.

Spans are kept on one stack, so only calls made from the main thread are
traced. The program calls wrapped functions from no other thread.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _key(*parts) -> str:
    return ":".join(repr(p) for p in parts)


def _note_path(args, kwargs, result):
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}
    except (OSError, TypeError):
        return None


def _note_table(args, kwargs, result):
    # power_table(self, lmax): one key per (spectrum, lmax)
    return {
        "key": _key(id(args[0]), _arg(args, kwargs, 1, "lmax")),
        "size": int(getattr(result, "size", 0)),
    }


def _note_cert(args, kwargs, result):
    return {"key": _key(id(_arg(args, kwargs, 0, "ls")), _arg(args, kwargs, 1, "lmax"))}


def _note_rows(args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 1, "angles"), "shape", ())
    rows = 1
    for dim in shape[:-1]:
        rows *= int(dim)
    return {"rows": rows}


def _note_exterior(args, kwargs, result):
    gd = _arg(args, kwargs, 0, "gd")
    return {"key": _key(getattr(gd, "d", None), _arg(args, kwargs, 1, "p"))}


def _note_size(args, kwargs, result):
    return {"elements": int(getattr(_arg(args, kwargs, 0, "values"), "size", 0))}


def _note_heat_totals(args, kwargs, result):
    ls = _arg(args, kwargs, 0, "ls")
    tp = _arg(args, kwargs, 3, "tp")
    return {
        "nodes": int(getattr(_arg(args, kwargs, 2, "ts"), "size", 1)),
        "key": _key(id(ls), getattr(tp, "lmax", None)),
    }


def _note_text(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else None


def _note_checks(args, kwargs, result):
    return {"checks": len(result)}


# (module, attribute, span name, note). The span name is "<layer>.<function>".
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("spectra", "load_length_spectrum", "spectra.load", _note_path),
    ("spectra", "load_eigen_spectrum", "spectra.load", _note_path),
    ("spectra", "LengthSpectrum.power_table", "spectra.power_table", _note_table),
    ("spectra", "certify_twist_growth", "spectra.cert", _note_cert),
    ("spectra", "synthesize", "spectra.synthesize", None),
    ("chars", "character_table", "chars.character_table", None),
    ("chars", "CharacterTable.evaluate", "chars.evaluate", _note_rows),
    ("chars", "weyl_character", "chars.weyl_character", None),
    ("chars", "weight_multiplicities", "chars.weight_multiplicities", None),
    ("branching", "exterior_decomposition", "branching.exterior_decomposition", _note_exterior),
    ("plancherel", "plancherel_polynomial", "plancherel.polynomial", None),
    ("zeta", "selberg_log", "zeta.series", None),
    ("zeta", "ruelle_log", "zeta.series", None),
    ("zeta", "log_derivative", "zeta.series", None),
    ("zeta", "z_p_log", "zeta.series", None),
    ("summation", "block_sum", "summation.block_sum", _note_size),
    ("heat", "heat_totals", "heat.heat_totals", _note_heat_totals),
    ("heat", "geometric_heat_trace", "heat.geometric_heat_trace", None),
    ("quadrature", "half_line_integral", "quadrature.half_line", None),
    ("quadrature", "segment_integral", "quadrature.segment_integral", None),
    ("continuation", "resolvent_trace_geometric", "continuation.resolvent_geometric", None),
    ("continuation", "resolvent_trace_via_heat", "continuation.resolvent_heat", None),
    ("continuation", "small_t_combination", "continuation.small_t", None),
    ("continuation", "contour_residue", "continuation.contour_residue", None),
    ("tables", "emit_table", "tables.emit", None),
    ("tables", "render_table", "tables.render", _note_text),
    ("verify", "run_suite", "verify.run_suite", _note_checks),
)


class Tracer:
    """In-memory span recorder. ``spans[i] = [name, start, end, parent, attrs]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                rec[4] = {"error": type(exc).__name__}
                raise
            rec[2] = clock()
            stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "zetaflow") -> None:
        """Wrap every entry of WRAPPED at each binding inside ``package``,
        which must already be imported."""
        replace: dict[int, object] = {}
        for module, attr, name, note in WRAPPED:
            mod = sys.modules.get(f"{package}.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None or id(fn) in replace:
                continue
            wrapper = self.wrap(name, fn, note)
            replace[id(fn)] = wrapper
            if owner_name:
                setattr(owner, fn_name, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


# ---------------------------------------------------------------- analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its direct
    children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def _outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def job_summary(spans: list[list]) -> dict:
    """Per-name aggregates of one job's spans.

    ``calls``, ``self_s`` (sum of self times), ``incl_s`` (sum of the
    durations of outermost spans, so recursion is not double counted),
    ``durations`` of outermost spans, ``errors`` by type, the distinct
    ``keys`` seen, and the sums of every numeric attribute.
    """
    selfs = self_times(spans)
    outer = _outermost(spans)
    agg: dict[str, dict] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        a = agg.setdefault(
            name,
            {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "durations": [], "errors": {},
             "keys": set(), "sums": {}},
        )
        a["calls"] += 1
        a["self_s"] += selfs[i]
        if outer[i]:
            a["incl_s"] += end - start
            a["durations"].append(end - start)
        for k, v in (attrs or {}).items():
            if k == "error":
                a["errors"][v] = a["errors"].get(v, 0) + 1
            elif k == "key":
                a["keys"].add(v)
            else:
                a["sums"][k] = a["sums"].get(k, 0) + v
    # heat.kernel_terms = time nodes x powers of the table the call sums over
    sizes = {attrs["key"]: attrs["size"] for name, _, _, _, attrs in spans
             if name == "spectra.power_table" and attrs and "size" in attrs}
    kernel_terms = 0
    for name, _, _, _, attrs in spans:
        if name == "heat.heat_totals" and attrs and "nodes" in attrs:
            kernel_terms += attrs["nodes"] * sizes.get(attrs["key"], 0)
    # terms summed by the zeta series: block sums called directly under a
    # series span
    series_terms = 0
    for name, _, _, parent, attrs in spans:
        if name != "summation.block_sum" or not attrs:
            continue
        if parent >= 0 and spans[parent][0] == "zeta.series":
            series_terms += attrs.get("elements", 0)
    main = [i for i, s in enumerate(spans) if s[0] == "cli.main" and s[3] < 0]
    main_s = sum(spans[i][2] - spans[i][1] for i in main)
    main_covered = main_s - sum(selfs[i] for i in main)
    return {
        "by_name": agg,
        "kernel_terms": kernel_terms,
        "series_terms": series_terms,
        "distinct_powers": sum(sizes.values()),
        "main_s": main_s,
        "main_covered_s": main_covered,
    }


def _get(summaries, name, field, sub=None):
    total = 0
    for s in summaries:
        a = s["by_name"].get(name)
        if a is None:
            continue
        v = a[field]
        if sub is not None:
            v = v.get(sub, 0)
        elif isinstance(v, (set, list)):
            v = len(v)
        total += v
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def pass_layer_metrics(summaries: list[dict], startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the job summaries of its
    jobs and the summed interpreter start-up time (spawn to the return of
    ``import zetaflow.cli``)."""
    g = functools.partial(_get, summaries)
    series_durations = [d for s in summaries
                        for d in s["by_name"].get("zeta.series", {}).get("durations", [])]
    return {
        "cli.startup_s": startup_s,
        "cli.self_s": g("cli.main", "self_s"),
        "spectra.load_s": g("spectra.load", "incl_s"),
        "spectra.load_bytes": g("spectra.load", "sums", "bytes"),
        "spectra.power_table_s": g("spectra.power_table", "incl_s"),
        "spectra.power_table_calls": g("spectra.power_table", "calls"),
        "spectra.power_table_reuse": _ratio(g("spectra.power_table", "calls"),
                                            g("spectra.power_table", "keys")),
        "spectra.powers": sum(s["distinct_powers"] for s in summaries),
        "spectra.cert_s": g("spectra.cert", "incl_s"),
        "spectra.cert_calls": g("spectra.cert", "calls"),
        "spectra.cert_reuse": _ratio(g("spectra.cert", "calls"), g("spectra.cert", "keys")),
        "spectra.synthesize_s": g("spectra.synthesize", "incl_s"),
        "chars.character_table_calls": g("chars.character_table", "calls"),
        "chars.evaluate_s": g("chars.evaluate", "incl_s"),
        "chars.evaluate_rows": g("chars.evaluate", "sums", "rows"),
        "chars.weyl_character_s": g("chars.weyl_character", "incl_s"),
        "chars.weyl_character_calls": g("chars.weyl_character", "calls"),
        "chars.weight_multiplicities_s": g("chars.weight_multiplicities", "incl_s"),
        "branching.exterior_decomposition_s": g("branching.exterior_decomposition", "incl_s"),
        "branching.exterior_decomposition_calls": g("branching.exterior_decomposition", "calls"),
        "branching.exterior_reuse": _ratio(g("branching.exterior_decomposition", "calls"),
                                           g("branching.exterior_decomposition", "keys")),
        "plancherel.polynomial_s": g("plancherel.polynomial", "incl_s"),
        "plancherel.polynomial_calls": g("plancherel.polynomial", "calls"),
        "zeta.series_self_s": g("zeta.series", "self_s"),
        "zeta.series_calls": g("zeta.series", "calls"),
        "zeta.terms": sum(s["series_terms"] for s in summaries),
        "zeta.point_ms": 1e3 * statistics.median(series_durations) if series_durations else 0.0,
        "zeta.refusals": g("zeta.series", "errors", "DomainError"),
        "summation.block_sum_s": g("summation.block_sum", "incl_s"),
        "summation.block_sum_calls": g("summation.block_sum", "calls"),
        "summation.elements": g("summation.block_sum", "sums", "elements"),
        "heat.heat_totals_self_s": g("heat.heat_totals", "self_s"),
        "heat.heat_totals_calls": g("heat.heat_totals", "calls"),
        "heat.time_nodes": g("heat.heat_totals", "sums", "nodes"),
        "heat.kernel_terms": sum(s["kernel_terms"] for s in summaries),
        "heat.geometric_heat_trace_s": g("heat.geometric_heat_trace", "incl_s"),
        "heat.refusals": g("heat.heat_totals", "errors", "DomainError")
        + g("heat.geometric_heat_trace", "errors", "DomainError"),
        "quadrature.half_line_s": g("quadrature.half_line", "incl_s"),
        "quadrature.half_line_calls": g("quadrature.half_line", "calls"),
        "quadrature.segment_integral_s": g("quadrature.segment_integral", "incl_s"),
        "quadrature.segment_integral_calls": g("quadrature.segment_integral", "calls"),
        "continuation.resolvent_geometric_s": g("continuation.resolvent_geometric", "incl_s"),
        "continuation.resolvent_heat_s": g("continuation.resolvent_heat", "incl_s"),
        "continuation.small_t_s": g("continuation.small_t", "incl_s"),
        "continuation.contour_residue_calls": g("continuation.contour_residue", "calls"),
        "tables.emit_s": g("tables.emit", "incl_s"),
        "tables.bytes": g("tables.render", "sums", "bytes"),
        "verify.run_suite_self_s": g("verify.run_suite", "self_s"),
        "verify.checks": g("verify.run_suite", "sums", "checks"),
        "trace.coverage": _ratio(sum(s["main_covered_s"] for s in summaries),
                                 sum(s["main_s"] for s in summaries)),
    }

