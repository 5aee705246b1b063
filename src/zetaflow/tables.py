"""Tabular output for batch evaluations.

One row per evaluation point: the point, the complex value, and the
certified tail bound (zero when no truncation was involved). A value that
is not finite is refused before anything is written, so no table holds
nan or inf in its value columns, nor bare NaN tokens in JSON. Floats are
written with shortest round-trip formatting, so reparsing reproduces the
exact bit pattern; the decimal separator is always '.' regardless of
locale because repr never localizes.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NamedTuple, Sequence

from .errors import DomainError, ValidationError

HEADER = ("s_re", "s_im", "value_re", "value_im", "tail_bound")


class ResultRow(NamedTuple):
    s: complex
    value: complex
    tail_bound: float


def render_table(rows: Sequence[ResultRow], format: str) -> str:
    """The rows as CSV or JSON text, each row's five numbers made once."""
    records = []
    for r in rows:
        v = complex(r.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(
                f"the value at s = {r.s} overflows double precision; move s toward the origin",
            )
        s = complex(r.s)
        records.append((s.real, s.imag, v.real, v.imag, float(r.tail_bound)))
    if format == "csv":
        lines = [",".join(HEADER), *(",".join(map(repr, record)) for record in records)]
        return "\n".join(lines) + "\n"
    if format == "json":
        return json.dumps([dict(zip(HEADER, record)) for record in records], indent=1) + "\n"
    raise ValidationError(f"format: expected 'csv' or 'json', got {format!r}")


def write_text(text: str, path: str | None = None) -> None:
    """Write text to ``path``, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def emit_table(rows: Sequence[ResultRow], format: str, path: str | None = None) -> None:
    """Write rows as CSV or JSON to ``path``, or to stdout when path is None."""
    write_text(render_table(rows, format), path)
