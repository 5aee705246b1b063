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
    for r in rows:
        v = complex(r.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise DomainError(
                f"the value at s = {r.s} overflows double precision; move s toward the origin",
            )
    if format == "csv":
        lines = [",".join(HEADER)]
        for r in rows:
            s, v = complex(r.s), complex(r.value)
            lines.append(
                f"{s.real!r},{s.imag!r},{v.real!r},{v.imag!r},{float(r.tail_bound)!r}"
            )
        return "\n".join(lines) + "\n"
    if format == "json":
        records = [
            {
                "s_re": complex(r.s).real,
                "s_im": complex(r.s).imag,
                "value_re": complex(r.value).real,
                "value_im": complex(r.value).imag,
                "tail_bound": float(r.tail_bound),
            }
            for r in rows
        ]
        return json.dumps(records, indent=1) + "\n"
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
