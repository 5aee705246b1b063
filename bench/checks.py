"""Output checks of the zetaflow benchmark.

``problems`` returns, for one finished job, the list of reasons it failed;
an empty list means the job passed. A job fails on a nonzero exit status,
on a table with the wrong number of rows or a non-finite entry, on a series
tail bound above the job's ``--tail-eps``, on geometric and heat resolvent
rows that disagree by more than RESOLVENT_RTOL, and on any verify line that
does not read ok. The traced replay and the canonical digests add two
more checks, in ``run.py``.
"""

from __future__ import annotations

import hashlib
import math

HEADER = "s_re,s_im,value_re,value_im,tail_bound"
RESOLVENT_RTOL = 1e-5   # tolerance of the "geometric vs heat resolvent route" verify check


def parse_table(text: str) -> list[list[float]]:
    """Rows of a CSV table written by ``zetaflow``; raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing table header")
    rows = []
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        if len(cells) != 5:
            raise ValueError(f"row with {len(cells)} cells: {line!r}")
        rows.append(cells)
    return rows


def problems(job, status: int, stdout: str) -> list[str]:
    out = []
    if status != 0:
        out.append(f"exit status {status}")
    if job.kind == "verify":
        lines = stdout.splitlines()
        if not lines:
            out.append("no verify output")
        out += [f"verify line not ok: {ln.strip()}" for ln in lines if ln.split()[-1:] != ["ok"]]
        return out
    try:
        rows = parse_table(stdout)
    except ValueError as exc:
        return out + [f"unreadable table: {exc}"]
    if len(rows) != job.rows:
        out.append(f"{len(rows)} rows, expected {job.rows}")
    if not all(math.isfinite(x) for row in rows for x in row):
        out.append("non-finite value")
    if job.tail_eps and any(row[4] > job.tail_eps for row in rows):
        out.append(f"tail_bound above tail_eps {job.tail_eps:g}")
    if job.kind == "resolvent" and len(rows) == 2:
        geo, heat = complex(rows[0][2], rows[0][3]), complex(rows[1][2], rows[1][3])
        if not abs(geo - heat) <= RESOLVENT_RTOL * abs(geo):
            out.append(f"geometric {geo} and heat {heat} resolvent rows disagree")
    return out


def digest(job, stdout: str) -> str | None:
    """sha256 of the s and value columns of a table job; None for verify.

    The tail_bound column is left out on purpose: planned work on the heat
    route changes the bound it reports, not the values. Verify output is
    not digested: its max-error column is a diagnostic, and its check
    names change whenever the suites do; every line must read ok instead.
    """
    if job.kind == "verify":
        return None
    cols = "\n".join(",".join(line.split(",")[:4]) for line in stdout.splitlines())
    return hashlib.sha256(cols.encode()).hexdigest()
