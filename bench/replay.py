"""Traced replay of one zetaflow CLI job.

Usage: python3 bench/replay.py SPANS_JSON -- <zetaflow arguments>

Imports zetaflow, wraps its layers with the span tracer, calls
``zetaflow.cli.main(argv)`` and exits with its status, like the
``zetaflow`` console script. The spans go to SPANS_JSON together with the
wall-clock time at which this interpreter began running Python code and
the time the zetaflow import took, from which the benchmark derives the
start-up time of the job.
"""

import time

ENTERED = time.time()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: replay.py SPANS_JSON -- <zetaflow arguments>", file=sys.stderr)
        return 1
    out_path, argv = sys.argv[1], sys.argv[3:]
    t0 = time.perf_counter()
    import zetaflow.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install("zetaflow")
    try:
        status = zetaflow.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"entered": ENTERED, "import_s": import_s, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
