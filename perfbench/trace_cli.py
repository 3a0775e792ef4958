"""`orbitlift` CLI entry with spans, for the traced run of the cli workload.

Usage: trace_cli.py SPAN_DIR <orbitlift arguments...>

Runs `orbitlift.cli.main` with the same wrappers as the in-process traced
runs plus one around `cli.main`, then writes the spans and counts of this
process to a JSON file in SPAN_DIR.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main() -> int:
    span_dir = Path(sys.argv[1])
    from orbitlift import cli

    tracer = tracing.Tracer()
    tracing.install(tracer, with_cli=True)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        name = f"{time.time_ns():020d}-{os.getpid()}.json"
        (span_dir / name).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
