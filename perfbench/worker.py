"""One fresh process doing a workload's work; started by run.py.

It imports orbitlift, builds the seeded inputs, warms up, prints `ready`
(run.py times set-up up to that line), and with --setup-only stops there.
Otherwise it runs whole rounds of the workload's operations in a closed
loop, one at a time, checks every answer, runs the self-test and prints one
JSON line with its figures.  With --trace 1 it runs one round untraced and
one round with spans, and also writes the span summary to --trace-out; the
median operation time comes from the untraced round.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import orbitlift  # noqa: E402,F401  (the import is part of set-up)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_round(wl: workloads.Workload, record: dict) -> tuple[float, list[float]]:
    """Runs every operation once; returns the summed operation wall time and
    the reference-loop times taken before the first and after every
    operation (speed.py), if the workload is scaled."""
    total = 0.0
    refs = [speed.reference_s()] if wl.scaled else []
    for op in wl.ops:
        record["attempted"] += 1
        t0 = time.perf_counter()
        try:
            op.result = op.run()
            ok = True
        except Exception:
            op.result = None
            ok = False
        dt = time.perf_counter() - t0
        if wl.scaled:
            refs.append(speed.reference_s())
        total += dt
        if not ok:
            record["failed"] += 1
            record["errors"].append(f"{op.label}: {traceback.format_exc(limit=3)}")
            continue
        try:
            op.check(op.result)
        except checks.CheckFailed as exc:
            record["wrong"].append(str(exc))
        record["samples"] += op.samples
        record["times"].append(dt)
    record["refs"] += refs
    return total, refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    wl = workloads.make(args.workload, args.seed, ROOT / "src", workdir)
    wl.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {"attempted": 0, "failed": 0, "samples": 0, "times": [], "refs": [],
              "errors": [], "wrong": []}
    out: dict = {"rounds": 0}
    if args.trace:
        untraced = run_round(wl, record)
        untraced_p50 = statistics.median(record["times"]) * speed.factor(untraced[1])
        if args.workload == "cli":
            traced_wl = workloads.cli_workload(
                args.seed, ROOT / "src", workdir,
                wrapper=[str(HERE / "trace_cli.py"), str(workdir / "spans")])
            (workdir / "spans").mkdir(exist_ok=True)
            traced = run_round(traced_wl, record)
            span_lists = []
            for path in sorted((workdir / "spans").glob("*.json")):
                span_lists.append(json.loads(path.read_text()))
                path.unlink()
            spans = tracing.merge([s["spans"] for s in span_lists])
            counts: dict = {}
            for s in span_lists:
                for k, v in s["counts"].items():
                    counts[k] = counts.get(k, 0.0) + v
        else:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = run_round(wl, record)
            finally:
                tracer.restore()
            spans, counts = tracer.spans, tracer.counts
        metrics, detail = tracing.summarise(spans, counts)
        # spans are raw wall time, so the accounting uses raw totals; the
        # overhead compares the two rounds each scaled to the reference speed
        metrics["trace.wall_s"] = traced[0]
        metrics["trace.untraced_wall_s"] = untraced[0]
        metrics["trace.overhead_s"] = (traced[0] * speed.factor(traced[1])
                                       - untraced[0] * speed.factor(untraced[1]))
        metrics["trace.unattributed_s"] = traced[0] - detail["top_level_span_s"]
        metrics["op_s_p50"] = untraced_p50
        out["rounds"] = 2
        out["layer_metrics"] = metrics
        if args.trace_out:
            detail["metrics"] = metrics
            detail["workload"] = args.workload
            detail["seed"] = args.seed
            Path(args.trace_out).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    else:
        start = time.perf_counter()
        round_s = []
        while True:
            r0 = time.perf_counter()
            run_round(wl, record)
            round_s.append(time.perf_counter() - r0)
            out["rounds"] += 1
            elapsed = time.perf_counter() - start
            if out["rounds"] >= wl.min_rounds and elapsed + statistics.mean(round_s) > args.seconds:
                break
        out["wall_s"] = time.perf_counter() - start
    record["missed"] = wl.self_test(wl.ops)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(record)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
