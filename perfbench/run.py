"""orbitlift benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli, select, select-clustered,
lift (see README.md in this directory).  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 2     # set-up-only processes besides the worker: 3 set-up samples
START_RUNS = 5       # `orbitlift examples` processes timed for cli.start_s
IMPORT_RUNS = 3      # `-X importtime` processes for cli.import_s
CHILD_TIMEOUT = 150

UNITS = {
    "setup_s": "s", "samples_per_s": "samples/s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s", "_s_p50")):
        return "s"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one process, one thread: the program itself never starts threads, and
    # pinning numpy's BLAS pool keeps its idle threads out of the timings
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


class Children:
    """Every process this run starts; all are ended and waited for on exit."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def start(self, cmd, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kw)
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def start_worker(children: Children, args, workdir: Path, extra=()) -> tuple[subprocess.Popen, float]:
    """A fresh worker process, and the wall time until it reports `ready`."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    t0 = time.perf_counter()
    proc = children.start(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait(timeout=CHILD_TIMEOUT)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def timed_run(children: Children, cmd) -> float:
    """Wall time of one process run to its end."""
    t0 = time.perf_counter()
    proc = children.start(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited with code {proc.returncode}: {err[-300:]!r}")
    return wall


def import_times(children: Children) -> tuple[float, float]:
    """Fresh-interpreter `import orbitlift`: its cumulative time, and the part
    spent in scipy modules that nothing outside scipy imported through."""
    totals, scipy_s = [], []
    for _ in range(IMPORT_RUNS):
        proc = children.start([sys.executable, "-X", "importtime", "-c", "import orbitlift"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        rows = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum_us, name = line[len("import time:"):].split("|", 2)
            rows.append((name[1:].rstrip(), int(cum_us)))
        totals.append(next(c for n, c in rows if n.strip() == "orbitlift") / 1e6)
        scipy_s.append(_outermost(rows, "scipy") / 1e6)
    return statistics.median(totals), statistics.median(scipy_s)


def _outermost(rows, package: str) -> int:
    """Summed cumulative time of `package` imports not nested in another one.

    -X importtime prints a module after the modules it imported, indented
    two spaces deeper per level."""
    total = 0
    depth_of = [(len(n) - len(n.lstrip())) // 2 for n, _ in rows]
    for i, (name, cum) in enumerate(rows):
        if not name.strip().startswith(package):
            continue
        depth, nested = depth_of[i], False
        for j in range(i + 1, len(rows)):
            if depth_of[j] < depth:
                depth = depth_of[j]
                if rows[j][0].strip().startswith(package):
                    nested = True
                    break
        if not nested:
            total += cum
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "orbitlift" / "__init__.py").is_file():
        print(f"error: no orbitlift sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    children = Children()
    try:
        # byte-compile and load the sources once before anything is timed
        timed_run(children, [sys.executable, "-c", "import orbitlift.cli"])
        if args.trace:
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            proc, _ = start_worker(children, args, workdir, ["--trace-out", str(trace_out)])
            res = finish_worker(proc)
            metrics = dict(res["layer_metrics"])
            metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times(children)
            metrics["cli.start_s"] = statistics.median(
                timed_run(children, [sys.executable, "-m", "orbitlift.cli", "examples"])
                for _ in range(START_RUNS))
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
            print(f"span tree and self times: {trace_out}", file=sys.stderr)
        else:
            refs, setups = [], []
            for probe in range(SETUP_PROBES + 1):
                measuring = probe == SETUP_PROBES
                refs.append(speed.reference_s())
                proc, ready = start_worker(children, args, workdir,
                                           [] if measuring else ["--setup-only"])
                setups.append(ready)
                if not measuring:
                    proc.wait(timeout=CHILD_TIMEOUT)
            refs.append(speed.reference_s())
            res = finish_worker(proc)
            times = res["times"]
            busy = sum(times) * speed.factor(res["refs"])
            values = {
                "setup_s": statistics.median(setups) * speed.factor(refs + res["refs"]),
                "samples_per_s": res["samples"] / busy,
                "ops_per_s": len(times) / busy,
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            print(f"{args.workload}: {res['rounds']} round(s), {len(times)} operations in"
                  f" {sum(times):.3f} s wall; speed factor {speed.factor(res['refs']):.4f}"
                  f" from {len(res['refs'])} reference loops", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in res["errors"] + res["wrong"]:
        print(msg, file=sys.stderr)
    for msg in res["missed"]:
        print(f"self-test: a check accepted a corrupted answer: {msg}", file=sys.stderr)
    correct = not res["wrong"] and not res["missed"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
