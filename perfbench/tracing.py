"""Spans around the program's public functions, for the traced run.

Each public function is wrapped where the program looks it up (for example
`fiber` inside `lifting`, `minimal_jump_assignment` inside `rootflow`), so
every call the program makes passes through the wrapper.  Spans are kept in
memory as [name, start, end, parent, tag] and summarised at the end: a
layer's self time is its spans' time minus the time of the wrapped spans
nested directly inside them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("cli", "curvedsl", "hyperpoly", "rootflow", "assignment", "invariants",
          "lifting", "regcheck")
DEGREES = (2, 3, 4, 5, 6)
# spans whose refined grids count as root solves / fiber samples beyond the base grid
REFINING = {"rootflow.select": "rootflow.refined_samples", "lifting.lift": "lifting.refined_samples"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo = []

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None):
        orig = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = orig(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(self, rec, exc)
                raise
            rec[2] = time.perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(self, rec, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def enclosing(self, names) -> str | None:
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None


def _roots_result(tracer, rec, args, out):
    rec[4] = args[0].degree
    vals = out.values
    if vals.size > 1 and bool((vals[1:] == vals[:-1]).any()):
        tracer.counts["hyperpoly.roots.repeated"] += 1


def _roots_error(tracer, rec, exc):
    if type(exc).__name__ in ("NotHyperbolic", "NotHyperbolicAt"):
        tracer.counts["hyperpoly.roots.raised"] += 1


def _refine_result(tracer, rec, args, out):
    owner = tracer.enclosing(REFINING)
    if owner is not None:
        tracer.counts[REFINING[owner]] += out.n_cells + 1


def _fiber_result(tracer, rec, args, out):
    tracer.counts["invariants.fiber.points"] += len(out)


def install(tracer: Tracer, with_cli: bool = False) -> None:
    from orbitlift import curvedsl, hyperpoly, invariants, lifting, regcheck, rootflow

    tracer.wrap(hyperpoly, "roots", "hyperpoly.roots", _roots_result, _roots_error)
    tracer.wrap(rootflow, "differentiable_selection", "rootflow.select")
    tracer.wrap(rootflow, "minimal_jump_assignment", "assignment.minimal_jump_assignment")
    tracer.wrap(curvedsl.CoeffCurve, "evaluate", "curvedsl.evaluate")
    tracer.wrap(curvedsl, "evaluate_with_env", "curvedsl.evaluate")
    tracer.wrap(curvedsl.Grid, "refine", "curvedsl.refine", _refine_result)
    tracer.wrap(lifting, "fiber", "invariants.fiber", _fiber_result)
    tracer.wrap(invariants.ReflectionGroup, "elements", "invariants.elements")
    tracer.wrap(invariants, "compute_k", "invariants.compute_k")
    tracer.wrap(lifting, "lift_curve", "lifting.lift")
    tracer.wrap(lifting, "lipschitz_harness", "lifting.harness")
    tracer.wrap(regcheck, "certify_samples", "regcheck.certify")
    tracer.wrap(regcheck, "certify", "regcheck.certify")
    if with_cli:
        from orbitlift import cli

        tracer.wrap(cli, "main", "cli.main")


def summarise(spans, counts) -> tuple[dict, dict]:
    """Per-name and per-layer figures, and the aggregated span tree.

    spans may come from several processes: parent indices are local to the
    list they were recorded in, which `merge` keeps intact.
    """
    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    by_degree = defaultdict(lambda: [0, 0.0])
    tree: dict = {}
    paths: list[tuple] = [()] * n
    for i, rec in enumerate(spans):
        dur = rec[2] - rec[1]
        own = dur - child_time[i]
        agg = by_name[rec[0]]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += own
        by_layer[rec[0].split(".")[0]] += own
        if rec[0] == "hyperpoly.roots" and rec[4] is not None:
            by_degree[rec[4]][0] += 1
            by_degree[rec[4]][1] += dur
        paths[i] = (paths[rec[3]] if rec[3] >= 0 else ()) + (rec[0],)
        node = tree
        for part in paths[i]:
            node = node.setdefault(part, {"calls": 0, "s": 0.0, "self_s": 0.0, "children": {}})
            last = node
            node = node["children"]
        last["calls"] += 1
        last["s"] += dur
        last["self_s"] += own
    top = sum(rec[2] - rec[1] for rec in spans if rec[3] < 0)

    def get(name, key):
        return by_name[name][key] if name in by_name else 0.0

    roots_calls = get("hyperpoly.roots", "calls")
    m = {
        "cli.self_s": by_layer["cli"],
        "curvedsl.evaluate.calls": get("curvedsl.evaluate", "calls"),
        "curvedsl.evaluate.s": get("curvedsl.evaluate", "s"),
        "curvedsl.refine.calls": get("curvedsl.refine", "calls"),
        "curvedsl.self_s": by_layer["curvedsl"],
        "hyperpoly.roots.calls": roots_calls,
        "hyperpoly.roots.s": get("hyperpoly.roots", "s"),
        "hyperpoly.roots.us_per_call":
            1e6 * get("hyperpoly.roots", "s") / roots_calls if roots_calls else 0.0,
    }
    for d in DEGREES:
        calls, s = by_degree.get(d, (0, 0.0))
        m[f"hyperpoly.roots.deg{d}.us_per_call"] = 1e6 * s / calls if calls else 0.0
    m.update({
        "hyperpoly.roots.repeated": counts.get("hyperpoly.roots.repeated", 0.0),
        "hyperpoly.roots.raised": counts.get("hyperpoly.roots.raised", 0.0),
        "hyperpoly.self_s": by_layer["hyperpoly"],
        "rootflow.select.self_s": get("rootflow.select", "self_s"),
        "rootflow.refined_samples": counts.get("rootflow.refined_samples", 0.0),
        "rootflow.self_s": by_layer["rootflow"],
        "assignment.calls": get("assignment.minimal_jump_assignment", "calls"),
        "assignment.s": get("assignment.minimal_jump_assignment", "s"),
        "assignment.self_s": by_layer["assignment"],
        "invariants.fiber.calls": get("invariants.fiber", "calls"),
        "invariants.fiber.self_s": get("invariants.fiber", "self_s"),
        "invariants.fiber.points": counts.get("invariants.fiber.points", 0.0),
        "invariants.elements.s": get("invariants.elements", "s"),
        "invariants.compute_k.s": get("invariants.compute_k", "s"),
        "invariants.self_s": by_layer["invariants"],
        "lifting.lift.self_s": get("lifting.lift", "self_s"),
        "lifting.refined_samples": counts.get("lifting.refined_samples", 0.0),
        "lifting.harness.s": get("lifting.harness", "s"),
        "lifting.self_s": by_layer["lifting"],
        "regcheck.certify.calls": get("regcheck.certify", "calls"),
        "regcheck.certify.s": get("regcheck.certify", "s"),
        "regcheck.self_s": by_layer["regcheck"],
    })
    detail = {
        "layers_self_s": {layer: by_layer[layer] for layer in LAYERS},
        "spans": {name: dict(v) for name, v in sorted(by_name.items())},
        "top_level_span_s": top,
        "tree": _plain(tree),
    }
    return m, detail


def _plain(tree: dict) -> list:
    return [{"name": name, "calls": node["calls"], "s": node["s"], "self_s": node["self_s"],
             "children": _plain(node["children"])} for name, node in tree.items()]


def merge(span_lists) -> list[list]:
    """Concatenate span lists of several processes, shifting parent indices."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        for rec in spans:
            rec = list(rec)
            if rec[3] >= 0:
                rec[3] += base
            out.append(rec)
    return out
