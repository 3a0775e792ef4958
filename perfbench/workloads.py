"""The four workloads: their operations, the checks on each answer, and the
self-test that shows each check rejects a corrupted answer.

An operation is one selection with its certificates, one lift (certificates
included) or harness call, or one CLI command.  `Op.run` is the timed part;
`Op.check` runs afterwards, outside the timing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

WORKLOADS = ("cli", "select", "select-clustered", "lift")


@dataclass
class Op:
    label: str
    samples: int                       # base-grid samples of the operation
    run: Callable[[], object]
    check: Callable[[object], None]
    result: object = field(default=None, repr=False)


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]
    self_test: Callable[[list[Op]], list[str]]  # corruptions the checks let through
    min_rounds: int = 1
    # whether to time the reference loop between operations (speed.py); not
    # for cli, whose operations are other processes: a loop run right after
    # a child exits misreads the machine speed by up to 2x
    scaled: bool = True


# -- in-process selections -------------------------------------------------------------

def _selection_op(case: inputs.SelectCase) -> Op:
    from orbitlift import curvedsl, regcheck, rootflow

    curve = curvedsl.CoeffCurve.from_exprs(list(case.components))
    grid = curvedsl.Grid.dyadic(*inputs.DOMAIN, case.level)

    def run():
        sel = rootflow.differentiable_selection(curve, grid, inputs.TOL)
        reports = [regcheck.certify_samples(b, inputs.DOMAIN, 6) for b in sel.branches]
        return sel, [r.verdict for r in reports]

    def check(result):
        sel, verdicts = result
        checks.check_selection(case, grid.points, sel.branches, sel.unresolved, verdicts)

    return Op(case.name, grid.n_cells + 1, run, check)


def _catalog_op(cases: list[inputs.SelectCase]) -> Op:
    """The six catalog entries as one operation: five of them take about
    10 ms, and as operations of their own they would set the median."""
    parts = [_selection_op(case) for case in cases]

    def run():
        return [part.run() for part in parts]

    def check(results):
        for part, result in zip(parts, results):
            part.check(result)
        checks.check_sharpness({part.label: result[1] for part, result in zip(parts, results)})

    return Op("catalog", sum(part.samples for part in parts), run, check)


def _rejected(check: Callable[[], None]) -> bool:
    try:
        check()
    except checks.CheckFailed:
        return True
    return False


def _selection_self_test(cases_by_name):
    def self_test(ops: list[Op]) -> list[str]:
        missed = []
        done = [op for op in ops if op.result is not None and op.label in cases_by_name]
        crossed = [op for op in done if op.result[0].swap_log]
        for op in crossed[:1]:
            sel, verdicts = op.result
            idx, perm = sel.swap_log[0]
            a = next(k for k, p in enumerate(perm) if p != k)
            swapped = sel.branches.copy()
            swapped[[a, perm[a]], idx:] = swapped[[perm[a], a], idx:]
            case = cases_by_name[op.label]
            if not _rejected(lambda: checks.check_selection(
                    case, sel.grid.points, swapped, sel.unresolved, verdicts)):
                missed.append(f"{op.label}: branches swapped after the crossing at sample {idx}")
        for op in done[:1]:
            sel, verdicts = op.result
            dropped = sel.branches.copy()
            mid = dropped.shape[1] // 2
            lo, hi = int(np.argmin(dropped[:, mid])), int(np.argmax(dropped[:, mid]))
            dropped[hi, mid] = dropped[lo, mid]
            case = cases_by_name[op.label]
            if not _rejected(lambda: checks.check_selection(
                    case, sel.grid.points, dropped, sel.unresolved, verdicts)):
                missed.append(f"{op.label}: root dropped at sample {mid}")
        if not crossed and any(c.name.startswith("separated") for c in cases_by_name.values()):
            missed.append("no selection with a crossing to corrupt")
        return missed

    return self_test


def _warm_selection() -> None:
    from orbitlift import curvedsl, regcheck, rootflow

    sel = rootflow.differentiable_selection(
        curvedsl.CoeffCurve.from_exprs(["0", "-t^2"]), curvedsl.Grid.dyadic(-1.0, 1.0, 5))
    regcheck.certify_samples(sel.branches[0], inputs.DOMAIN, 4)


def select_workload(seed: int, clustered: bool) -> Workload:
    cases = inputs.clustered_select_cases(seed) if clustered else inputs.select_cases(seed)
    ops = [_selection_op(c) for c in cases]
    if not clustered:
        ops.append(_catalog_op(inputs.catalog_cases()))
    by_name = {c.name: c for c in cases}
    return Workload(ops, _warm_selection, _selection_self_test(by_name))


# -- in-process lifts and the harness ----------------------------------------------------

def _lift_op(case: inputs.LiftCase, label: str) -> Op:
    from orbitlift import curvedsl, invariants, lifting

    group = invariants.parse_group(case.group.label)
    sigma = invariants.orbit_map(group)
    curve = curvedsl.CoeffCurve.from_exprs(list(case.components))
    grid = curvedsl.Grid.dyadic(*inputs.DOMAIN, case.level)

    def run():
        return lifting.lift_curve(group, sigma, curve, grid, inputs.TOL)

    def check(lift):
        checks.check_lift(case, grid.points, lift.values, lift.unresolved)
        if len(lift.reports) != group.dim:
            raise checks.CheckFailed(f"lift {case.group.label}: {len(lift.reports)} certificates")

    return Op(label, grid.n_cells + 1, run, check)


def _harness_op(case: inputs.HarnessCase) -> Op:
    from orbitlift import curvedsl, invariants, lifting

    group = invariants.parse_group("B:2")
    sigma = invariants.orbit_map(group)
    exprs = [curvedsl.parse_curve_expr(s, variables=("u", "v")) for s in case.gmap]
    grid = curvedsl.Grid.dyadic(*inputs.DOMAIN, case.level)
    probes = [(name, gamma) for name, gamma, _ in case.probe_curves()]

    def f(point):
        env = {"u": point[0], "v": point[1]}
        return sigma.evaluate(np.array([curvedsl.evaluate_with_env(e, env) for e in exprs]))

    def run():
        return lifting.lipschitz_harness(group, sigma, f, probes, grid, inputs.TOL)

    def check(report):
        checks.check_harness(case, [p.lipschitz_estimate for p in report.probes])

    return Op("harness B:2", len(probes) * (grid.n_cells + 1), run, check)


def _lift_self_test(cases_by_label):
    def self_test(ops: list[Op]) -> list[str]:
        for op in ops:
            if op.result is None or not op.label.startswith("lift "):
                continue
            case = cases_by_label[op.label]
            lift = op.result
            t = lift.grid.points
            half = t.size // 2
            # the group element that moves the last sample furthest
            g = max(case.group.elements,
                    key=lambda m: float(np.linalg.norm(m @ lift.values[-1] - lift.values[-1])))
            moved = lift.values.copy()
            moved[half:] = moved[half:] @ g.T
            if _rejected(lambda: checks.check_lift(case, t, moved, lift.unresolved)):
                return []
            return [f"{op.label}: lift moved by a group element halfway through"]
        return ["no lift to corrupt"]

    return self_test


def _warm_lift() -> None:
    from orbitlift import curvedsl, invariants, lifting

    group = invariants.parse_group("B:2")
    lifting.lift_curve(group, invariants.orbit_map(group),
                       curvedsl.CoeffCurve.from_exprs(["1+(2+t)^2", "(2+t)^2"]),
                       curvedsl.Grid.dyadic(-1.0, 1.0, 4))


def lift_workload(seed: int) -> Workload:
    cases = inputs.lift_cases(seed)
    by_label = {f"lift {c.group.label} #{i}": c for i, c in enumerate(cases)}
    ops = [_lift_op(c, label) for label, c in by_label.items()]
    ops.append(_harness_op(inputs.harness_case(seed)))
    return Workload(ops, _warm_lift, _lift_self_test(by_label))


# -- the command line, one subprocess per command ------------------------------------------

README_LIFT_GROUP = "I2:4"
README_KDATA_GROUP = "A:2"
README_HARNESS = inputs.HarnessCase((1.0, 2.0), (0.2, 0.3), (0.0, 0.0), 9, 7)
CATALOG_NAMES = ("crossing-lines", "double-root-line", "constant-cubic", "cusp-3-2",
                 "sqrt-cusp", "cusp-5-2")


def cli_commands(workdir: Path) -> list[tuple[str, list[str], int]]:
    """The README commands: (name, arguments, base-grid samples)."""
    w = str(workdir)
    return [
        ("roots", ["roots", "--poly", "6,11,6", "--report", f"{w}/roots.txt"], 1),
        ("select", ["select", "--curve", "0,-t^2", "--domain", "-1:1", "--level", "10",
                    "--out", f"{w}/branches.csv", "--report", f"{w}/select.txt"], 1025),
        ("lift", ["lift", "--group", README_LIFT_GROUP, "--curve", "1,cos(4*t)",
                  "--domain", "-1:1", "--level", "8", "--out", f"{w}/lift.csv",
                  "--report", f"{w}/lift.txt"], 257),
        ("certify", ["certify", "--csv", f"{w}/branches.csv", "--report", f"{w}/certify.txt"], 1025),
        ("kdata", ["kdata", "--group", README_KDATA_GROUP, "--report", f"{w}/kdata.txt"], 0),
        ("harness", ["harness", "--group", "B:2", "--gmap", "1+0.2*sin(u);2+0.3*cos(v)",
                     "--box", "-1:1,-1:1", "--probes", "7", "--level", "9",
                     "--report", f"{w}/harness.txt"], 7 * 513),
        ("examples", ["examples", "--report", f"{w}/examples.txt"], 0),
    ]


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _check_cli(name: str, workdir: Path, code: int) -> None:
    if code != 0:
        raise checks.CheckFailed(f"cli {name}: exit code {code}")
    text = (workdir / f"{name}.txt").read_text()
    if name == "roots":
        checks.check_roots_report(text, [1.0, 2.0, 3.0])
    elif name == "select":
        checks.check_select_csv(workdir / "branches.csv")
    elif name == "lift":
        checks.check_lift_csv(workdir / "lift.csv", README_LIFT_GROUP)
    elif name == "certify":
        checks.check_certify_report(text)
    elif name == "kdata":
        checks.check_kdata_report(text, README_KDATA_GROUP)
    elif name == "harness":
        checks.check_harness_report(text, README_HARNESS)
    elif name == "examples":
        checks.check_examples_report(text, CATALOG_NAMES)


def cli_workload(seed: int, src: Path, workdir: Path, wrapper: list[str] | None = None) -> Workload:
    """Each README command as a fresh process, in a seeded order (certify
    reads select's CSV, so it follows select).  `wrapper` replaces
    `-m orbitlift.cli` for the traced run."""
    workdir.mkdir(parents=True, exist_ok=True)
    commands = cli_commands(workdir)
    order = list(np.random.default_rng([seed, 5]).permutation(len(commands)))
    order.remove(3)
    order.insert(order.index(1) + 1, 3)
    env = cli_env(src)
    reports: dict[str, str] = {}

    def op_for(name, argv, samples):
        prefix = [sys.executable] + (wrapper or ["-m", "orbitlift.cli"])

        def run():
            proc = subprocess.run(prefix + argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            return proc.returncode, proc.stderr

        def check(result):
            code, err = result
            if code != 0:
                raise checks.CheckFailed(f"cli {name}: exit code {code}: {err.strip()[-300:]}")
            _check_cli(name, workdir, code)
            text = (workdir / f"{name}.txt").read_text()
            if name in ("select", "lift"):
                text += (workdir / ("branches.csv" if name == "select" else "lift.csv")).read_text()
            if name in reports and reports[name] != text:
                raise checks.CheckFailed(f"cli {name}: report differs from the previous run")
            reports[name] = text

        return Op(name, samples, run, check)

    ops = [op_for(*commands[i]) for i in order]

    def self_test(ops: list[Op]) -> list[str]:
        missed = []
        text = (workdir / "roots.txt").read_text()
        dropped = "\n".join(l for l in text.splitlines() if not l.startswith("root[2]")) + "\n"
        if not _rejected(lambda: checks.check_roots_report(dropped, [1.0, 2.0, 3.0])):
            missed.append("roots report with a dropped root")
        header, data = checks.read_csv(workdir / "branches.csv")
        half = data.shape[0] // 2
        data[half:, [1, 2]] = data[half:, [2, 1]]
        bad = workdir / "swapped.csv"
        with open(bad, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in data:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        if not _rejected(lambda: checks.check_select_csv(bad)):
            missed.append("select CSV with branches swapped halfway")
        return missed

    return Workload(ops, lambda: None, self_test, min_rounds=2, scaled=False)


def make(workload: str, seed: int, src: Path, workdir: Path) -> Workload:
    if workload == "cli":
        return cli_workload(seed, src, workdir)
    if workload == "lift":
        return lift_workload(seed)
    return select_workload(seed, clustered=(workload == "select-clustered"))
