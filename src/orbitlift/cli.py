"""Command-line front end: selections, lifts, certifications, k-data.

Exit codes: 0 success, 2 when the mathematics says no (non-hyperbolic input,
curve outside the orbit-map image, ill-posed tolerance band), 3 when a
certification is inconclusive, or a lift's residual exceeds its bound, and
--strict was given.

Each subcommand imports the modules it runs when it runs, so start-up loads
no more than that command needs:

  roots     curvedsl, hyperpoly
  select    curvedsl, rootflow (hyperpoly, windows), regcheck
  lift      curvedsl, invariants, lifting (hyperpoly, windows, regcheck)
  certify   curvedsl, regcheck
  kdata     invariants (hyperpoly)
  harness   curvedsl, invariants, lifting
  examples  catalog

All but `examples` load numpy; `examples` and `--help` start without it.
A --csv curve is exactly its file's rows, and certify --csv names each
column's report by the file's header (curvedsl.read_curve_csv).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import OrbitLiftError

# accept option values like "-1:1", "-1e-3:1,-2:2" or "-6e0,11,-6" without
# '=' syntax: a negative float, then floats after ':' or ','
_FLOAT = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
_NEGATIVE_VALUE = re.compile(rf"^-{_FLOAT}([:,][+-]?{_FLOAT})*$")

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_domain(text: str) -> tuple[float, float]:
    lo, hi = text.split(":")
    return float(lo), float(hi)


def _checked(convert, ok, rule: str):
    """argparse type: convert the text, then reject values that break rule."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # names the type in argparse's messages
    return parse


_LEVEL = _checked(int, lambda v: v >= 0, ">= 0")
_LEVELS = _checked(int, lambda v: v >= 4, ">= 4")
_PROBES = _checked(int, lambda v: v >= 1, ">= 1")
_TOL = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def _curve_and_grid(args) -> tuple[curvedsl.CoeffCurve, curvedsl.Grid, list[str]]:
    """The curve of --curve or --csv, the dyadic grid to sample it on, and
    its component names (a CSV's columns, or the --curve expressions):
    --domain (default -1:1) at --level (default 8), or a CSV's own domain at
    most at its own level, which is the default (curvedsl.read_curve_csv)."""
    from . import curvedsl

    try:
        if args.csv:
            return curvedsl.read_curve_csv(args.csv, args.domain, args.level)
        sources = curvedsl.split_top_level(args.curve)
        curve = curvedsl.CoeffCurve.from_exprs(sources)
    except (OSError, ValueError) as err:
        raise OrbitLiftError(str(err)) from err
    grid = curvedsl.Grid.dyadic(*(args.domain or (-1.0, 1.0)), 8 if args.level is None else args.level)
    return curve, grid, sources


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prefixed_report(report: regcheck.RegularityReport, prefix: str) -> list[str]:
    return [f"{prefix}{line}" for line in report.to_text().splitlines()]


def cmd_roots(args) -> int:
    import numpy as np

    from . import curvedsl, hyperpoly

    try:
        coeffs = [float(x) for x in curvedsl.split_top_level(args.poly)]
        poly = hyperpoly.MonicHyperbolic(coeffs)
    except ValueError as err:
        raise OrbitLiftError(f"--poly: {err}") from err
    values = hyperpoly.roots(poly, args.tol).values
    lines = ["tool: roots", f"degree: {len(coeffs)}", f"tol: {_fmt(args.tol)}"]
    lines += [f"root[{i}]: {_fmt(v)}" for i, v in enumerate(values)]
    _emit("\n".join(lines) + "\n", args.report)
    if args.out:
        curvedsl.write_samples_csv(args.out, np.arange(values.size, dtype=float),
                                   values.reshape(-1, 1), ["root"])
    return EXIT_OK


def _selection_report(args, sel: rootflow.RootBranches, reports) -> str:
    source = args.curve if args.curve else f"csv:{args.csv}"
    lines = [
        "tool: select",
        f"curve: {source}",
        f"domain: {_fmt(sel.grid.span[0])}:{_fmt(sel.grid.span[1])}",
        f"level: {sel.grid.level}",
        f"tol: {_fmt(args.tol)}",
        f"branches: {sel.n}",
        f"swap-count: {len(sel.swap_log)}",
    ]
    for i, (idx, perm) in enumerate(sel.swap_log):
        lines.append(f"swap[{i}].index: {idx}")
        lines.append(f"swap[{i}].perm: {','.join(str(p) for p in perm)}")
    lines.append(f"unresolved-count: {len(sel.unresolved)}")
    for i, (lo, hi) in enumerate(sel.unresolved):
        lines.append(f"unresolved[{i}].window: {_fmt(lo)}:{_fmt(hi)}")
    for j, rep in enumerate(reports):
        lines.append(f"branch[{j}].verdict: {rep.verdict}")
    for j, rep in enumerate(reports):
        lines.extend(_prefixed_report(rep, f"branch[{j}].report."))
    return "\n".join(lines) + "\n"


def cmd_select(args) -> int:
    from . import curvedsl, regcheck, rootflow

    curve, grid, _ = _curve_and_grid(args)
    sel = rootflow.differentiable_selection(curve, grid, args.tol)
    reports = regcheck.certify_samples(sel.branches.T, grid.span, args.levels)
    if args.out:
        names = [f"branch{j}" for j in range(sel.n)]
        curvedsl.write_samples_csv(args.out, grid.points, sel.branches.T, names)
    _emit(_selection_report(args, sel, reports), args.report)
    if args.strict and any(r.verdict == regcheck.INCONCLUSIVE for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_lift(args) -> int:
    from . import curvedsl, invariants, lifting, regcheck

    group = invariants.parse_group(args.group)
    map_ = invariants.orbit_map(group)
    curve, grid, _ = _curve_and_grid(args)
    lift = lifting.lift_curve(group, map_, curve, grid, args.tol)
    if args.out:
        names = [f"x{j + 1}" for j in range(group.dim)]
        curvedsl.write_samples_csv(args.out, grid.points, lift.values, names)
    lines = [
        "tool: lift",
        f"group: {args.group}",
        f"curve: {args.curve if args.curve else f'csv:{args.csv}'}",
        f"domain: {_fmt(grid.span[0])}:{_fmt(grid.span[1])}",
        f"level: {grid.level}",
        f"tol: {_fmt(args.tol)}",
        f"residual: {_fmt(lift.residual)}",
        f"max-step: {_fmt(lift.max_step)}",
        f"continuity-ok: {str(lift.continuity_ok).lower()}",
        f"residual-ok: {str(lift.residual_ok).lower()}",
        f"swap-count: {len(lift.swap_log)}",
        f"unresolved-count: {len(lift.unresolved)}",
    ]
    for j, rep in enumerate(lift.reports):
        lines.append(f"coordinate[{j}].verdict: {rep.verdict}")
    for j, rep in enumerate(lift.reports):
        lines.extend(_prefixed_report(rep, f"coordinate[{j}].report."))
    _emit("\n".join(lines) + "\n", args.report)
    if args.strict and (not lift.residual_ok
                        or any(r.verdict == regcheck.INCONCLUSIVE for r in lift.reports)):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import curvedsl, regcheck

    lines = ["tool: certify"]
    reports = []
    if args.csv:
        curve, grid, names = _curve_and_grid(args)
        lines.append("source: csv")
        lines.append(f"columns: {curve.n}")
        reports += zip(names, regcheck.certify_samples(curve.evaluate(grid.points), grid.span, args.levels))
    else:
        expr = curvedsl.parse_curve_expr(args.curve)
        lines.append("source: expr")
        lines.append(f"curve: {args.curve}")
        lines.append("columns: 1")
        domain = args.domain or (-1.0, 1.0)
        # the samples of the level-L grid, certified as a CSV of them is: at most L levels
        grid = curvedsl.Grid.dyadic(*domain, 8 if args.level is None else args.level)
        reports.append(("f", regcheck.certify_samples(curvedsl.evaluate_expr(expr, grid.points), domain, args.levels)))
    for name, rep in reports:
        lines.append(f"column[{name}].verdict: {rep.verdict}")
    for name, rep in reports:
        lines.extend(_prefixed_report(rep, f"column[{name}].report."))
    _emit("\n".join(lines) + "\n", args.report)
    if args.strict and any(r.verdict == regcheck.INCONCLUSIVE for _, r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_kdata(args) -> int:
    from . import invariants

    group = invariants.parse_group(args.group)
    map_ = invariants.orbit_map(group)
    kd = invariants.compute_k(group, map_)
    lines = [
        "tool: kdata",
        f"group: {kd.group_label}",
        f"order: {kd.group_order}",
        f"dim: {group.dim}",
        f"invariant-degrees: {','.join(str(d) for d in map_.degrees)}",
        f"d: {kd.d_value}",
        f"k: {kd.k_value}",
        f"summands: {len(kd.records)}",
    ]
    for i, rec in enumerate(kd.records):
        lines.append(f"summand[{i}].dim: {rec.dim}")
        lines.append(f"summand[{i}].v: {','.join(_fmt(x) for x in rec.v)}")
        lines.append(f"summand[{i}].isotropy-order: {rec.isotropy_order}")
        lines.append(f"summand[{i}].orbit-size: {rec.orbit_size}")
    _emit("\n".join(lines) + "\n", args.report)
    return EXIT_OK


def _make_probes(box, count: int):
    import numpy as np

    def line(dx, dy):
        return lambda t: np.array([cx + dx * t, cy + dy * t])

    (a, b), (c, d) = box
    cx, cy = 0.5 * (a + b), 0.5 * (c + d)
    hx, hy = 0.45 * (b - a), 0.45 * (d - c)
    probes = []
    n_lines = max(count - 2, 1)
    for i in range(n_lines):
        phi = np.pi * i / n_lines
        probes.append((f"line-{i}", line(hx * np.cos(phi), hy * np.sin(phi))))
    if count >= 2:
        probes.append(("parabola-x", lambda t: np.array([cx + hx * t, cy + hy * (t * t - 0.5)])))
    if count >= 3:
        probes.append(("parabola-y", lambda t: np.array([cx + hx * (t * t - 0.5), cy + hy * t])))
    return probes[:count]


def cmd_harness(args) -> int:
    import numpy as np

    from . import curvedsl, invariants, lifting

    group = invariants.parse_group(args.group)
    map_ = invariants.orbit_map(group)
    gmap_sources = curvedsl.split_top_level(args.gmap, ";")
    if len(gmap_sources) != group.dim:
        raise OrbitLiftError(
            f"gmap needs {group.dim} components for {args.group}, got {len(gmap_sources)}"
        )
    gmap_exprs = [curvedsl.parse_curve_expr(s, variables=("u", "v")) for s in gmap_sources]
    try:
        (a, b), (c, d) = (_parse_domain(part) for part in args.box.split(","))
    except ValueError as err:
        raise OrbitLiftError(f"--box must be a:b,c:d, got {args.box!r}") from err
    if not (math.isfinite(b - a) and math.isfinite(d - c)):
        raise OrbitLiftError(f"--box must be finite, got {args.box!r}")

    def f(point):
        env = {"u": point[0], "v": point[1]}
        target = np.array([curvedsl.evaluate_with_env(e, env) for e in gmap_exprs])
        return map_.evaluate(target)

    probes = _make_probes(((a, b), (c, d)), args.probes)
    grid = curvedsl.Grid.dyadic(-1.0, 1.0, args.level)
    rep = lifting.lipschitz_harness(group, map_, f, probes, grid, args.tol)
    lines = [
        "tool: harness",
        f"group: {args.group}",
        f"gmap: {args.gmap}",
        f"box: {args.box}",
        f"probes: {len(rep.probes)}",
        f"level: {args.level}",
        f"verdict: {rep.verdict}",
    ]
    for i, pr in enumerate(rep.probes):
        lines.append(f"probe[{i}].name: {pr.name}")
        lines.append(f"probe[{i}].lipschitz: {_fmt(pr.lipschitz_estimate)}")
        lines.append(f"probe[{i}].verdict: {pr.verdict}")
    _emit("\n".join(lines) + "\n", args.report)
    if args.strict and rep.verdict == lifting.LipschitzHarnessReport.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_examples(args) -> int:
    from . import catalog

    lines = ["tool: examples", f"entries: {len(catalog.CATALOG)}"]
    for i, e in enumerate(catalog.CATALOG):
        lines.append(f"example[{i}].name: {e.name}")
        lines.append(f"example[{i}].curve: {','.join(e.components)}")
        lines.append(f"example[{i}].declared-class: {e.declared_class}")
        floor = "at-least " if e.at_least else ""
        lines.append(f"example[{i}].expected-verdict: {floor}{e.expected_verdict}")
        if e.flip_partner:
            lines.append(f"example[{i}].flip-partner: {e.flip_partner}")
        lines.append(f"example[{i}].note: {e.note}")
    _emit("\n".join(lines) + "\n", args.report)
    return EXIT_OK


class _Subparser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitlift",
        description="Root-branch selection and orbit-map lifting with regularity certificates",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    # each subcommand takes the options its handler reads, and --report;
    # "--curve" stands for the required choice between --curve and --csv, and
    # for the --domain and --level of its grid, whose defaults a --csv file sets
    options = {
        "--poly": dict(required=True, help="comma-separated a1,...,an"),
        "--group": dict(required=True, help='catalog group, e.g. "A:2", "I2:5"'),
        "--level": dict(type=_LEVEL, default=8),
        "--gmap": dict(required=True, help="semicolon-separated map components in u,v"),
        "--box": dict(default="-1:1,-1:1", help="probe box, e.g. -1:1,-1:1"),
        "--probes": dict(type=_PROBES, default=7),
        "--tol": dict(type=_TOL, default=1e-10),
        "--levels": dict(type=_LEVELS, default=6, help="refinement levels examined by the certifier"),
        "--strict": dict(action="store_true", help="exit 3 when a certificate is inconclusive"
                         " or a lift's residual exceeds its bound"),
        "--out": dict(default=None, help="CSV output path"),
    }
    commands = [
        ("roots", cmd_roots, "real roots of one polynomial", ["--poly", "--tol", "--out"]),
        ("select", cmd_select, "differentiable root-branch selection",
         ["--curve", "--tol", "--levels", "--strict", "--out"]),
        ("lift", cmd_lift, "lift an orbit-space curve",
         ["--group", "--curve", "--tol", "--strict", "--out"]),
        ("certify", cmd_certify, "certify the regularity of samples or an expression",
         ["--curve", "--levels", "--strict"]),
        ("kdata", cmd_kdata, "invariant degrees and the constant k", ["--group"]),
        ("harness", cmd_harness, "several-variable locally-Lipschitz probe harness",
         ["--group", "--gmap", "--box", "--probes", "--level", "--tol", "--strict"]),
        ("examples", cmd_examples, "list the built-in example catalog", []),
    ]
    for name, func, help_text, flags in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            if flag == "--curve":
                source = p.add_mutually_exclusive_group(required=True)
                source.add_argument("--curve", default=None, help="comma-separated component expressions")
                source.add_argument("--csv", default=None, help="curve rows CSV (header t,a1,...): 2^D + 1"
                                    " rows on the level-D dyadic grid of [t_first, t_last], and no value between")
                p.add_argument("--domain", type=_parse_domain, default=None, metavar="a:b",
                               help="default -1:1; a --csv curve's is its file's")
                p.add_argument("--level", type=_LEVEL, default=None,
                               help="default 8; a --csv curve's is at most, and by default, its file's D")
            else:
                p.add_argument(flag, **options[flag])
        p.add_argument("--report", default=None, help="report output path (default: stdout)")
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrbitLiftError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
