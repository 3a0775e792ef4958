"""Window refinement solves only the points its parent level does not hold.

`windows.resolve_windows` takes a refined level's even points from its
parent by lattice index and solves its odd points, those of all live
windows as one block.  The oracle is the same run with a driver that
resolves each window alone and solves every point of every level: every
level's answers, and the selection or lift, must be the same bits with and
without reuse.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from orbitlift import catalog
from orbitlift import curvedsl as cd
from orbitlift import hyperpoly
from orbitlift import invariants as inv
from orbitlift import lifting as lf
from orbitlift import rootflow as rf
from orbitlift import windows as wn
from orbitlift.errors import (
    NotFinite,
    NotHyperbolic,
    NotHyperbolicAt,
    NotInImageAt,
    RootSolveFailed,
    RowError,
    ToleranceViolation,
)

from polys import from_roots


def drive(stepper, sample):
    """The answer of a window stepper whose levels sample samples."""
    samples = None
    try:
        while True:
            samples = sample(stepper.send(samples))
    except StopIteration as done:
        return done.value


def solving_everything(grid, answers, evaluate, solve, join, steppers):
    """A driver that resolves each window alone and solves every point of
    every level."""
    return [drive(s, lambda sub: wn.solved_at(solve, evaluate(sub.points), sub.points)) for s in steppers]


def one_at_a_time(grid, answers, evaluate, solve, join, steppers):
    """The windows driven by `windows.resolve_windows` one by one."""
    return [wn.resolve_windows(grid, answers, evaluate, solve, join, [s])[0] for s in steppers]


def recording(stepper, sent):
    """The stepper, appending to sent the samples of every level it is sent."""
    samples = None
    try:
        while True:
            samples = yield stepper.send(samples)
            sent.append(samples)
    except StopIteration as done:
        return done.value


def record_levels(monkeypatch, module) -> list:
    """Every refined level's answers, as module's windows are sent them:
    one list per window, in the order the windows are made."""
    levels = []
    resolve = module.resolve_window

    def spy(*args):
        levels.append([])
        return recording(resolve(*args), levels[-1])

    monkeypatch.setattr(module, "resolve_window", spy)
    return levels


def trace_refinement(monkeypatch, module):
    """(levels, evaluated): levels() gives each round of refinement of
    module's windows as the grids it refines and the points
    `CoeffCurve.evaluate` got for them; evaluated holds every point array
    evaluated, the caller's grid first."""
    evaluated, asked = [], []
    resolve, evaluate = module.resolve_window, cd.CoeffCurve.evaluate

    def asking(stepper):
        samples = None
        try:
            while True:
                sub = stepper.send(samples)
                asked.append((sub, len(evaluated)))  # sampled by evaluated[len(evaluated)]
                samples = yield sub
        except StopIteration as done:
            return done.value

    def spy_evaluate(self, t):
        evaluated.append(np.array(t, dtype=float))
        return evaluate(self, t)

    monkeypatch.setattr(module, "resolve_window", lambda *args: asking(resolve(*args)))
    monkeypatch.setattr(cd.CoeffCurve, "evaluate", spy_evaluate)

    def levels():
        rounds = sorted({k for _, k in asked})
        return [([sub for sub, j in asked if j == k], evaluated[k]) for k in rounds]

    return levels, evaluated


def solved_rows(monkeypatch) -> list:
    """The bytes of every coefficient row that reaches the root solve."""
    rows = []
    solve = hyperpoly.roots_batch

    def spy(block, tol=1e-10):
        rows.extend(r.tobytes() for r in np.asarray(block, dtype=float))
        return solve(block, tol)

    monkeypatch.setattr(hyperpoly, "roots_batch", spy)
    return rows


def block_bits(block: inv.OrbitBlock) -> list:
    return [
        np.asarray(x, dtype=float).tobytes()
        for x in (block.spectra, block.parity, block.sizes, block.min_distance, block.max_abs)
    ]


def with_and_without_reuse(monkeypatch, module, run, bits):
    """(result, level bits per window, solved rows) with reuse, then with
    each window alone and a full re-solve of every level."""
    out = []
    for driver in (module.resolve_windows, solving_everything):
        with monkeypatch.context() as m:
            m.setattr(module, "resolve_windows", driver)
            levels = record_levels(m, module)
            rows = solved_rows(m)
            result = run()
            out.append((result, [[bits(x) for x in window] for window in levels], rows))
    return out


def roots_curve(root_polys) -> cd.CoeffCurve:
    """The curve whose roots are these t-polynomials (ascending
    coefficients): its components are their elementary symmetric
    polynomials."""
    e = [np.array([1.0])] + [np.array([0.0])] * len(root_polys)
    for k, r in enumerate(root_polys, start=1):
        for j in range(k, 0, -1):
            e[j] = P.polyadd(e[j], P.polymul(r, e[j - 1]))
    return cd.CoeffCurve(lambda t: np.stack([np.polynomial.Polynomial(c)(t) for c in e[1:]], axis=-1), len(e) - 1)


def separated_curve(seed: int, degree: int) -> cd.CoeffCurve:
    """Root lanes 7 apart; pairs of lines crossing at level-8 samples far
    from each other and from the ends, singles smooth and alone."""
    rng = np.random.default_rng(seed)
    pts = cd.Grid.dyadic(-1, 1, 8).points
    crossings = iter(sorted(rng.choice(np.arange(40, 217, 45), size=degree // 2, replace=False)))
    roots = []
    for lane in range(degree // 2):
        centre, tau = 7.0 * lane, float(pts[next(crossings)])
        slope, bend = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
        for s in (slope, -slope):
            roots.append(np.array([centre - s * tau + bend * tau * tau, s - 2 * bend * tau, bend]))
    if degree % 2:
        roots.append(np.array([-7.0, rng.uniform(-1, 1), 0.3]))
    return roots_curve(roots)


def tangent_curve() -> cd.CoeffCurve:
    """Roots f + 0.6 s^2 and f + 1.2 s^2 with s = t - 0.25: a tangential
    contact at t = 0.25 where both roots bend the same way."""
    s2 = np.array([0.0625, -0.5, 1.0])
    f = np.array([0.1, 0.4])
    return roots_curve([P.polyadd(f, 0.6 * s2), P.polyadd(f, 1.2 * s2)])


NON_DYADIC = ("3", "-(t-0.1)^2", "-3*(t-0.1)^2")

SELECTIONS = {
    **{f"separated-{seed}-{deg}": (lambda s=seed, d=deg: separated_curve(s, d), (-1.0, 1.0), 8)
       for seed, deg in ((1, 3), (2, 4), (3, 5))},
    **{e.name: (lambda e=e: cd.CoeffCurve.from_exprs(list(e.components)), e.domain, 8) for e in catalog.CATALOG},
    "tangent": (tangent_curve, (-1.0, 1.0), 8),
    "non-dyadic": (lambda: cd.CoeffCurve.from_exprs(list(NON_DYADIC)), (-0.3, 0.5), 8),
}


class TestSelectionReuse:
    @pytest.mark.parametrize("name", sorted(SELECTIONS))
    def test_same_bits_as_a_full_re_solve(self, name, monkeypatch):
        make, domain, level = SELECTIONS[name]
        curve, grid = make(), cd.Grid.dyadic(*domain, level)
        (got, got_levels, got_rows), (want, want_levels, want_rows) = with_and_without_reuse(
            monkeypatch, rf, lambda: rf.differentiable_selection(curve, grid), lambda v: v.tobytes())
        assert got.branches.tobytes() == want.branches.tobytes()
        assert (got.swap_log, got.unresolved) == (want.swap_log, want.unresolved)
        assert got_levels == want_levels
        if any(want_levels):
            assert len(got_rows) < len(want_rows)

    @pytest.mark.parametrize("name", [n for n in SELECTIONS if n.startswith("separated")] + ["tangent"])
    def test_no_row_solved_twice_on_a_dyadic_domain(self, name, monkeypatch):
        make, domain, level = SELECTIONS[name]
        levels = record_levels(monkeypatch, rf)
        rows = solved_rows(monkeypatch)
        sel = rf.differentiable_selection(make(), cd.Grid.dyadic(*domain, level))
        assert any(levels) and (sel.swap_log or name == "tangent")
        assert len(set(rows)) == len(rows)

    def test_a_non_dyadic_domain_takes_both_paths(self, monkeypatch):
        levels, _ = trace_refinement(monkeypatch, rf)
        grid = cd.Grid.dyadic(-0.3, 0.5, 8)
        sel = rf.differentiable_selection(cd.CoeffCurve.from_exprs(list(NON_DYADIC)), grid)
        assert sel.swap_log == ((128, (1, 0, 2)),)
        assert sel.unresolved == ()
        assert levels()
        parent_t = grid.points
        for (sub,), new in levels():
            t = sub.points
            # the refined points on the parent's lattice, found by their values,
            # have the parent's bits and are taken from it; the points between
            # them are solved anew
            shared = np.isin(np.round((t - parent_t[0]) / (parent_t[1] - parent_t[0]), 6),
                             np.arange(parent_t.size))
            assert np.isin(t[shared].view(np.int64), parent_t.view(np.int64)).all()
            assert new.tobytes() == t[~shared].tobytes()
            assert 0 < shared.sum() < t.size
            parent_t = t


class TestLockstep:
    """The windows of one selection refine in lockstep: one root solve per
    level for all of them, with the answers each window gets alone."""

    def test_one_block_per_level(self, monkeypatch):
        # roots {0, 3t - 1.5, 3t + 1.5}: crossings at t = -0.5 and t = 0.5
        curve = cd.CoeffCurve.from_exprs(["-6*t", "9*t^2-2.25", "0"])
        grid = cd.Grid.dyadic(-1.0, 1.0, 8)
        runs = []
        for driver in (rf.resolve_windows, one_at_a_time):
            with monkeypatch.context() as m:
                m.setattr(rf, "resolve_windows", driver)
                levels = record_levels(m, rf)
                blocks = []
                solve = rf._sorted_matrix
                m.setattr(rf, "_sorted_matrix", lambda rows, tol: blocks.append(len(rows)) or solve(rows, tol))
                runs.append((rf.differentiable_selection(curve, grid), [len(w) for w in levels], blocks))
        (got, got_levels, got_blocks), (alone, alone_levels, alone_blocks) = runs
        assert got.swap_log == alone.swap_log == ((64, (1, 0, 2)), (192, (0, 2, 1)))
        assert got.branches.tobytes() == alone.branches.tobytes()
        assert got.unresolved == alone.unresolved == ()
        assert got_levels == alone_levels == [1, 1]
        # the grid, then one block per level holding both windows' new points
        assert len(got_blocks) == 1 + max(got_levels)
        assert len(alone_blocks) == 1 + sum(alone_levels)
        assert got_blocks[0] == alone_blocks[0] == grid.n_cells + 1
        assert sum(got_blocks[1:]) == sum(alone_blocks[1:])


# lines through a mirror, base + (t - t_cross) * direction: (domain, t_cross, base, direction)
LIFTS = {
    "A:2": ((-1.0, 1.0), 0.25, [0.0, 0.0, 3.0], [1.0, -1.0, 0.3]),
    "B:3": ((-0.3, 0.5), 0.1, [0.0, 2.5, 4.0], [1.0, 0.2, 0.0]),
    "D:4": ((-1.0, 1.0), -0.375, [0.5, 1.0, 4.0, 4.0], [0.1, 0.2, 1.0, -1.0]),
    "I2:4": ((-1.0, 1.0), 0.125, [2.0, 0.0], [0.3, 1.0]),
}


def mirror_lift_case(spec):
    g = inv.parse_group(spec)
    m = inv.orbit_map(g)
    domain, tc, base, direction = LIFTS[spec]
    base, direction = np.array(base), np.array(direction)
    curve = lf._composed_curve(m.evaluate, lambda t: base + (t - tc) * direction, m.n_invariants)
    return g, m, curve, cd.Grid.dyadic(*domain, 8)


class TestLiftReuse:
    @pytest.mark.parametrize("spec", sorted(LIFTS))
    def test_same_bits_as_a_full_re_solve(self, spec, monkeypatch):
        g, m, curve, grid = mirror_lift_case(spec)
        (got, got_levels, got_rows), (want, want_levels, want_rows) = with_and_without_reuse(
            monkeypatch, lf, lambda: lf.lift_curve(g, m, curve, grid), block_bits)
        assert any(want_levels) and want.swap_log
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.swap_log, got.unresolved, got.residual) == (want.swap_log, want.unresolved, want.residual)
        assert [r.verdict for r in got.reports] == [r.verdict for r in want.reports]
        assert got_levels == want_levels
        if g.kind != "I2":
            assert len(got_rows) < len(want_rows)
        if g.kind != "I2":
            assert len(set(got_rows)) == len(got_rows)


# a selection and a lift with one resolved window each, on a dyadic and a
# non-dyadic domain: (module, SELECTIONS or LIFTS key)
ONE_WINDOW = {
    "select-dyadic": (rf, "separated-1-3"),
    "select-non-dyadic": (rf, "non-dyadic"),
    "lift-dyadic": (lf, "A:2"),
    "lift-non-dyadic": (lf, "B:3"),
}


class TestOnlyNewPointsAreSolved:
    """A refined level's even points are its parent's points: the level
    evaluates and solves only its odd points."""

    @pytest.mark.parametrize("name", sorted(ONE_WINDOW))
    def test_each_level_evaluates_its_odd_points_once(self, name, monkeypatch):
        module, key = ONE_WINDOW[name]
        if module is rf:
            make, domain, level = SELECTIONS[key]
            curve, grid = make(), cd.Grid.dyadic(*domain, level)
            run = lambda: rf.differentiable_selection(curve, grid)  # noqa: E731
        else:
            g, m, curve, grid = mirror_lift_case(key)
            run = lambda: lf.lift_curve(g, m, curve, grid)  # noqa: E731
        levels, evaluated = trace_refinement(monkeypatch, module)
        rows = solved_rows(monkeypatch)
        result = run()
        assert len(result.swap_log) == 1 and result.unresolved == ()
        assert levels() and len(evaluated) == 1 + len(levels())
        for (sub,), new in levels():
            assert new.tobytes() == sub.points[1::2].tobytes()
        # the caller's grid and every level's points, each evaluated and
        # solved once
        points = np.sort(np.concatenate(evaluated))
        every = np.unique(np.concatenate([grid.points] + [sub.points for (sub,), _ in levels()]))
        assert points.tobytes() == every.tobytes()
        assert len(rows) == points.size


class TestErrorsAtARefinedLevel:
    """A row the refinement solves anew that fails names its own t, not
    the t of the k-th point of the whole level."""

    @staticmethod
    def poison(monkeypatch, module, k, error):
        """From the second root solve on, the k-th row of the second block
        fails wherever it is solved; returns the t of that row."""
        calls, poisoned = [], []
        solve = hyperpoly.roots_batch

        def failing(block, tol=1e-10):
            block = np.asarray(block, dtype=float)
            calls.append(len(block))
            if len(calls) == 2:
                poisoned.append(block[k].tobytes())
            hit = [i for i, r in enumerate(block) if poisoned and r.tobytes() == poisoned[0]]
            if hit:
                raise error("poisoned row", index=hit[0])
            return solve(block, tol)

        monkeypatch.setattr(hyperpoly, "roots_batch", failing)
        levels, _ = trace_refinement(monkeypatch, module)

        def where():
            (sub, *_), new = levels()[0]
            assert sub.points[k] != new[k]
            return float(new[k])

        return where

    @pytest.mark.parametrize("k", [1, 5])
    def test_select(self, k, monkeypatch):
        curve, grid = separated_curve(2, 4), cd.Grid.dyadic(-1, 1, 8)
        where = self.poison(monkeypatch, rf, k, NotHyperbolic)
        with pytest.raises(NotHyperbolicAt) as exc:
            rf.differentiable_selection(curve, grid)
        assert exc.value.t == where()
        for error in (RootSolveFailed, NotFinite):
            where = self.poison(monkeypatch, rf, k, error)
            with pytest.raises(error, match=r"poisoned row \(at t=(.*)\)$") as exc:
                rf.differentiable_selection(curve, grid)
            assert str(exc.value).endswith(f"(at t={where()!r})")

    @pytest.mark.parametrize("k", [1, 5])
    def test_lift(self, k, monkeypatch):
        g, m, curve, grid = mirror_lift_case("A:2")
        where = self.poison(monkeypatch, lf, k, NotHyperbolic)
        with pytest.raises(NotInImageAt) as exc:
            lf.lift_curve(g, m, curve, grid)
        assert exc.value.t == where()
        for error in (RootSolveFailed, NotFinite):
            where = self.poison(monkeypatch, lf, k, error)
            with pytest.raises(error, match=r"poisoned row \(at t=(.*)\)$") as exc:
                lf.lift_curve(g, m, curve, grid)
            assert str(exc.value).endswith(f"(at t={where()!r})")


# the A:7 point, held constant, whose rebuilt roots miss its coefficients
BACKWARD_ROOTS = [-329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
                  -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927]
BACKWARD = "roots fail the backward check: they miss the coefficients by 2.05e+22 (degree 8, tol 1e-10)"


def _constant(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


class TestRefusedRowsNameTheirT:
    """Every RowError a block solve of either engine raises reaches the
    caller through `windows.solved_at`, as its own type, naming the
    refused row's t with the message the row's refusal has always had.
    The overflow of a recentred polynomial is refused as NotFinite, where
    it once read as a complex pair (select) or a point outside the image
    (lift)."""

    @pytest.mark.parametrize("exprs, level, error, message", [
        (["0", "0.25-t^2"], 4, NotHyperbolicAt, "polynomial not hyperbolic at t=-0.375"),
        (_constant(from_roots(BACKWARD_ROOTS).coeffs), 2, RootSolveFailed,
         f"{BACKWARD} (at t=-1.0)"),
        (["1e300", "1e300", "1"], 4, NotFinite,
         "the roots, or the recentred polynomial, overflow (degree 3) (at t=-1.0)"),
    ])
    def test_select(self, exprs, level, error, message):
        with pytest.raises(RowError) as exc:
            rf.differentiable_selection(cd.CoeffCurve.from_exprs(exprs), cd.Grid.dyadic(-1, 1, level))
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("spec, exprs, level, error, message", [
        ("B:2", ["1", "-1+0*t"], 4, NotInImageAt, "curve value not in the orbit-map image at t=-1.0"),
        ("A:1", ["0", "5e-10"], 3, ToleranceViolation,
         "orbit-space point within (tol, 10*tol] of the image (at t=-1.0)"),
        ("I2:3", ["-3e-10", "0"], 3, ToleranceViolation,
         "radius^2 within (tol, 10*tol] below zero (at t=-1.0)"),
        ("I2:3", ["1", "1+5e-10"], 3, ToleranceViolation,
         "cos(m*theta) target within (tol, 10*tol] above 1 (at t=-1.0)"),
        ("D:3", ["3", "3", "1e200*t"], 3, NotFinite,
         "the polynomial of the orbit-space point is not finite (at t=-1.0)"),
        ("I2:4", ["1e200", "0"], 3, NotFinite, "orbit-space point not finite, or its r^m overflows (at t=-1.0)"),
        ("A:2", ["1e300", "1e300", "1"], 3, NotFinite,
         "the roots, or the recentred polynomial, overflow (degree 3) (at t=-1.0)"),
        ("A:7", _constant(inv.orbit_map(inv.parse_group("A:7")).evaluate(BACKWARD_ROOTS)), 2, RootSolveFailed,
         f"{BACKWARD} (at t=-1.0)"),
    ])
    def test_lift(self, spec, exprs, level, error, message):
        g = inv.parse_group(spec)
        with pytest.raises(RowError) as exc:
            lf.lift_curve(g, inv.orbit_map(g), cd.CoeffCurve.from_exprs(exprs), cd.Grid.dyadic(-1, 1, level))
        assert type(exc.value) is error and str(exc.value) == message
