import math

import numpy as np
import pytest

import generic_kernels
import lift_checks

from orbitlift import curvedsl as cd
from orbitlift import invariants as inv
from orbitlift import lifting as lf
from orbitlift import regcheck as rc
from orbitlift import rootflow as rf
from orbitlift.errors import NotInImageAt, RootSolveFailed, ToleranceViolation


def group_and_map(spec):
    g = inv.parse_group(spec)
    return g, inv.orbit_map(g)


def err_mod_group(values, reference, group):
    """Sup error against the reference curve, minimized over one fixed element."""
    best = np.inf
    for el in group.elements():
        best = min(best, float(np.max(np.abs(values - reference @ el.T))))
    return best


class TestLiftCurve:
    def test_a1_crossing_parabola(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        grid = cd.Grid.dyadic(-1, 1, 10)
        lift = lf.lift_curve(g, m, curve, grid)
        t = grid.points
        ref = np.stack([t, -t], axis=1)
        assert err_mod_group(lift.values, ref, g) < 1e-8
        assert lift.residual < 1e-8
        assert lift.unresolved == ()

    @pytest.mark.parametrize("mm", [3, 4, 5])
    def test_dihedral_circle(self, mm):
        g, m = group_and_map(f"I2:{mm}")
        curve = cd.CoeffCurve.from_exprs(["1", f"cos({mm}*t)"])
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        t = grid.points
        ref = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert err_mod_group(lift.values, ref, g) < 1e-8
        assert lift.residual < 1e-8

    def test_constant_curve_constant_lift(self):
        g, m = group_and_map("B:2")
        y0 = m.evaluate([0.7, 1.9])
        curve = cd.CoeffCurve.from_exprs([f"{float(y0[0])!r}", f"{float(y0[1])!r}"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(0, 1, 6))
        assert lift.residual < 1e-10
        assert lift.max_step < 1e-12
        assert lift.continuity_ok

    def test_not_in_image(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "1"])  # x^2 + 1: empty fiber
        with pytest.raises(NotInImageAt):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 4))

    def test_failed_backward_check_names_t(self):
        # an A:7 point whose root solve fails its backward check, held constant
        g, m = group_and_map("A:7")
        y = m.evaluate([
            -329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
            -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927,
        ])
        curve = cd.CoeffCurve.from_exprs([repr(v) for v in y.tolist()])
        with pytest.raises(RootSolveFailed, match=r"\(at t=-1\.0\)$"):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 2))

    @staticmethod
    def _switching_curve(rows, starts):
        """A curve equal to rows[k] from t = starts[k] on: its values change
        at the given samples, so that a failing row need not be the first."""

        def at(t):
            return np.select([(t >= s)[:, None] for s in starts[::-1]], [np.asarray(r) for r in rows[::-1]])

        return cd.CoeffCurve(at, len(rows[0]))

    @pytest.mark.parametrize("spec,good,band,outside", [
        # x^2 - 1, then x^2 + 5e-10 (hyperbolic only at 10*tol), then x^2 + 1
        ("A:1", [0.0, -1.0], [0.0, 5e-10], [0.0, 1.0]),
        # squared coordinates (1, 2), then (-3e-10, 1), then a complex pair
        ("B:2", [3.0, 2.0], [1.0 - 3e-10, -3e-10], [0.0, 1.0]),
    ])
    def test_band_row_before_a_row_outside_the_image(self, spec, good, band, outside):
        g, m = group_and_map(spec)
        curve = self._switching_curve([good, band, outside], [-1.0, -0.25, 0.25])
        with pytest.raises(ToleranceViolation, match=r"of the image \(at t=-0\.25\)$"):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 3))

    def test_negative_square_names_its_row(self):
        # squared coordinates (-1e-6, 1): in the image of no B:2 point;
        # the complex pair after it must not be reported first
        g, m = group_and_map("B:2")
        curve = self._switching_curve([[3.0, 2.0], [1.0 - 1e-6, -1e-6], [0.0, 1.0]], [-1.0, 0.0, 0.5])
        with pytest.raises(NotInImageAt) as exc:
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 3))
        assert exc.value.t == 0.0

    def test_failed_backward_check_after_good_rows_names_its_t(self):
        g, m = group_and_map("A:7")
        bad = m.evaluate([
            -329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
            -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927,
        ])
        good = m.evaluate(np.arange(1.0, 9.0))
        curve = self._switching_curve([good, bad], [-1.0, 0.5])
        with pytest.raises(RootSolveFailed, match=r"backward check.*\(at t=0\.5\)$"):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 3))

    def test_constant_curve_with_coefficients_near_1e12(self):
        # sigma of the B:4 point (100, 100, 100, 0.05): its lift stays on the orbit
        g, m = group_and_map("B:4")
        y = m.evaluate([100.0, 100.0, 100.0, 0.05])
        curve = cd.CoeffCurve.from_exprs([repr(v) for v in y.tolist()])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 4))
        assert lift.unresolved == ()
        assert lift_checks.verify_lift(m, lift, curve) <= 1e-9 * (1.0 + float(np.max(np.abs(y))))

    def test_tolerance_band_names_t(self):
        # x^2 + 5e-10: inside the (tol, 10*tol] near-miss band at every t
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "5e-10"])
        with pytest.raises(ToleranceViolation, match=r"of the image \(at t=-1\.0\)$"):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 4))

    def test_unbounded_branches_leave_the_window_unresolved(self):
        # roots +-|t|^(1/2): no one-sided derivatives at the collision
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-powabs(t,1)"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 8))
        assert lift.unresolved == ((-0.0078125, 0.0078125),)
        assert lift.swap_log == ()
        assert [r.verdict for r in lift.reports] == [rc.UNBOUNDED] * 2

    def test_window_at_the_domain_start_follows_nearest_points(self, monkeypatch):
        # roots +-(t + 0.96875) cross at sample 4 of 256, too close to t0
        # for the side fits: the window is crossed by nearest points alone
        def no_resolve(*args, **kwargs):
            raise AssertionError("a window at the domain end was resolved")

        monkeypatch.setattr(lf, "resolve_window", no_resolve)
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-(t+0.96875)^2"])
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        s = grid.points + 0.96875
        assert err_mod_group(lift.values, np.stack([s, -s], axis=1), g) < 1e-7
        assert lift.swap_log == ()
        assert lift.unresolved == ()
        assert [r.verdict for r in lift.reports] == [rc.TWICE] * 2

    def test_no_teleporting(self):
        g, m = group_and_map("I2:5")
        curve = cd.CoeffCurve.from_exprs(["1", "cos(5*t)"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 8))
        assert lift.continuity_ok
        assert lift.max_step < 2.5 * lift.grid.step  # unit-speed circle


class TestVerifyLift:
    def test_valid_lift_small_residual(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 8))
        assert lift_checks.verify_lift(m, lift, curve) < 1e-8

    def test_perturbation_detected(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        k = 17
        values = lift.values.copy()
        values[k, 0] += 0.1  # not a fiber direction
        broken = lf.LiftResult(
            grid=lift.grid, group=lift.group, values=values, residual=np.nan,
            reports=(), swap_log=(), unresolved=(), max_step=0.0, continuity_bound=0.0,
            residual_bound=0.0,
        )
        # oracle: sigma changes by (e1, e2) of the perturbed pair
        t_k = grid.points[k]
        v = lift.values[k]
        w = values[k]
        expected = np.max(np.abs(m.evaluate(w) - m.evaluate(v)))
        assert expected > 0.01
        assert lift_checks.verify_lift(m, broken, curve) >= expected - 1e-9

    def test_constant_zero_residual(self):
        g, m = group_and_map("I2:3")
        y0 = m.evaluate([0.5, 0.25])
        curve = cd.CoeffCurve.from_exprs([f"{float(y0[0])!r}", f"{float(y0[1])!r}"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(0, 1, 6))
        assert lift_checks.verify_lift(m, lift, curve) < 1e-12


class TestAConsistency:
    def test_lift_matches_differentiable_selection(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        grid = cd.Grid.dyadic(-1, 1, 9)
        lift = lf.lift_curve(g, m, curve, grid)
        sel = rf.differentiable_selection(curve, grid)
        # as multisets per time
        assert np.allclose(
            np.sort(lift.values, axis=1), np.sort(sel.branches.T, axis=1), atol=1e-9
        )
        # as branches after one global permutation
        errs = [
            np.max(np.abs(lift.values - sel.branches.T)),
            np.max(np.abs(lift.values - sel.branches.T[:, ::-1])),
        ]
        assert min(errs) < 1e-9

    def test_three_branch_consistency(self):
        g, m = group_and_map("A:2")
        # roots sin(t), sin(t)+2, cos(t)-3: e1, e2, e3 composed symbolically
        r = ["sin(t)", "sin(t)+2", "cos(t)-3"]
        e1 = f"({r[0]})+({r[1]})+({r[2]})"
        e2 = f"({r[0]})*({r[1]})+({r[0]})*({r[2]})+({r[1]})*({r[2]})"
        e3 = f"({r[0]})*({r[1]})*({r[2]})"
        curve = cd.CoeffCurve.from_exprs([e1, e2, e3])
        grid = cd.Grid.dyadic(0, 2, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        sel = rf.differentiable_selection(curve, grid)
        assert np.allclose(
            np.sort(lift.values, axis=1), np.sort(sel.branches.T, axis=1), atol=1e-9
        )


class TestEquivariance:
    @pytest.mark.parametrize("spec", ["A:1", "B:2", "D:3", "I2:4"])
    def test_bit_identical_for_exact_elements(self, spec):
        g, m = group_and_map(spec)
        if spec == "A:1":
            curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        elif spec == "I2:4":
            curve = cd.CoeffCurve.from_exprs(["1", "cos(4*t)"])
        else:
            v = {"B:2": [0.4, 1.3], "D:3": [0.3, 1.1, 2.4]}[spec]
            y = m.evaluate(v)
            curve = cd.CoeffCurve.from_exprs(
                [f"{float(yi)!r}+0.1*sin(t)*{0 if i else 1}" for i, yi in enumerate(y)]
            )
        grid = cd.Grid.dyadic(-1, 1, 7)
        lift = lf.lift_curve(g, m, curve, grid, tol=1e-9)
        rng = np.random.default_rng(4)
        elements = g.elements()
        el = elements[int(rng.integers(0, len(elements)))]
        moved = lift_checks.transformed_lift(m, lift, el, curve)
        assert moved.residual == lift.residual  # bitwise equal floats
        base_reports = sorted(r.to_text() for r in lift.reports)
        moved_reports = sorted(r.to_text() for r in moved.reports)
        assert base_reports == moved_reports

    def test_inexact_rotation_equivariance_to_roundoff(self):
        g, m = group_and_map("I2:3")
        curve = cd.CoeffCurve.from_exprs(["1", "cos(3*t)"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 7))
        el = g.elements()[2]
        moved = lift_checks.transformed_lift(m, lift, el, curve)
        assert abs(moved.residual - lift.residual) < 1e-12


class TestLipschitzHarness:
    def probes(self):
        return [
            ("line-0", lambda t: np.array([t, 0.3])),
            ("line-1", lambda t: np.array([0.2, t])),
            ("diag", lambda t: np.array([t, -t])),
            ("par-1", lambda t: np.array([t, t * t - 0.5])),
            ("par-2", lambda t: np.array([0.5 * t * t, t])),
        ]

    def test_smooth_composition_consistent(self):
        g, m = group_and_map("B:2")

        def gmap(u):
            return np.array([1.0 + 0.2 * np.sin(u[0]), 2.0 + 0.3 * np.cos(u[1])])

        # level 9: the sup quotient of the wigglier probe compositions needs
        # this resolution before its growth settles under the 1.05 bound
        rep = lf.lipschitz_harness(
            g, m, lambda u: m.evaluate(gmap(u)), self.probes(), cd.Grid.dyadic(-1, 1, 9)
        )
        assert rep.verdict == lf.LipschitzHarnessReport.LIPSCHITZ_CONSISTENT
        # analytic oracle for line-0: |d/dt gmap(t, 0.3)| = |0.2 cos t| <= 0.2
        line0 = rep.probes[0]
        assert line0.lipschitz_estimate == pytest.approx(0.2, rel=1e-3)

    def test_constant_f_zero_constants(self):
        g, m = group_and_map("B:2")
        y0 = m.evaluate(np.array([1.0, 2.0]))
        rep = lf.lipschitz_harness(
            g, m, lambda u: y0, self.probes()[:2], cd.Grid.dyadic(-1, 1, 6)
        )
        assert all(p.lipschitz_estimate == 0.0 for p in rep.probes)
        assert rep.verdict == lf.LipschitzHarnessReport.LIPSCHITZ_CONSISTENT

    def test_corner_lift_still_lipschitz(self):
        g, m = group_and_map("A:1")

        def f(u):
            return np.array([0.0, -u[0] * u[0]])

        rep = lf.lipschitz_harness(
            g, m, f, [("u-axis", lambda t: np.array([t, 0.0]))], cd.Grid.dyadic(-1, 1, 8)
        )
        (probe,) = rep.probes
        # lift is (|u|, -|u|) up to pairing: quotient norm sqrt(2), bounded
        assert probe.lipschitz_estimate == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert rc.VERDICT_RANK[probe.verdict] >= rc.VERDICT_RANK[rc.LIPSCHITZ]
        assert rep.verdict == lf.LipschitzHarnessReport.LIPSCHITZ_CONSISTENT

    def test_composed_curve_calls_f_once_per_t(self):
        calls = []

        def f(u):
            calls.append(float(u[0]))
            return np.array([u[0], 2.0 * u[0], 3.0 * u[0]])

        curve = lf._composed_curve(f, lambda t: np.array([t, 0.0]), 3)
        a = np.linspace(-1.0, 1.0, 5)
        # one evaluation of f per t gives all three coordinates
        assert np.array_equal(curve.evaluate(a), np.stack([a, 2.0 * a, 3.0 * a], axis=1))
        assert calls == a.tolist()
        # nothing is kept: each evaluate calls f again, once per t
        assert np.array_equal(curve.evaluate(0.5), [0.5, 1.0, 1.5])
        curve.evaluate(a)
        assert calls == a.tolist() + [0.5] + a.tolist()


def _gmap_f(group, map_, gmap):
    """The harness's f of the command line: sigma of the gmap at a point."""
    exprs = [cd.parse_curve_expr(src, variables=("u", "v")) for src in gmap.split(";")]

    def f(point):
        env = {"u": point[0], "v": point[1]}
        return map_.evaluate(np.array([cd.evaluate_with_env(e, env) for e in exprs]))

    return f


def _lift_each_probe(group, map_, f, probes, grid, tol=1e-10):
    """The harness's probes lifted one by one with lift_curve, in turn: the
    lifts, and each probe's name, estimate and verdict."""
    lifts, out = [], []
    for name, gamma in probes:
        lift = lf.lift_curve(group, map_, lf._composed_curve(f, gamma, map_.n_invariants), grid, tol)
        quots = rc.difference_quotients(lift.values, grid.step, 1)
        verdict = lift.min_verdict() if lift.reports else rc.INCONCLUSIVE
        lifts.append(lift)
        out.append((name, float(np.max(lf._norms(quots))), verdict))
    return lifts, out


class TestStackedHarness:
    """The harness solves every probe's grid rows in one block and tracks
    each probe on its slice: each probe gets what lift_curve gives it alone,
    and an error is the one the probes raise lifted in turn."""

    @staticmethod
    def _seeded_gmap():
        rng = np.random.default_rng(35)
        a1, b1, b2, gap, p1, p2 = rng.uniform([0.8, 0.1, 0.1, 0.5, -1.0, -1.0], [1.2, 0.3, 0.3, 1.0, 1.0, 1.0]).tolist()
        a2 = a1 + b1 + b2 + gap
        return f"{a1!r}+{b1!r}*sin(u+{p1!r});{a2!r}+{b2!r}*cos(v+{p2!r})"

    @pytest.mark.parametrize("gmap, level, windows", [
        ("1+0.2*sin(u);2+0.3*cos(v)", 9, 0),
        ("seeded", 8, 0),
        ("u;0.3+v", 8, 6),
    ])
    def test_stacked_probes_match_lift_curve(self, monkeypatch, gmap, level, windows):
        from orbitlift import cli

        gmap = self._seeded_gmap() if gmap == "seeded" else gmap
        g, m = group_and_map("B:2")
        f = _gmap_f(g, m, gmap)
        probes = cli._make_probes(((-1.0, 1.0), (-1.0, 1.0)), 7)
        grid = cd.Grid.dyadic(-1.0, 1.0, level)
        solves, opened, tracked = [], [], []
        solve, window, track = lf.orbits_at, lf.resolve_window, lf._track_and_certify
        monkeypatch.setattr(lf, "orbits_at", lambda map_, rows, tol: solves.append(len(rows)) or solve(map_, rows, tol))
        monkeypatch.setattr(lf, "resolve_window", lambda *a: opened.append(a[1]) or window(*a))
        monkeypatch.setattr(lf, "_track_and_certify", lambda *a: tracked.append(track(*a)) or tracked[-1])
        rep = lf.lipschitz_harness(g, m, f, probes, grid)
        monkeypatch.undo()
        # one solve for the base rows of every probe; the windows solve
        # only their refined points
        n = grid.points.size
        assert solves[0] == len(probes) * n
        assert all(k < n for k in solves[1:])
        assert len(opened) == windows and (len(solves) > 1) == (windows > 0)
        lifts, want = _lift_each_probe(g, m, f, probes, grid)
        got = [(p.name, p.lipschitz_estimate, p.verdict) for p in rep.probes]
        assert [(a, np.float64(b).tobytes(), c) for a, b, c in got] == \
            [(a, np.float64(b).tobytes(), c) for a, b, c in want]
        assert len(tracked) == len(lifts)
        for (values, reports, swaps, unresolved, _), lift in zip(tracked, lifts):
            assert values.tobytes() == lift.values.tobytes()
            # repr: the reports' missing evidence is nan, which equals nothing
            assert repr(reports) == repr(lift.reports)
            assert swaps == lift.swap_log and unresolved == lift.unresolved
        assert rep.verdict == lf.LipschitzHarnessReport.LIPSCHITZ_CONSISTENT

    @staticmethod
    def _failing_f(first, second):
        """f on the probes [t, 0] and [t, 5] of B:2 through (u, 0.3 + v):
        the first crosses a mirror at u = 0, which opens a window.  Each
        probe fails as told: 'window' at a refined point of its window,
        'base' at its grid sample u = 0.75 (f raises), 'solve' there (a
        value outside the image, which the orbit solve refuses)."""
        g, m = group_and_map("B:2")

        def f(point):
            u, v = float(point[0]), float(point[1])
            how = first if v == 0.0 else second
            if how == "window" and u * 32.0 != round(u * 32.0) and abs(u) < 0.1:
                raise ValueError(f"window at u={u!r}")
            if how == "base" and u == 0.75:
                raise ValueError(f"base at u={u!r}")
            if how == "solve" and u == 0.75:
                return np.array([1.0, 1.0])
            return m.evaluate(np.array([u, 0.3 + v]))

        return g, m, f

    @pytest.mark.parametrize("first, second, raised", [
        ("window", "base", "window at u="), ("window", "solve", "window at u="),
        ("solve", "base", "image at t=0.75"), ("base", "solve", "base at u=0.75"),
        ("ok", "solve", "image at t=0.75"), ("ok", "base", "base at u=0.75"),
        ("solve", "solve", "image at t=0.75"),
    ])
    def test_the_error_is_the_one_of_the_probes_in_turn(self, first, second, raised):
        g, m, f = self._failing_f(first, second)
        probes = [("a", lambda t: np.array([t, 0.0])), ("b", lambda t: np.array([t, 5.0]))]
        grid = cd.Grid.dyadic(-1.0, 1.0, 5)
        with pytest.raises(Exception) as want:
            _lift_each_probe(g, m, f, probes, grid)
        with pytest.raises(Exception) as got:
            lf.lipschitz_harness(g, m, f, probes, grid)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert raised in str(got.value)

class TestTheoremForms:
    """Empirical forms of the lifting regularity statements."""

    def test_smooth_orbit_curves_lift_twice_differentiable(self):
        # c = sigma(m(t)) for C-infinity m: lift certifies twice-differentiable
        # and matches m up to one group element
        g, m = group_and_map("I2:4")
        curve = cd.CoeffCurve.from_exprs(["1", "cos(4*t)"])
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        assert all(r.verdict == rc.TWICE for r in lift.reports)
        t = grid.points
        ref = np.stack([np.cos(t), np.sin(t)], axis=1)
        assert err_mod_group(lift.values, ref, g) < 1e-7

    def test_crossing_lift_at_least_c1(self):
        g, m = group_and_map("A:1")
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 9))
        assert all(rc.VERDICT_RANK[r.verdict] >= rc.VERDICT_RANK[rc.C1] for r in lift.reports)


class TestLiftContracts:
    def test_residual_within_ten_tol(self):
        tol = 1e-10
        g, m = group_and_map("I2:5")
        curve = cd.CoeffCurve.from_exprs(["1", "cos(5*t)"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 7), tol)
        assert lift.residual < 10.0 * tol
        assert lift.residual_ok

    @pytest.mark.parametrize("spec, comps", [("D:4", ["t^2", "0", "0", "0"]), ("B:3", ["t^2", "0", "0"])])
    def test_residual_above_its_bound_is_flagged(self, spec, comps):
        # sigma(t e_0) through the origin along a mirror: the cluster
        # collapse puts samples off the lift (ROADMAP item 2), and the
        # result must say so
        g, m = group_and_map(spec)
        curve = cd.CoeffCurve.from_exprs(comps)
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 10))
        assert lift.residual_bound == 10.0 * 1e-10 * (1.0 + 1.0)  # max|c| = 1 at t = -1
        assert lift.residual > lift.residual_bound
        assert not lift.residual_ok
        assert lift_checks.verify_lift(m, lift, curve) == lift.residual

    def test_dimension_mismatch(self):
        g, m = group_and_map("B:2")
        bad = cd.CoeffCurve.from_exprs(["t", "t", "t"])
        with pytest.raises(Exception) as err:
            lf.lift_curve(g, m, bad, cd.Grid.dyadic(0, 1, 4))
        from orbitlift.errors import DimensionMismatch

        assert isinstance(err.value, DimensionMismatch)


class TestWallCrossing:
    def test_b2_lift_through_reflection_wall(self):
        # m(t) = (1+0.3t, 1-0.3t) crosses the |x|=|y| wall at t=0; the lift
        # must follow the smooth strand, not reflect off the wall
        g, m = group_and_map("B:2")
        curve = cd.CoeffCurve.from_exprs(
            ["(1+0.3*t)^2+(1-0.3*t)^2", "((1+0.3*t)*(1-0.3*t))^2"]
        )
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        t = grid.points
        ref = np.stack([1 + 0.3 * t, 1 - 0.3 * t], axis=1)
        assert err_mod_group(lift.values, ref, g) < 1e-7
        assert all(r.verdict == rc.TWICE for r in lift.reports)

    def test_b3_coordinate_through_zero(self):
        # gamma = (t, 0.5-t^2, 1+0.3t): coordinate 0 passes through 0 at a
        # sample, where it must be exactly 0, not sqrt of the rounding noise
        g, m = group_and_map("B:3")
        x, y, z = "t", "(0.5-t^2)", "(1+0.3*t)"
        curve = cd.CoeffCurve.from_exprs(
            [f"{x}^2+{y}^2+{z}^2", f"({x}*{y})^2+({x}*{z})^2+({y}*{z})^2", f"({x}*{y}*{z})^2"]
        )
        grid = cd.Grid.dyadic(-1, 1, 8)
        lift = lf.lift_curve(g, m, curve, grid)
        assert [r.verdict for r in lift.reports] == [rc.TWICE] * 3
        assert lift.values[grid.points == 0.0, 0].tolist() == [0.0]

    def test_b2_line_through_axis(self):
        # coordinate 1 of this line is 0 at t = -1/8, where the product
        # sigma_2 comes out as rounding noise rather than exactly 0
        g, m = group_and_map("B:2")
        c = np.array([-1.8617241967428813, 0.09808499207552587])
        v = np.array([-0.6199011188010695, 0.784679936604207])
        grid = cd.Grid.dyadic(-1, 1, 5)
        lift = lf.lift_curve(g, m, _sigma_of_line(g, c, v), grid)
        assert [r.verdict for r in lift.reports] == [rc.TWICE] * 2
        assert lift.values[grid.points == -0.125, 1].tolist() == [0.0]

    def test_tolerance_violation_propagates(self):
        from orbitlift.errors import ToleranceViolation

        g, m = group_and_map("A:1")
        # x^2 + 5e-10: inside the (tol, 10*tol] near-miss band at tol=1e-10
        curve = cd.CoeffCurve.from_exprs(["0", "5e-10"])
        with pytest.raises(ToleranceViolation):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(0, 1, 4), tol=1e-10)


def _mirror_normals(g):
    """Unit normals of the reflecting hyperplanes of an A, B or D group."""
    normals = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for s in (1.0,) if g.kind == "A" else (1.0, -1.0):
                v = np.zeros(g.dim)
                v[i], v[j] = 1.0, -s
                normals.append(v / np.sqrt(2.0))
        if g.kind == "B":
            normals.append(np.eye(g.dim)[i])
    return np.array(normals)


def _mirror_line(g, seed, level):
    """A line gamma(t) = c + v t, |v| = 1, meeting one reflecting hyperplane
    at an interior grid sample with normal speed in [0.6, 0.8], and at least
    0.1 away from every other hyperplane on [-1, 1]; returns (c, v)."""
    normals = _mirror_normals(g)
    pts = cd.Grid.dyadic(-1, 1, level).points
    rng = np.random.default_rng(seed)
    while True:
        i = int(rng.integers(10, pts.size - 9))  # room for the 8-sample side fits
        k = int(rng.integers(len(normals)))
        nrm = normals[k]
        v = rng.normal(size=g.dim)
        v /= np.linalg.norm(v)
        if not 0.6 <= abs(float(nrm @ v)) <= 0.8:
            continue
        p = rng.uniform(-3.0, 3.0, g.dim)
        c = p - (nrm @ p) * nrm - pts[i] * v  # gamma(t_i) = p projected onto the mirror
        # the same sign at both ends means no crossing; along a line the
        # least distance is at an end
        ends = np.stack([c - v, c + v]) @ np.delete(normals, k, axis=0).T
        if np.all(np.abs(ends) >= 0.1) and np.all(np.sign(ends[0]) == np.sign(ends[1])):
            return c, v


def _sigma_of_line(g, c, v):
    """sigma(c + v t) as a curve of t-polynomials."""
    from numpy.polynomial import polynomial as P

    def elementary(polys):
        e = [np.array([1.0])] + [np.array([0.0])] * len(polys)
        for k, r in enumerate(polys, start=1):
            for j in range(k, 0, -1):
                e[j] = P.polyadd(e[j], P.polymul(r, e[j - 1]))
        return e[1:]

    lines = [np.array([ci, vi]) for ci, vi in zip(c, v)]
    if g.kind == "A":
        comps = elementary(lines)
    else:
        comps = elementary([P.polymul(r, r) for r in lines])
        if g.kind == "D":
            comps[-1] = np.array([1.0])
            for r in lines:
                comps[-1] = P.polymul(comps[-1], r)
    return cd.CoeffCurve(lambda t: np.stack([np.polynomial.Polynomial(cf)(t) for cf in comps], axis=-1), len(comps))


class TestExitCandidates:
    """The exit candidates of a window, the nearest point's closure along
    the edges of the orbit's hull (reflections for A, B and D, neighbours in
    angle for I2), against every point of the enumerated orbit: the chooser
    reads the same best rank, margin bits and tie order from both."""

    @staticmethod
    def _full(orb, predicted, dt):
        pts = np.array(orb.points())
        return pts, list(range(len(pts))), np.linalg.norm(pts - predicted, axis=1) / dt

    @staticmethod
    def _estimate(size, cands, ranks, cost, left_slope):
        # slopes that depend on the point alone, blind to its signs, so
        # that sign flips tie on every tie-breaker
        return lf._WindowEstimate(left_slope, 0.5 * left_slope, size, cands, ranks, cost,
                                  cands**2, np.abs(cands), (0.0, 0.0))

    @staticmethod
    def _predictions(g, rng, orb):
        x = orb.nearest(rng.uniform(-2.0, 2.0, g.dim))
        tied = rng.uniform(-2.0, 2.0, g.dim)
        tied[1] = tied[0]
        signs = rng.uniform(-2.0, 2.0, g.dim)
        signs[1] = -signs[0]
        zero = rng.uniform(-2.0, 2.0, g.dim)
        zero[0] = 0.0
        return [rng.uniform(-2.0, 2.0, g.dim), x, x + 1e-4 * rng.standard_normal(g.dim),
                x + 1e-9 * rng.standard_normal(g.dim), tied, signs, zero, np.zeros(g.dim)]

    @staticmethod
    def _bases(g, rng):
        bases = [rng.uniform(-2.0, 2.0, g.dim) for _ in range(4)]
        if g.kind != "I2":
            bases[1][0] = bases[1][1]
            bases[2][0] = 0.0
            bases[3][0] = 1e-6  # a small nonzero modulus: D's parity stays fixed
        else:
            # a mirror row, and the edge row of TestDihedralBlock whose points
            # merge when rounded to 1e-10: 7 of 10 points, 12 of 16
            r, angle, _ = TestExitCandidates._MERGED[g.param]
            bases[1] = 1.3 * np.array([np.cos(np.pi / g.param), np.sin(np.pi / g.param)])
            bases[2] = r * np.array([np.cos(angle), np.sin(angle)])
        return bases

    _MERGED = {5: (1.2e-5, 3e-6, 7), 8: (2e-5, 2e-6, 12)}

    @pytest.mark.parametrize("spec", ["A:2", "A:4", "B:2", "B:4", "D:3", "D:4", "I2:5", "I2:8"])
    def test_closure_gives_the_enumerated_choice(self, spec):
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        bases = self._bases(g, rng)
        sizes, fewer = [], False
        for v in bases:
            orb = inv.orbit_at(m, m.evaluate(v))
            sizes.append(orb.size)
            for predicted in self._predictions(g, rng, orb):
                for dt in (1.0, 2.0**-5, 1e-3):
                    got = lf._exit_candidates(orb, predicted, dt)
                    want = self._full(orb, predicted, dt)
                    fewer |= len(got[1]) < orb.size
                    # the candidates are enumerated points, in rank order
                    assert got[1] == sorted(got[1])
                    assert np.array_equal(got[0], want[0][got[1]])
                    assert got[2].tobytes() == want[2][got[1]].tobytes()
                    # the same points, in the same order, tie within _TIE_TOL of the best
                    ties = [
                        [ranks[i] for i in np.argsort(cost, kind="stable")
                         if cost[i] <= cost.min() + lf._TIE_TOL]
                        for _, ranks, cost in (got, want)
                    ]
                    assert ties[0] == ties[1]
                    left = rng.uniform(-1.0, 1.0, g.dim)
                    a = lf._choose_candidate(self._estimate(orb.size, *got, left))
                    b = lf._choose_candidate(self._estimate(orb.size, *want, left))
                    assert a.key == b.key and a.ambiguous == b.ambiguous
                    assert np.float64(a.margin).tobytes() == np.float64(b.margin).tobytes()
                    assert np.array_equal(a.answer, b.answer)
        assert fewer
        if g.kind == "I2":
            assert sizes[1:3] == [g.param, self._MERGED[g.param][2]]

    @pytest.mark.parametrize("spec", ["A:2", "A:4", "B:2", "B:4", "D:3", "D:4", "I2:5", "I2:8"])
    def test_each_point_is_expanded_once(self, spec, monkeypatch):
        """Orbit.neighbours sees each point once, the nearest point
        included, and the candidates are those of the search that expands
        the nearest point again (`generic_kernels.exit_candidates`), ties
        included."""
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()) + 35)
        expanded, neighbours = [], inv.Orbit.neighbours
        monkeypatch.setattr(inv.Orbit, "neighbours", lambda orb, pts: expanded.append(pts) or neighbours(orb, pts))
        ties = 0
        for v in self._bases(g, rng):
            orb = inv.orbit_at(m, m.evaluate(v))
            for predicted in self._predictions(g, rng, orb):
                for dt in (1.0, 2.0**-5, 1e-3):
                    expanded.clear()
                    got = lf._exit_candidates(orb, predicted, dt)
                    keys = [tuple((p + 0.0).tolist()) for p in np.concatenate(expanded)]
                    assert len(keys) == len(set(keys))
                    want = generic_kernels.exit_candidates(orb, predicted, dt)
                    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
                    assert got[2].tobytes() == want[2].tobytes()
                    ties += int(np.sum(got[2] <= got[2].min() + lf._TIE_TOL)) > 1
        assert ties

    @pytest.mark.parametrize("spec", ["A:3", "B:3", "D:4", "I2:5"])
    def test_byte_keys_match_tuple_keys(self, spec):
        """Keyed by their bytes with -0.0 as 0.0, the candidates are the
        points tuple keys found, bit for bit, signed zeros included."""
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()) + 28)
        signed_zero = False
        for _ in range(6):
            v = rng.uniform(-2.0, 2.0, g.dim)
            v[0] = 0.0
            orb = inv.orbit_at(m, m.evaluate(v))
            for predicted in self._predictions(g, rng, orb):
                got = lf._exit_candidates(orb, predicted, 2.0**-5)
                want = generic_kernels.exit_candidates(orb, predicted, 2.0**-5)
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
                assert got[2].tobytes() == want[2].tobytes()
                signed_zero |= bool((np.signbit(got[0]) & (got[0] == 0.0)).any())
        assert signed_zero or g.kind in ("A", "I2")  # B and D flip signs of zeros

    def test_drift_compares_exit_points_of_one_rank(self):
        def estimate(size, ranks, slopes):
            k = len(ranks)
            return lf._WindowEstimate(np.zeros(2), np.zeros(2), size, np.zeros((k, 2)), ranks,
                                      np.zeros(k), np.array(slopes), np.zeros((k, 2)), (0.0, 0.0))

        a = estimate(8, [1, 4], [[0.0, 0.0], [1.0, 0.0]])
        b = estimate(8, [4, 6], [[1.0, 0.5], [9.0, 9.0]])
        assert lf._slope_drift(a, b) == 0.5  # rank 4 alone
        # exit orbits of two sizes: the incoming slopes alone
        assert lf._slope_drift(a, estimate(16, [4, 6], [[1.0, 0.5], [9.0, 9.0]])) == 0.0


def test_norms_match_linalg_norm():
    # np.linalg.norm's bits on every row but the finite ones whose squares
    # overflow: those get math.hypot's norm, not inf
    rng = np.random.default_rng(28)
    x = rng.standard_normal((64, 4)) * 10.0 ** rng.integers(-160, 160, (64, 4))
    x[::5] *= rng.choice([0.0, -0.0], (13, 4))
    x[1, 2], x[2, 0], x[3, 3] = np.nan, np.inf, -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(x, axis=1)
    got = lf._norms(x)
    big = (want == np.inf) & np.isfinite(x).all(axis=1)
    assert 0 < big.sum() < 60
    assert got[~big].tobytes() == want[~big].tobytes()
    assert got[big].tolist() == [math.hypot(*row) for row in x[big].tolist()]
    assert np.isfinite(got[big]).all()


class TestLargeGroups:
    @pytest.mark.parametrize("spec", ["A:5", "B:5", "D:5"])
    def test_line_crossing_one_mirror(self, spec):
        g, m = group_and_map(spec)
        c, v = _mirror_line(g, seed=1, level=6)
        grid = cd.Grid.dyadic(-1, 1, 6)
        lift = lf.lift_curve(g, m, _sigma_of_line(g, c, v), grid)
        assert err_mod_group(lift.values, c + grid.points[:, None] * v, g) < 1e-7
        assert len(lift.swap_log) == 1
        assert lift.unresolved == ()
        assert [r.verdict for r in lift.reports] == [rc.TWICE] * g.dim
        assert lift.residual <= 10 * 1e-10

    @pytest.mark.parametrize("spec,c,v", [
        ("A:7", [0, 0, 2, 3, 4, 5, 6, 7], [1, -1, 0, 0, 0, 0, 0, 0]),
        ("A:8", [0, 0, 2, 3, 4, 5, 6, 7, 8], [1, -1, 0, 0, 0, 0, 0, 0, 0]),
        ("B:6", [0, 1, 2, 3, 4, 5], [1, 0, 0, 0, 0, 0]),
        ("D:6", [1, 1, 2.5, 3.5, 4.5, 5.5], [1, -1, 0, 0, 0, 0]),
    ])
    def test_orbits_past_the_enumeration_limit(self, spec, c, v):
        # one mirror crossed at t = 0 by orbits of 11,520 to 362,880 points,
        # which no step of the lift lists
        g, m = group_and_map(spec)
        assert g.order > inv.ENUM_LIMIT
        c, v = np.array(c, dtype=float), np.array(v, dtype=float)
        curve = _sigma_of_line(g, c, v)
        grid = cd.Grid.dyadic(-1, 1, 6)
        lift = lf.lift_curve(g, m, curve, grid)
        assert len(lift.swap_log) == 1
        assert lift.unresolved == ()
        scale = float(np.max(np.abs(curve.evaluate(grid.points))))
        assert lift.residual <= 10 * 1e-10 * (1.0 + scale)
        # each coordinate follows one coordinate of the line, up to sign for B and D
        ref = c + grid.points[:, None] * v
        signs = (1.0,) if g.kind == "A" else (1.0, -1.0)
        for j in range(g.dim):
            err = min(np.max(np.abs(lift.values[:, j] - s * ref[:, k]))
                      for k in range(g.dim) for s in signs)
            assert err < 1e-6, j


class TestBlockTracker:
    """`_follow` tracks calm runs as verified blocks; it must give the bits
    of the sample-by-sample loop (`_continue`), including where the guess
    of a block breaks: at its first sample, in its middle or at its last."""

    N = 41

    @staticmethod
    def _orbits(g, m, pts):
        return inv.orbits_at(m, m.evaluate(pts))

    @staticmethod
    def _reference(orbits, start):
        vals = np.empty((len(orbits),) + start.shape)
        vals[0] = orbits[0].nearest(start)
        for k in range(1, len(orbits)):
            lf._continue(vals, orbits, k)
        return vals

    @staticmethod
    def _first_break(orbits, ref, i0):
        """The first sample from i0 on whose value is not the point of its
        orbit nearest ref[i0 - 1], the guess of a block starting at i0."""
        for k in range(i0, len(orbits)):
            if orbits[k].nearest(ref[i0 - 1]).tobytes() != ref[k].tobytes():
                return k
        return None

    # a line through one mirror: base + s * direction crosses it at s = 0
    LINES = {
        "A:2": ([0.0, 0.0, 3.0], [1.0, -1.0, 0.0]),
        "B:3": ([0.0, 2.5, 4.0], [1.0, 0.0, 0.0]),
        "D:3 fixed": ([0.7, 3.0, 3.0], [0.1, 1.0, -1.0]),
        "D:3 free": ([0.0, 3.0, 3.0], [0.0, 1.0, -1.0]),
        "D:4 fixed": ([0.5, 1.0, 4.0, 4.0], [0.1, 0.2, 1.0, -1.0]),
        "I2:4": ([2.0, 0.0], [0.0, 1.0]),
        "I2:3 tilted": ([1.0, np.sqrt(3.0)], [-np.sqrt(3.0) / 2, 0.5]),  # the mirror at pi/3
    }

    @pytest.mark.parametrize("name", sorted(LINES))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_break_in_a_run(self, name, where):
        g, m = group_and_map(name.split()[0])
        base, direction = (np.array(x) for x in self.LINES[name])
        i0, N = 6, self.N
        k = {"first": i0, "middle": i0 + 13, "last": N - 1}[where]
        t = np.arange(N, dtype=float)
        # the crossing lies between samples k - 1 and k
        pts = base + (t - (k - 0.37))[:, None] * (0.05 * direction)
        orbits = self._orbits(g, m, pts)
        if name.endswith("fixed"):
            assert np.all(orbits.parity != 0.0)
        if name.endswith("free"):
            assert np.all(orbits.parity == 0.0)
        ref = self._reference(orbits, pts[0])
        assert self._first_break(orbits, ref, i0) == k
        got = ref.copy()
        got[i0:] = np.nan
        lf._follow(got, orbits, i0, N)
        assert got.tobytes() == ref.tobytes()
        assert lf._track(orbits, pts[0]).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec", ["A:3", "B:3", "D:3", "D:4", "I2:3", "I2:6"])
    @pytest.mark.parametrize("zero", [False, True])
    def test_seeded_paths_and_strands(self, spec, zero):
        """Smooth seeded paths, slow and fast: the fast ones cross mirrors
        between most samples, so blocks break again and again.  A zero
        coordinate frees the D parity, and puts an I2 path on the y axis, a
        mirror of I2:6.  The strands of a window's exit candidates are
        tracked at once."""
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(f"{spec} {zero}".encode()))
        t = np.linspace(-1.0, 1.0, self.N)
        for freq in (0.5, 3.0, 40.0):
            a, b, phase = (rng.uniform(-2.0, 2.0, g.dim) for _ in range(3))
            pts = a + b * np.sin(freq * t[:, None] + phase)
            if zero:
                pts[:, 0] = 0.0
            orbits = self._orbits(g, m, pts)
            if g.kind == "D":
                assert np.all(orbits.parity == 0.0) if zero else np.any(orbits.parity != 0.0)
            ref = self._reference(orbits, pts[0])
            for i0 in (1, 2, 17):
                got = ref.copy()
                got[i0:] = np.nan
                lf._follow(got, orbits, i0, self.N)
                assert got.tobytes() == ref.tobytes(), (freq, i0)
            starts = np.stack([pts[0], -pts[0], rng.uniform(-2.0, 2.0, g.dim)])
            assert lf._track(orbits, starts).tobytes() == self._reference(orbits, starts).tobytes()

    @pytest.mark.parametrize("spec,freqs,bound", [
        *((spec, (1000.3, 410.1), 1.1) for spec in ("A:1", "A:2", "B:2", "D:3")),
        *((spec, (100.3, 41.1), 0.2) for spec in ("B:2", "D:3")),
        # sigma of I2:5 has a mirror every 36 degrees, so its guesses fail
        # more often: blocks still halve the calls of the loop
        *(("I2:5", freqs, bound) for freqs, bound in (((1000.3, 410.1), 1.1), ((100.3, 41.1), 0.5))),
    ])
    def test_guesses_that_keep_failing_cost_about_one_call_a_sample(self, spec, freqs, bound, monkeypatch):
        """sigma of (sin(1000.3 t), 1.5 + 0.3 cos(37 t), -2 + sin(410.1 t))
        at level 10 crosses mirrors between most samples, so the guesses
        keep failing; single steps after blocks that do no better keep the
        run near one nearest-point call a sample.  With sin(100.3 t) and
        sin(41.1 t) the guesses fail now and then, and blocks come back
        after the single steps."""
        g, m = group_and_map(spec)
        t = cd.Grid.dyadic(-1, 1, 10).points
        pts = np.stack([np.sin(freqs[0] * t), 1.5 + 0.3 * np.cos(37 * t), -2 + np.sin(freqs[1] * t)], axis=1)
        orbits = self._orbits(g, m, pts[:, : g.dim])
        ref = self._reference(orbits, pts[0, : g.dim])
        calls = []
        for cls in (inv.Orbit, inv.OrbitBlock):
            def counted(self, p, _nearest=cls.nearest):
                calls.append(1)
                return _nearest(self, p)

            monkeypatch.setattr(cls, "nearest", counted)
        got = ref.copy()
        got[1:] = np.nan
        lf._follow(got, orbits, 1, t.size)
        assert got.tobytes() == ref.tobytes()
        assert len(calls) <= bound * (t.size - 1)


class TestWindowEstimate:
    """`_estimate_window`, whose tracks each take the start into their first
    block and whose exit candidates keep the costs of their search, against
    its form that tracks each segment one sample at a time from the point
    nearest its start, on the generic kernels, and computes the kept
    candidates' costs again (`generic_kernels.estimate_window`): every
    field, bit for bit."""

    @staticmethod
    def _same(got, want):
        assert (got is None) == (want is None)
        if got is None:
            return
        for f in ("left_slope", "left_quad", "candidates", "cost", "cand_slopes", "cand_quads"):
            assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
            assert getattr(got, f).shape == getattr(want, f).shape, f
        assert (got.size, got.ranks, got.run) == (want.size, want.ranks, want.run)

    @staticmethod
    def _cases(g, m, rng):
        """(points, orbits, eps) of lines through one mirror at levels 5 and
        6, and of fast paths that cross mirrors between most samples."""
        for level in (5, 6):
            c, v = _mirror_line(g, int(rng.integers(1 << 30)), level)
            t = cd.Grid.dyadic(-1, 1, level).points
            orbits = inv.orbits_at(m, _sigma_of_line(g, c, v).evaluate(t))
            yield t, orbits, lf._EPS_FACTOR * max(float(np.max(orbits.max_abs)), 1e-30), c + t[:, None] * v
        t = cd.Grid.dyadic(-1, 1, 6).points
        for freq in (25.0, 40.0):
            a, b, phase = (rng.uniform(-2.0, 2.0, g.dim) for _ in range(3))
            pts = a + b * np.sin(freq * t[:, None] + phase)
            orbits = inv.orbits_at(m, m.evaluate(pts))
            for eps in (1e-3, 0.3):
                yield t, orbits, eps * float(np.max(orbits.max_abs)), pts

    @pytest.mark.parametrize("spec", ["A:2", "A:4", "B:3", "D:3", "D:4", "I2:3", "I2:6"])
    def test_estimate_matches_the_sample_by_sample_form(self, spec, monkeypatch):
        """Windows at every sample's time, so also where the exit segment is
        cut short by the domain end, from anchors on the path, moved by a
        group element and far off it; the fast paths' guesses fail in the
        middle of blocks and send the tracks to single steps."""
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()) + 39)
        singles, calls = [], []
        cont, block_nearest = lf._continue, inv.OrbitBlock.nearest
        monkeypatch.setattr(lf, "_continue", lambda *a: singles.append(1) or cont(*a))
        monkeypatch.setattr(inv.OrbitBlock, "nearest", lambda b, p: calls.append(1) or block_nearest(b, p))
        element = g.elements()[-1] if g.order <= 400 else np.eye(g.dim)[::-1]
        cut = failed = estimates = 0
        for t, orbits, eps, pts in self._cases(g, m, rng):
            for i in range(0, t.size, 3):
                for anchor in (pts[max(i - 9, 0)], element @ pts[max(i - 9, 0)], rng.uniform(-3.0, 3.0, g.dim)):
                    calls.clear()
                    got = lf._estimate_window(t, orbits, float(t[i]), eps, anchor)
                    made = len(calls)
                    self._same(got, generic_kernels.estimate_window(t, orbits, float(t[i]), eps, anchor))
                    if got is not None:
                        estimates += 1
                        cut += got.run[1] + 1 + lf._SIDE_WINDOW > t.size
                        # two calls a track when every guess holds
                        failed += made > 4
        assert estimates > 50 and cut and failed and singles


class TestNearZeroCoordinate:
    """D lines of perfbench's lift inputs (level 5) on which a coordinate
    passes within 6e-5 of 0 at a sample.  A free parity beside a nonzero
    modulus takes the other parity's point there: a lift off the line (seed
    35001), or one whose sigma misses the curve (the other three).  Checked
    against the group's elements, as `fiber` and `Orbit.points` share the
    parity rule of the code under test."""

    @pytest.mark.parametrize("spec,c,v", [
        # seed 35001, lift D:4 #22: coordinate 1 is -5.1e-6 at t = -0.125
        ("D:4", [-2.345920769694515, 0.005337833146743405, -1.0964516067428978, 2.399834457253638],
         [-0.09500790457502088, 0.04274343260679288, 0.6323920475191301, -0.7676110963709515]),
        # seed 1474, lift D:3 #20: coordinate 0 is -4.8e-6 at t = -1
        ("D:3", [0.6931445639343805, -1.7342149527649031, 1.5173299799982922],
         [0.6931493625445022, 0.16615900600685937, 0.7013808850595821]),
        # seed 1509, lift D:3 #20: coordinate 2 is 2.4e-5 at t = -1
        ("D:3", [0.8894792504698845, 2.42844268188326, 0.5809614236302624],
         [-0.40631996548316485, 0.7052773881685638, 0.580937080403626]),
        # seed 1827, lift D:4 #23: coordinate 3 is -5.5e-5 at t = -0.9375
        ("D:4", [2.0163250661410963, 1.726387229261923, 0.09719884506537152, -0.4339949143142638],
         [-0.5188081313515625, -0.5719654416687738, -0.43525330596626677, -0.46286954536411207]),
    ], ids=["seed35001", "seed1474", "seed1509", "seed1827"])
    def test_lift_is_one_element_times_the_line(self, spec, c, v):
        g, m = group_and_map(spec)
        c, v = np.array(c), np.array(v)
        curve = _sigma_of_line(g, c, v)
        grid = cd.Grid.dyadic(-1, 1, 5)
        lift = lf.lift_curve(g, m, curve, grid)
        t = grid.points
        # sigma from its definitions: e_j of the squares, the product last
        got = np.stack([np.poly(row)[1:] * (-1.0) ** np.arange(1, g.dim + 1) for row in lift.values**2])
        got[:, -1] = np.prod(lift.values, axis=1)
        target = curve.evaluate(t)
        assert np.max(np.abs(got - target)) <= 1e-8 * (1.0 + np.max(np.abs(target)))
        # perfbench's checks.lift_bounds: the allowed distance from w.gamma
        gamma = c + t[:, None] * v
        eps, scale = np.finfo(float).eps, 1.0 + np.max(np.abs(gamma))
        d = np.min(np.abs(gamma @ _mirror_normals(g).T), axis=1)
        with np.errstate(divide="ignore"):
            near = np.minimum(eps * scale * scale / d, np.sqrt(eps * scale) * scale)
        collapse = np.sqrt(1e-10) * scale
        bound = 1e-8 * scale + 64.0 * near + np.where(d < 2.0 * collapse, collapse, 0.0)
        # between unresolved windows, lift = w.gamma for one element w
        inside = np.zeros(t.size, dtype=bool)
        for lo, hi in lift.unresolved:
            inside |= (t >= lo) & (t <= hi)
        elements = np.array(g.elements())
        for seg in np.split(np.arange(t.size), np.flatnonzero(inside)):
            seg = seg[~inside[seg]]
            if seg.size:
                moved = np.einsum("wij,nj->wni", elements, gamma[seg])
                dev = np.max(np.abs(moved - lift.values[seg]), axis=2) / bound[seg]
                assert np.min(np.max(dev, axis=1)) <= 1.0

    @pytest.mark.parametrize("t0", [0.0, 0.125])
    def test_a_coordinate_through_zero_at_a_sample_lifts_twice_differentiable(self, t0):
        """The seed-35001 line with coordinate 1 through 0 exactly at the
        sample t0.  Near t0 the least root of the squares polynomial lies far
        below the others: read from the constant term (Vieta) it keeps its
        own relative accuracy.  As the solve gives it, to the rounding noise
        of the largest roots, coordinate 3 certifies only C1."""
        g, m = group_and_map("D:4")
        c = np.array([-2.345920769694515, 0.0, -1.0964516067428978, 2.399834457253638])
        v = np.array([-0.09500790457502088, 0.04274343260679288, 0.6323920475191301, -0.7676110963709515])
        c[1] = -v[1] * t0
        lift = lf.lift_curve(g, m, _sigma_of_line(g, c, v), cd.Grid.dyadic(-1, 1, 5))
        assert [r.verdict for r in lift.reports] == [rc.TWICE] * 4
        assert lift.unresolved == () and lift.residual_ok
