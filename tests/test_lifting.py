import numpy as np
import pytest

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
        y0 = inv.sigma(m, [0.7, 1.9])
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
        y = inv.sigma(m, [
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

        def column(j):
            return lambda t: np.select([t >= s for s in starts[::-1]], [r[j] for r in rows[::-1]])

        return cd.CoeffCurve(tuple(column(j) for j in range(len(rows[0]))))

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
        bad = inv.sigma(m, [
            -329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
            -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927,
        ])
        good = inv.sigma(m, np.arange(1.0, 9.0))
        curve = self._switching_curve([good, bad], [-1.0, 0.5])
        with pytest.raises(RootSolveFailed, match=r"backward check.*\(at t=0\.5\)$"):
            lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 3))

    def test_constant_curve_with_coefficients_near_1e12(self):
        # sigma of the B:4 point (100, 100, 100, 0.05): its lift stays on the orbit
        g, m = group_and_map("B:4")
        y = inv.sigma(m, [100.0, 100.0, 100.0, 0.05])
        curve = cd.CoeffCurve.from_exprs([repr(v) for v in y.tolist()])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 4))
        assert lift.unresolved == ()
        assert lf.verify_lift(m, lift, curve) <= 1e-9 * (1.0 + float(np.max(np.abs(y))))

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
        assert lf.verify_lift(m, lift, curve) < 1e-8

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
        )
        # oracle: sigma changes by (e1, e2) of the perturbed pair
        t_k = grid.points[k]
        v = lift.values[k]
        w = values[k]
        expected = np.max(np.abs(inv.sigma(m, w) - inv.sigma(m, v)))
        assert expected > 0.01
        assert lf.verify_lift(m, broken, curve) >= expected - 1e-9

    def test_constant_zero_residual(self):
        g, m = group_and_map("I2:3")
        y0 = inv.sigma(m, [0.5, 0.25])
        curve = cd.CoeffCurve.from_exprs([f"{float(y0[0])!r}", f"{float(y0[1])!r}"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(0, 1, 6))
        assert lf.verify_lift(m, lift, curve) < 1e-12


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
            y = inv.sigma(m, v)
            curve = cd.CoeffCurve.from_exprs(
                [f"{float(yi)!r}+0.1*sin(t)*{0 if i else 1}" for i, yi in enumerate(y)]
            )
        grid = cd.Grid.dyadic(-1, 1, 7)
        lift = lf.lift_curve(g, m, curve, grid, tol=1e-9)
        rng = np.random.default_rng(4)
        elements = g.elements()
        el = elements[int(rng.integers(0, len(elements)))]
        moved = lf.transformed_lift(m, lift, el, curve)
        assert moved.residual == lift.residual  # bitwise equal floats
        base_reports = sorted(r.to_text() for r in lift.reports)
        moved_reports = sorted(r.to_text() for r in moved.reports)
        assert base_reports == moved_reports

    def test_inexact_rotation_equivariance_to_roundoff(self):
        g, m = group_and_map("I2:3")
        curve = cd.CoeffCurve.from_exprs(["1", "cos(3*t)"])
        lift = lf.lift_curve(g, m, curve, cd.Grid.dyadic(-1, 1, 7))
        el = g.elements()[2]
        moved = lf.transformed_lift(m, lift, el, curve)
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

    def test_composed_curve_keeps_only_the_last_array(self):
        calls = []

        def f(u):
            calls.append(float(u[0]))
            return np.array([u[0], 2.0 * u[0], 3.0 * u[0]])

        curve = lf._composed_curve(f, lambda t: np.array([t, 0.0]), 3)
        a, b = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
        rows = curve.evaluate(a)
        # one evaluation of f per point, shared by the three columns
        assert len(calls) == a.size
        assert np.array_equal(rows, np.stack([a, 2.0 * a, 3.0 * a], axis=1))
        curve.evaluate(b)
        assert len(calls) == a.size + b.size
        # an earlier array is no longer held: evaluating it again recomputes
        curve.evaluate(a)
        assert len(calls) == 2 * a.size + b.size


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
    return cd.CoeffCurve(tuple(np.polynomial.Polynomial(cf) for cf in comps))


class TestExitCandidates:
    """The exit candidates of a window, the nearest point's reflection
    closure, against every point of the enumerated orbit: the chooser reads
    the same best rank, margin bits and tie order from both."""

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

    @pytest.mark.parametrize("spec", ["A:2", "A:4", "B:2", "B:4", "D:3", "D:4", "I2:5"])
    def test_closure_gives_the_enumerated_choice(self, spec):
        import zlib

        g, m = group_and_map(spec)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        bases = [rng.uniform(-2.0, 2.0, g.dim) for _ in range(4)]
        if g.kind != "I2":
            bases[1][0] = bases[1][1]
            bases[2][0] = 0.0
            bases[3][0] = 1e-6  # D: a free parity, so every sign pattern
        for v in bases:
            orb = inv.orbit_at(m, m.evaluate(v))
            for predicted in self._predictions(g, rng, orb):
                for dt in (1.0, 2.0**-5, 1e-3):
                    got = lf._exit_candidates(orb, predicted, dt)
                    want = self._full(orb, predicted, dt)
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
