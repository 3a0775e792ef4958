import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlift import curvedsl as cd
from orbitlift.errors import (
    EvalError,
    ExprDomainError,
    ExprSyntaxError,
    InvalidWindow,
)


class TestParser:
    def test_polynomial(self):
        ast = cd.parse_curve_expr("t^2")
        assert ast == cd.IntPow(cd.Var("t"), 2)
        assert cd.evaluate_expr(ast, 3.0) == 9.0

    def test_negated_powabs(self):
        ast = cd.parse_curve_expr("-powabs(t,3)")
        assert isinstance(ast, cd.Neg)
        assert cd.evaluate_expr(ast, -2.0) == -8.0

    def test_sin_reciprocal_singular(self):
        ast = cd.parse_curve_expr("sin(1/t)")
        assert cd.evaluate_expr(ast, 2.0) == pytest.approx(np.sin(0.5))
        with pytest.raises(EvalError) as err:
            cd.evaluate_expr(ast, 0.0)
        assert err.value.t == 0.0

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            cd.parse_curve_expr("t + ")
        assert err.value.position == 4

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            cd.parse_curve_expr("q + 1")

    def test_pow_negative_constant_rejected_at_parse(self):
        with pytest.raises(ExprDomainError):
            cd.parse_curve_expr("pow(-2, 0.5)")

    def test_pow_negative_at_runtime(self):
        ast = cd.parse_curve_expr("pow(t, 0.5)")
        with pytest.raises(EvalError):
            cd.evaluate_expr(ast, -1.0)

    def test_empty_rejected(self):
        with pytest.raises(ExprSyntaxError):
            cd.parse_curve_expr("   ")

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="t0123456789+-*/^(),.absincoexpw ", max_size=24))
    def test_fuzz_totality(self, src):
        # every input either parses or raises a structured error; no crashes
        try:
            cd.parse_curve_expr(src)
        except (ExprSyntaxError, ExprDomainError):
            pass


class TestSampling:
    def test_parabola_rows(self):
        curve = cd.CoeffCurve.from_exprs(["0", "-t^2"])
        grid = cd.Grid.dyadic(-1.0, 1.0, 1)
        rows = curve.evaluate(grid.points)
        assert np.allclose(rows, [[0.0, -1.0], [0.0, 0.0], [0.0, -1.0]])

    def test_degree_one(self):
        curve = cd.CoeffCurve.from_exprs(["t"])
        assert curve.evaluate(np.array([0.5]))[0, 0] == 0.5

    def test_powabs_at_negative(self):
        curve = cd.CoeffCurve.from_exprs(["0", "-powabs(t,1)"])
        row = curve.evaluate(np.array([-0.25]))[0]
        assert np.allclose(row, [0.0, -0.25])

    def test_eval_error_carries_t(self):
        curve = cd.CoeffCurve.from_exprs(["sin(1/t)"])
        grid = cd.Grid.dyadic(-1.0, 1.0, 2)
        with pytest.raises(EvalError) as err:
            curve.evaluate(grid.points)
        assert err.value.t == 0.0


class TestGrid:
    def test_window_refinement(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        r = g.refine((-0.25, 0.25))
        assert r.level == 4
        assert np.allclose(r.points, [-0.25, -0.125, 0.0, 0.125, 0.25])

    def test_full_refinement_doubles(self):
        g = cd.Grid.dyadic(0.0, 2.0, 4)
        r = g.refine()
        assert r.points.size == 2 * (g.points.size - 1) + 1

    def test_degenerate_window(self):
        g = cd.Grid.dyadic(0.0, 1.0, 2)
        with pytest.raises(InvalidWindow):
            g.refine((0.5, 0.5))

    def test_window_outside_domain(self):
        g = cd.Grid.dyadic(0.0, 1.0, 2)
        with pytest.raises(InvalidWindow):
            g.refine((0.5, 1.5))

    def test_nesting(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        fine = g.refine()
        coarse_set = set(np.round(g.points, 12))
        fine_set = set(np.round(fine.points, 12))
        assert coarse_set.issubset(fine_set)

    def test_snapped_window_stays_on_lattice(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        r = g.refine((-0.3, 0.22))
        lattice = g.refine()
        assert set(np.round(r.points, 12)).issubset(set(np.round(lattice.points, 12)))


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "curve.csv"
        t = np.linspace(-1, 1, 17)
        cols = np.stack([np.zeros_like(t), -np.abs(t)], axis=1)
        cd.write_samples_csv(path, t, cols, ["a1", "a2"])
        t2, cols2, names = cd.read_samples_csv(path)
        assert names == ["a1", "a2"]
        assert np.array_equal(t, t2)
        assert np.array_equal(cols, cols2)

    def test_curve_from_csv_interpolates(self, tmp_path):
        path = tmp_path / "curve.csv"
        t = np.linspace(-1, 1, 33)
        cols = (t**3).reshape(-1, 1)
        cd.write_samples_csv(path, t, cols, ["a1"])
        curve = cd.read_curve_csv(path)
        # cubic data reproduced at off-grid points by the cubic interpolant
        q = np.array([-0.123, 0.4567])
        assert np.allclose(curve.evaluate(q)[:, 0], q**3, atol=1e-4)
        with pytest.raises(EvalError):
            curve.evaluate(np.array([1.5]))


class TestSmoothnessClass:
    @pytest.mark.parametrize(
        "text,label",
        [("C0", "C0"), ("C^1", "C1"), ("C0,1", "C0,1"), ("Cinf", "Cinf"), ("C12", "C12")],
    )
    def test_parse_label(self, text, label):
        # each spelling and its canonical form pass the label check
        cd.check_class_label(text)
        cd.check_class_label(label)

    def test_reject_garbage(self):
        for text in ("smooth", "C", "C1,2", "C^{1,1,1}", "Cx"):
            with pytest.raises(ValueError):
                cd.check_class_label(text)
