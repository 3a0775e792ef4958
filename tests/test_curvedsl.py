import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlift import curvedsl as cd
from orbitlift import regcheck as rc
from orbitlift.errors import (
    EvalError,
    ExprDomainError,
    ExprSyntaxError,
    GridTooCoarse,
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

    @pytest.mark.parametrize("src, says", [
        ("pow(t,1e400)", "pow exponent inf"),
        ("pow(t,-1e400)", "pow exponent -inf"),
        ("pow(t,1e400-1e400)", "pow exponent nan"),
        ("powabs(t,1e400)", "powabs exponent inf"),
        ("powabs(u,-1e400)", "powabs exponent -inf"),
        ("t^" + "9" * 400, "^ exponent inf"),
    ])
    def test_non_finite_exponent_rejected_at_parse(self, src, says):
        with pytest.raises(ExprDomainError, match=f"^{re.escape(says)} is not finite$"):
            cd.parse_curve_expr(src, ("t", "u"))

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

    def test_rows_are_the_expressions_bit_for_bit(self):
        sources = ["sin(3*t)+powabs(t,1.5)", "2.5", "exp(t)/(1+t^2)", "-7"]
        curve = cd.CoeffCurve.from_exprs(sources)
        exprs = [cd.parse_curve_expr(s) for s in sources]
        t = cd.Grid.dyadic(-1.0, 1.0, 6).points
        rows = curve.evaluate(t)
        assert rows.shape == (t.size, 4)
        for j, e in enumerate(exprs):
            assert rows[:, j].tobytes() == np.asarray(cd.evaluate_expr(e, t)).tobytes()
        for x in (0.3, -1.0, 0.7071067811865476):
            row = curve.evaluate(x)
            assert row.shape == (4,)
            assert row.tobytes() == np.array([cd.evaluate_expr(e, x) for e in exprs]).tobytes()

    def test_eval_error_carries_t(self):
        curve = cd.CoeffCurve.from_exprs(["sin(1/t)"])
        grid = cd.Grid.dyadic(-1.0, 1.0, 2)
        with pytest.raises(EvalError) as err:
            curve.evaluate(grid.points)
        assert err.value.t == 0.0


class TestGrid:
    # a window is a range of the grid's point indices
    def test_window_refinement(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        r = g.refine(3, 5)  # the points -0.25 .. 0.25
        assert r.level == 4
        assert r.points.tolist() == [-0.25, -0.125, 0.0, 0.125, 0.25]

    def test_full_refinement_doubles(self):
        g = cd.Grid.dyadic(0.0, 2.0, 4)
        r = g.refine(0, g.n_cells)
        assert r.points.size == 2 * (g.points.size - 1) + 1

    def test_degenerate_window(self):
        g = cd.Grid.dyadic(0.0, 1.0, 2)
        for lo, hi in ((2, 2), (3, 1)):
            with pytest.raises(InvalidWindow):
                g.refine(lo, hi)

    def test_window_is_clipped_to_the_grid(self):
        g = cd.Grid.dyadic(0.0, 1.0, 2)
        assert g.refine(-3, 9) == g.refine(0, g.n_cells)
        assert g.refine(2, 9) == g.refine(2, g.n_cells)
        with pytest.raises(InvalidWindow):
            g.refine(5, 9)  # nothing of it is on the grid

    def test_nesting(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        fine = g.refine(0, g.n_cells)
        assert fine.points[::2].tobytes() == g.points.tobytes()

    def test_window_stays_on_lattice(self):
        g = cd.Grid.dyadic(-1.0, 1.0, 3)
        r = g.refine(2, 5)
        lattice = g.refine(0, g.n_cells)
        assert r.points.tobytes() == lattice.points[4:11].tobytes()

    @pytest.mark.parametrize("domain", [(-0.3, 0.5), (-0.37, 0.71), (0.1, 0.7), (-1.0, 1.0)])
    def test_refined_points_keep_their_parents_bits(self, domain):
        # every point of a refined window that lies on its parent's lattice
        # is the parent's float, on any domain, down a chain of windows
        g = cd.Grid.dyadic(*domain, 5)
        for lo, hi in [(9, 15), (2, 9), (5, 8), (0, 6)]:
            r = g.refine(lo, hi)
            assert r.points[::2].tobytes() == g.points[lo : hi + 1].tobytes()
            assert r.step == 0.5 * g.step
            g = r

    @pytest.mark.parametrize("level", [1, 8, 9])
    def test_the_last_point_is_the_domain_end(self, level):
        # t0 + (t1 - t0) * n / n is an ulp off t1 on many non-dyadic domains,
        # (-0.37, 0.71) at level 9 among them; a window at the end keeps it,
        # and its other points on the parent's lattice keep the parent's bits
        rng = np.random.default_rng(level)
        domains = [(-0.37, 0.71)] + [tuple(np.round(np.sort(rng.uniform(-3.0, 3.0, 2)), 2))
                                     for _ in range(300)]
        for lo, hi in domains:
            if lo == hi:
                continue
            g = cd.Grid.dyadic(lo, hi, level)
            assert (g.points[0], g.points[-1]) == (lo, hi)
            # the certifier samples on the finest level's points
            seen = []
            rc.certify(lambda t: seen.append(t) or np.zeros_like(t), (lo, hi), 4, max(level - 3, 1))
            assert seen[0][-1] == hi
            for first in (int(0.6 * g.n_cells), 0):
                r = g.refine(first, g.n_cells)
                assert r.points[-1] == hi
                assert r.points[::2].tobytes() == g.points[first:].tobytes()

    def test_ends_are_the_first_and_last_points(self):
        # a fresh grid's first and last points are its span, bit for bit, on
        # non-dyadic domains at every level: a lift certifies its samples on
        # grid.span, which stands for them
        for lo, hi in [(-0.37, 0.71), (10.1, 10.6), (-0.21, 0.9), (1000.1, 1000.6)]:
            for level in range(11):
                g = cd.Grid.dyadic(lo, hi, level)
                assert g.points[[0, -1]].tobytes() == np.array(g.span).tobytes()


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

    @staticmethod
    def cube_csv(tmp_path, lo=-1.0, hi=1.0, level=5):
        path = tmp_path / "curve.csv"
        t = cd.Grid.dyadic(lo, hi, level).points
        cd.write_samples_csv(path, t, (t**3).reshape(-1, 1), ["a1"])
        return path, t**3

    def test_curve_from_csv_is_its_rows(self, tmp_path):
        path, cube = self.cube_csv(tmp_path, -0.3, 0.5)
        curve, grid, names = cd.read_curve_csv(path)
        assert (grid.span, grid.level, curve.finest_level, names) == ((-0.3, 0.5), 5, 5, ["a1"])
        assert curve.evaluate(grid.points)[:, 0].tobytes() == cube.tobytes()
        # every coarser grid of the domain, and every refined window up to
        # level 5, reads the rows at its points' lattice indices
        coarse = cd.read_curve_csv(path, level=2)[1]
        assert coarse.level == 2
        assert curve.evaluate(coarse.points)[:, 0].tobytes() == cube[::8].tobytes()
        window = coarse.refine(1, 3).refine(0, 3).refine(2, 5)
        assert (window.level, window.first) == (5, 12)
        assert curve.evaluate(window.points)[:, 0].tobytes() == cube[12:19].tobytes()
        assert cd.CoeffCurve.from_exprs(["t"]).finest_level == math.inf

    def test_off_lattice_t_raises_eval_error(self, tmp_path):
        path, _ = self.cube_csv(tmp_path)
        curve, grid, _ = cd.read_curve_csv(path)
        finer = grid.refine(0, 1)  # its odd point lies between rows 0 and 1
        for t in (finer.points[1], 0.1, 1.5, -1.0 - 2.0**-52, np.nan):
            for at in (np.array([0.0, t]), t):
                with pytest.raises(EvalError, match=re.escape(f"{path}: t is off the level-5 dyadic grid of its rows"
                                                              f" (at t={float(t)!r})")) as exc:
                    curve.evaluate(at)
                assert repr(exc.value.t) == repr(float(t))

    def test_level_above_the_rows_or_another_domain_is_refused(self, tmp_path):
        path, _ = self.cube_csv(tmp_path)
        assert cd.read_curve_csv(path, (-1.0, 1.0), 5)[1].level == 5
        with pytest.raises(ValueError, match="rows hold the level-5 dyadic grid, coarser than level 6"):
            cd.read_curve_csv(path, level=6)
        with pytest.raises(ValueError, match=re.escape("rows sample [-1.0, 1.0], not the domain [0.0, 1.0]")):
            cd.read_curve_csv(path, (0.0, 1.0))

    def test_row_count_must_be_one_more_than_a_power_of_two(self, tmp_path):
        path = tmp_path / "curve.csv"
        t = np.linspace(-1.0, 1.0, 33)
        cd.write_samples_csv(path, t[:-1], t[:-1].reshape(-1, 1), ["a1"])
        with pytest.raises(GridTooCoarse, match=re.escape(f"{path}: need 2^L + 1 samples, got 32")):
            cd.read_curve_csv(path)


# -- the compiled evaluator against the tree walker it replaced -----------------------

def _oracle_bad_t(t, mask):
    idx = int(np.argmax(mask))
    return float(np.ravel(t)[idx]) if t.shape else float(t)


def _oracle(node, env, t):
    """The tree walker the compiled evaluator replaced, kept as its oracle:
    every number a full array, every step a numpy operation on arrays (on
    0-d arrays for a point)."""
    if isinstance(node, cd.Num):
        return np.full(t.shape, node.value)
    if isinstance(node, cd.Var):
        return env[node.name]
    if isinstance(node, cd.Neg):
        return -_oracle(node.arg, env, t)
    if isinstance(node, cd.BinOp):
        lv = _oracle(node.left, env, t)
        rv = _oracle(node.right, env, t)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        bad = rv == 0.0
        if np.any(bad):
            raise EvalError("division by zero", {"t": _oracle_bad_t(t, bad)})
        return lv / rv
    if isinstance(node, cd.IntPow):
        base = _oracle(node.base, env, t)
        if node.exponent < 0:
            bad = base == 0.0
            if np.any(bad):
                raise EvalError("zero base with negative exponent", {"t": _oracle_bad_t(t, bad)})
        return base ** float(node.exponent)
    a0 = _oracle(node.args[0], env, t)
    if node.fn in ("abs", "sin", "cos", "exp"):
        return getattr(np, node.fn)(a0)
    alpha = cd._const_value(node.args[1])
    mag = np.abs(a0) if node.fn == "powabs" else a0
    if node.fn == "pow" and alpha != int(alpha):
        bad = a0 < 0.0
        if np.any(bad):
            raise EvalError("pow of negative base with non-integer exponent",
                            {"t": _oracle_bad_t(t, bad)})
    if alpha < 0:
        bad = mag == 0.0
        if np.any(bad):
            raise EvalError("zero base with negative exponent", {"t": _oracle_bad_t(t, bad)})
    return np.power(mag, alpha)


def oracle_eval(node, t):
    arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        out = np.asarray(_oracle(node, {"t": arr}, arr), dtype=float)
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise EvalError("non-finite value", {"t": _oracle_bad_t(arr, bad)})
    return out


def _random_expr(rng, depth):
    """A seeded expression tree over every node type; exponents and
    constants are chosen so that most trees stay finite on [-2, 2]."""
    kinds = ["num", "var"] if depth == 0 else [
        "num", "var", "neg", "+", "-", "*", "/", "^", "abs", "sin", "cos", "exp", "pow", "powabs"]
    kind = kinds[int(rng.integers(len(kinds)))]
    sub = lambda: _random_expr(rng, depth - 1)  # noqa: E731
    if kind == "num":
        return cd.Num(float(np.round(rng.uniform(-3.0, 3.0), int(rng.integers(0, 4)))))
    if kind == "var":
        return cd.Var("t")
    if kind == "neg":
        return cd.Neg(sub())
    if kind in "+-*/":
        return cd.BinOp(kind, sub(), sub())
    if kind == "^":
        return cd.IntPow(sub(), int(rng.integers(-3, 6)))
    if kind in ("pow", "powabs"):
        alpha = float(rng.choice([-1.5, -1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1.0 / 3.0]))
        return cd.Call(kind, (sub(), cd.Num(alpha)))
    return cd.Call(kind, (sub(),))


def _children(node):
    return [getattr(node, a) for a in ("arg", "left", "right", "base") if hasattr(node, a)] + list(
        getattr(node, "args", ()) or ())


def _subtrees(node):
    yield node
    for child in _children(node):
        yield from _subtrees(child)


def _node_types(node):
    return {type(s).__name__ + (f":{s.fn}" if isinstance(s, cd.Call) else "") for s in _subtrees(node)}


def _outcome(fn):
    try:
        return fn(), None
    except EvalError as err:
        return None, str(err)


class TestCompiledEvaluator:
    TREES = 600

    @staticmethod
    def _trees():
        rng = np.random.default_rng(2718)
        return [_random_expr(rng, int(rng.integers(1, 5))) for _ in range(TestCompiledEvaluator.TREES)]

    def test_sweep_covers_every_node_type(self):
        seen = set().union(*(_node_types(e) for e in self._trees()))
        assert seen == {"Num", "Var", "Neg", "BinOp", "IntPow", "Call:abs", "Call:sin", "Call:cos",
                        "Call:exp", "Call:pow", "Call:powabs"}

    def test_arrays_match_the_tree_walker_bit_for_bit(self):
        rng = np.random.default_rng(31)
        t = np.concatenate([rng.uniform(-2.0, 2.0, 200), [0.0, -0.0, 1.0, -1.0, 0.5]])
        finite = 0
        for node in self._trees():
            want, want_err = _outcome(lambda: oracle_eval(node, t))
            got, got_err = _outcome(lambda: cd.evaluate_expr(node, t))
            assert got_err == want_err, node
            if want is not None:
                finite += 1
                assert got.shape == t.shape and got.tobytes() == want.tobytes(), node
        assert finite > TestCompiledEvaluator.TREES // 3

    def test_a_point_gets_the_bits_of_its_row(self):
        rng = np.random.default_rng(32)
        t = rng.uniform(-2.0, 2.0, 40)
        checked = 0
        for node in self._trees():
            rows, _ = _outcome(lambda: cd.evaluate_expr(node, t))
            if rows is None:
                continue
            for k, tk in enumerate(t):
                # a Python float, a numpy scalar, and the env form of each
                for x in (float(tk), np.float64(tk)):
                    assert np.float64(cd.evaluate_expr(node, x)).tobytes() == rows[k].tobytes(), node
                    got = cd.evaluate_with_env(node, {"t": x})
                    assert isinstance(got, float) and np.float64(got).tobytes() == rows[k].tobytes()
                checked += 1
        assert checked > 4000

    def test_points_differ_from_the_walker_only_at_integer_powers(self):
        """The walker took a point as a 0-d array, which numpy turns into a
        scalar after its first operation; a scalar's ** calls the C
        library's pow, which can differ from the ufunc in the last bit.
        The compiled tree takes np.power, as a row does.  So wherever a
        point's bits differ from the walker's, the innermost subtree that
        differs is a ^n on a compound base (a bare t stays a 0-d array,
        whose ** is the ufunc).  On this sweep that is about 0.2 % of the
        points."""
        rng = np.random.default_rng(33)
        t = rng.uniform(-2.0, 2.0, 20)

        def value(node, x):
            try:
                with np.errstate(all="ignore"):
                    return np.float64(
                        _oracle(node, {"t": x}, x) if isinstance(x, np.ndarray) else node._fn({"t": x}))
            except (EvalError, cd._Fault):
                return None

        def differs(node, tk):
            a, b = value(node, np.asarray(tk)), value(node, float(tk))
            return a is not None and b is not None and a.tobytes() != b.tobytes()

        points = differing = 0
        for node in self._trees():
            for tk in t:
                points += 1
                if not differs(node, tk):
                    continue
                differing += 1
                for sub in _subtrees(node):
                    if differs(sub, tk) and not any(differs(c, tk) for c in _children(sub)):
                        assert isinstance(sub, cd.IntPow) and not isinstance(sub.base, cd.Var), sub
        assert differing < 0.01 * points

    def test_numbers_broadcast_and_compile_once(self):
        node = cd.parse_curve_expr("2*3-sin(1)")
        out = cd.evaluate_expr(node, np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == 6.0 - np.sin(1.0))
        assert cd.evaluate_with_env(node, {"t": np.zeros(4)}).shape == (4,)
        assert node._fn is node._fn

    def test_compiled_expressions_pickle(self):
        import pickle

        node = cd.parse_curve_expr("1+t^2")
        assert cd.evaluate_expr(node, 2.0) == 5.0
        copy = pickle.loads(pickle.dumps(node))
        assert copy == node and cd.evaluate_expr(copy, 2.0) == 5.0


class TestEvalErrors:
    T = np.array([-1.0, -0.5, 0.25, 0.5, 0.75])

    @pytest.mark.parametrize("src, message, t", [
        ("1/(t-0.25)", "division by zero", 0.25),
        ("1/(t-0.5)^2", "division by zero", 0.5),
        ("pow(t-0.25, -2)", "zero base with negative exponent", 0.25),
        ("powabs(t+0.5, -1)", "zero base with negative exponent", -0.5),
        ("pow(t, 0.5)", "pow of negative base with non-integer exponent", -1.0),
        ("exp(1000*t)", "non-finite value", 0.75),
        ("1/0", "division by zero", -1.0),  # a constant fails at the first t
    ])
    def test_each_error_names_its_t(self, src, message, t):
        node = cd.parse_curve_expr(src)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns no overflow first
            for arg in (self.T, t):
                with pytest.raises(EvalError) as err:
                    cd.evaluate_expr(node, arg)
                assert str(err.value) == f"{message} (at t={t!r})"
                assert err.value.t == t and err.value.at == {"t": t}

    def test_env_errors_name_the_point(self):
        node = cd.parse_curve_expr("1+1/u", variables=("u", "v"))
        with pytest.raises(EvalError) as err:
            cd.evaluate_with_env(node, {"u": np.float64(0.0), "v": np.float64(-0.5)})
        assert str(err.value) == "division by zero (at u=0.0, v=-0.5)"
        assert err.value.t is None and err.value.at == {"u": 0.0, "v": -0.5}
        node = cd.parse_curve_expr("exp(1000*v)", variables=("u", "v"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalError, match=r"^non-finite value \(at u=1\.0, v=0\.75\)$"):
                cd.evaluate_with_env(node, {"u": np.array([1.0, 1.0]), "v": np.array([0.5, 0.75])})


class TestEnvPoints:
    """evaluate_with_env at a point against its entry of the array
    evaluation, bit for bit, errors included."""

    SOURCES = ["1.1+0.2*sin(u+0.3)", "2.9+0.25*cos(v-0.2)", "u*v-2/(v+3)", "powabs(u,1.5)+v^3",
               "exp(u)-cos(v)*u^2", "pow(u+2,0.5)", "3", "-v"]

    def test_a_point_gets_the_bits_of_its_entry(self):
        rng = np.random.default_rng(34)
        u, v = rng.uniform(-1.5, 1.5, 64), rng.uniform(-1.5, 1.5, 64)
        for src in self.SOURCES:
            node = cd.parse_curve_expr(src, variables=("u", "v"))
            rows = cd.evaluate_with_env(node, {"u": u, "v": v})
            assert rows.shape == u.shape
            for k in range(u.size):
                # Python floats, and the numpy scalars of an array's entries
                for x, y in ((float(u[k]), float(v[k])), (u[k], v[k])):
                    got = cd.evaluate_with_env(node, {"u": x, "v": y})
                    assert type(got) is float and np.float64(got).tobytes() == rows[k].tobytes(), src

    # every node kind, with the ufunc arguments that take the guarded branch
    # (not finite, exp past its range, a power outside the normal range)
    KINDS = ["u", "-u", "u+v", "u-v", "u*v", "u/(v+3)", "-(u*v)", "(u-v)^3", "abs(u)", "abs(-u)",
             "sin(u)", "cos(u)", "exp(u)", "exp(700*u)", "exp(709.7*u)", "exp(-800*u)", "exp(-exp(1000*u))",
             "sin(1e308*u)", "cos(u/1e-300)", "powabs(u,0.5)", "powabs(u,800)", "pow(u+2,-400)",
             "pow(u, 3)", "pow(u, -2)", "powabs(u*1e-300, 2.5)", "u^0", "powabs(u, 1e-3)",
             # constant left operands, read once
             "2.5-u", "-0.5*u", "(1/3)*u+v", "2^3*u", "(0-0)/(v+2)"]
    POINTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1e-300, -3e-320, 1.0001, 0.999, 2.0, 1.5e-5])

    def test_each_node_kind_gets_the_bits_of_its_entry(self):
        u, v = np.meshgrid(self.POINTS, self.POINTS[:5])
        u, v = u.ravel(), v.ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for src in self.KINDS:
                node = cd.parse_curve_expr(src, variables=("u", "v"))
                try:
                    rows = cd.evaluate_with_env(node, {"u": u, "v": v})
                except EvalError:
                    rows = None
                for k in range(u.size):
                    for x, y in ((float(u[k]), float(v[k])), (u[k], v[k])):
                        try:
                            got = cd.evaluate_with_env(node, {"u": x, "v": y})
                        except EvalError:
                            assert rows is None or not np.isfinite(rows[k]), (src, x, y)
                            continue
                        assert type(got) is float, src
                        if rows is not None:  # one failing entry fails the arrays
                            assert np.float64(got).tobytes() == rows[k].tobytes(), (src, x, y)
                        else:
                            one = cd.evaluate_with_env(node, {"u": u[k:k + 1], "v": v[k:k + 1]})
                            assert np.float64(got).tobytes() == one.tobytes(), (src, x, y)

    @pytest.mark.parametrize("src, at, value", [
        ("exp(1000*u)", 0.7875, None),
        ("sin(1e308*10*u)", 0.5, None),
        ("powabs(u+2,800)", 0.45, None),
        ("0*exp(1000*u)", 0.7875, None),
        ("exp(-exp(1000*u))", 0.7875, 0.0),
        ("exp(-exp(1000*u))", 0.0, math.exp(-1.0)),
    ])
    def test_points_raise_no_warning(self, src, at, value):
        node = cd.parse_curve_expr(src, variables=("u", "v"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (at, np.float64(at)):
                if value is None:
                    with pytest.raises(EvalError, match="non-finite value"):
                        cd.evaluate_with_env(node, {"u": u, "v": 0.0})
                else:
                    assert cd.evaluate_with_env(node, {"u": u, "v": 0.0}) == value

    def test_a_finite_point_enters_no_errstate(self, monkeypatch):
        entered, seen = [], []
        errstate = np.errstate

        def spy(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        class Env(dict):
            """Records numpy's error state whenever the tree reads a variable."""

            def __getitem__(self, key):
                seen.append(np.geterr())
                return super().__getitem__(key)

        monkeypatch.setattr(np, "errstate", spy)
        for src in self.SOURCES + ["exp(700*u)", "powabs(u,800)", "pow(v+2,-400)", "abs(u)-u^3"]:
            node = cd.parse_curve_expr(src, variables=("u", "v"))
            for x, y in ((0.6, -0.4), (np.float64(0.9), np.float64(0.7))):
                cd.evaluate_with_env(node, Env(u=x, v=y))
        assert entered == []
        assert seen and all(state == np.geterr() for state in seen)
        # an argument that could raise a flag does enter it
        with pytest.raises(EvalError):
            cd.evaluate_with_env(cd.parse_curve_expr("exp(1000*u)", ("u",)), {"u": 0.7875})
        assert entered == [{"all": "ignore"}]

    @pytest.mark.parametrize("src, message", [
        ("1/(u-0.25)", "division by zero"),
        ("(1/0)*u", "division by zero"),
        ("pow(v-u, 0.5)", "pow of negative base with non-integer exponent"),
        ("exp(800*u)", "non-finite value"),
    ])
    def test_errors_name_the_same_point(self, src, message):
        node = cd.parse_curve_expr(src, variables=("u", "v"))
        u, v = np.array([-0.5, 0.0, 0.25, 1.0]), np.array([0.5, 0.5, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalError) as rows_err:
                cd.evaluate_with_env(node, {"u": u, "v": v})
            assert str(rows_err.value).startswith(message)
            k = int(np.flatnonzero(u == rows_err.value.at["u"])[0])
            for x, y in ((float(u[k]), float(v[k])), (u[k], v[k])):
                with pytest.raises(EvalError) as point_err:
                    cd.evaluate_with_env(node, {"u": x, "v": y})
                assert str(point_err.value) == str(rows_err.value)
                assert point_err.value.at == rows_err.value.at
