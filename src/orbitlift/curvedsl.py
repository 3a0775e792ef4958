"""Coefficient-curve expression language, coefficient curves, dyadic grids
and CSV interchange.

A coefficient curve (`CoeffCurve`) is one function from an array of times
to its rows of coefficients: the stacked values of its expressions
(`CoeffCurve.from_exprs`), or the rows of a CSV file (`read_curve_csv`).

Grammar (see docs/grammar.md for the EBNF):

    expr  = term { ("+" | "-") term }
    term  = unary { ("*" | "/") unary }
    unary = { "+" | "-" } power
    power = atom [ "^" integer ]
    atom  = number | variable | function "(" expr { "," expr } ")" | "(" expr ")"

Functions: abs, sin, cos, exp, pow(base, alpha), powabs(base, alpha).
powabs(b, alpha) = |b|^alpha is the guarded form for rational exponents;
pow requires a nonnegative base whenever alpha is not an integer.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EvalError,
    ExprDomainError,
    ExprSyntaxError,
    GridTooCoarse,
    InvalidWindow,
)

_FUNCTIONS = {"abs": 1, "sin": 1, "cos": 1, "exp": 1, "pow": 2, "powabs": 2}


# -- abstract syntax ---------------------------------------------------------

class CurveExpr:
    """Base class for expression nodes; immutable and hashable.  `_fn` is
    the node compiled for evaluation (see below), built on first use."""

    @functools.cached_property
    def _fn(self) -> Callable[[dict], object]:
        return _compile(self)

    def __getstate__(self):
        # closures do not pickle; a copy compiles again on first use
        return {k: v for k, v in self.__dict__.items() if k != "_fn"}


@dataclass(frozen=True)
class Num(CurveExpr):
    value: float


@dataclass(frozen=True)
class Var(CurveExpr):
    name: str


@dataclass(frozen=True)
class Neg(CurveExpr):
    arg: CurveExpr


@dataclass(frozen=True)
class BinOp(CurveExpr):
    op: str  # one of + - * /
    left: CurveExpr
    right: CurveExpr


@dataclass(frozen=True)
class IntPow(CurveExpr):
    base: CurveExpr
    exponent: int


@dataclass(frozen=True)
class Call(CurveExpr):
    fn: str
    args: tuple = ()


# -- tokenizer / parser ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", bad)
        for kind in ("num", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append((kind, text, m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str, variables: Sequence[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}, got {tok[1]!r}", tok[2])

    def parse(self) -> CurveExpr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> CurveExpr:
        node = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.take()
            node = BinOp(tok[1], node, self.term())
        return node

    def term(self) -> CurveExpr:
        node = self.unary()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.take()
            node = BinOp(tok[1], node, self.unary())
        return node

    def unary(self) -> CurveExpr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            inner = self.unary()
            return inner if tok[1] == "+" else Neg(inner)
        return self.power()

    def power(self) -> CurveExpr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.take()
            num = self.take()
            if num[0] != "num" or "." in num[1] or "e" in num[1].lower():
                raise ExprSyntaxError("^ takes an integer exponent", num[2])
            if not math.isfinite(float(num[1])):
                raise ExprDomainError(f"^ exponent {float(num[1])!r} is not finite")
            return IntPow(base, int(num[1].lstrip("0") or "0"))
        return base

    def atom(self) -> CurveExpr:
        tok = self.take()
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                return self.call(text, pos)
            if text in self.variables:
                return Var(text)
            raise ExprSyntaxError(f"unknown variable {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)

    def call(self, name: str, pos: int) -> CurveExpr:
        if name not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name!r}", pos)
        self.expect_op("(")
        args = [self.expr()]
        while (tok := self.peek()) and tok[0] == "op" and tok[1] == ",":
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != _FUNCTIONS[name]:
            raise ExprSyntaxError(
                f"{name} takes {_FUNCTIONS[name]} argument(s), got {len(args)}", pos
            )
        if name in ("pow", "powabs"):
            exponent = _const_value(args[1])
            if exponent is None:
                raise ExprSyntaxError(f"{name} exponent must be a constant", pos)
            if not math.isfinite(exponent):
                raise ExprDomainError(f"{name} exponent {exponent!r} is not finite")
            if name == "pow":
                base_val = _const_value(args[0])
                if (
                    base_val is not None
                    and base_val < 0
                    and exponent != int(exponent)
                ):
                    raise ExprDomainError(
                        "pow of a negative constant with non-integer exponent"
                    )
        return Call(name, tuple(args))


def _const_value(node: CurveExpr) -> float | None:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _const_value(node.arg)
        return None if inner is None else -inner
    if isinstance(node, BinOp):
        lv, rv = _const_value(node.left), _const_value(node.right)
        if lv is None or rv is None:
            return None
        if node.op == "/" and rv == 0:
            return None
        return {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv if rv else None}[node.op]
    return None


def parse_curve_expr(src: str, variables: Sequence[str] = ("t",)) -> CurveExpr:
    """Parse one expression; raises ExprSyntaxError with the character position."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src, variables).parse()


# -- evaluation ---------------------------------------------------------------
#
# Each expression is compiled once, on first use, into a tree of closures
# cached on its node.  A closure maps an environment {variable: value} to the
# node's value, and the same tree serves arrays (evaluate_expr, whose values
# CoeffCurve.from_exprs stacks) and points (evaluate_with_env).  Arrays run
# under one np.errstate(all="ignore") per call.  At a point, coordinates and
# numbers are Python floats (float() is exact; numbers broadcast against
# arrays), so + - * / and negation are the IEEE operations of the array entry
# and raise no numpy warning (a zero divisor is refused first), and a ufunc
# enters np.errstate only for an argument that could raise a flag (_guarded).
# A flag moves no bit, so a point gets the bits of its entry.


class _Fault(Exception):
    """A check failed: mask marks the failing entries (a bool for a point)."""

    def __init__(self, message: str, mask):
        super().__init__(message)
        self.message = message
        self.mask = mask


def _check(bad, message: str) -> None:
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise _Fault(message, bad)


def _compile(node: CurveExpr) -> Callable[[dict], object]:
    if isinstance(node, Num):
        value = float(node.value)
        return lambda env: value
    if isinstance(node, Var):
        name = node.name
        return lambda env: v if isinstance(v := env[name], np.ndarray) else float(v)
    if isinstance(node, Neg):
        arg = node.arg._fn
        return lambda env: -arg(env)
    if isinstance(node, BinOp):
        left, right, value = node.left._fn, node.right._fn, _const_value(node.left)
        if value is not None and node.op != "/":  # a constant left operand is read once
            return {"+": lambda env: value + right(env), "-": lambda env: value - right(env),
                    "*": lambda env: value * right(env)}[node.op]
        if node.op == "+":
            return lambda env: left(env) + right(env)
        if node.op == "-":
            return lambda env: left(env) - right(env)
        if node.op == "*":
            return lambda env: left(env) * right(env)

        def divide(env):
            lv, rv = left(env), right(env)
            _check(rv == 0.0, "division by zero")
            return lv / rv

        return divide
    if isinstance(node, IntPow):
        return _power(node.base._fn, float(node.exponent), False)
    if isinstance(node, Call):
        arg = node.args[0]._fn
        if node.fn in ("pow", "powabs"):
            alpha = _const_value(node.args[1])
            return _power(arg, alpha, node.fn == "powabs")
        if node.fn == "abs":
            return lambda env: abs(arg(env))  # fabs, for Python floats and arrays alike
        ufunc = {"sin": np.sin, "cos": np.cos, "exp": np.exp}[node.fn]
        return _guarded(ufunc, arg, -1.0, 708.0 if node.fn == "exp" else math.inf)
    raise TypeError(f"not an expression node: {node!r}")


def _guarded(fn: Callable, arg: Callable, lo: float, hi: float) -> Callable:
    """fn of arg's value: of arrays under _run_arrays' errstate, of a point x
    as a Python float, in np.errstate unless lo < |x| < hi (no flag there)."""

    def call(env):
        x = arg(env)
        if type(x) is not float:
            return fn(x)
        if lo < abs(x) < hi:
            return float(fn(x))
        with np.errstate(all="ignore"):
            return float(fn(x))

    return call


def _power(base: Callable, alpha: float, absolute: bool) -> Callable:
    """|base|^alpha when absolute, else base^alpha, which needs a
    nonnegative base unless alpha is an integer.  Points and arrays both
    take np.power: a Python float's ** calls the C library's pow, which can
    differ from the ufunc in the last bit.  A point base with
    2^-e < |base| < 2^e has its power in the normal range."""
    signed = not absolute and alpha != int(alpha)

    def power(b):
        if absolute:
            b = abs(b)
        elif signed:
            _check(b < 0.0, "pow of negative base with non-integer exponent")
        if alpha < 0:
            _check(b == 0.0, "zero base with negative exponent")
        return np.power(b, alpha)

    e = min(1000.0 / abs(alpha), 1022.0) if alpha else 1022.0
    return _guarded(power, base, 2.0**-e, 2.0**e)


def _at(env: dict, mask) -> dict[str, float]:
    """The values of the variables at the first failing entry: the first
    entry when mask is one bool (a point, or a constant, which fails
    everywhere)."""
    i = int(np.argmax(mask)) if isinstance(mask, np.ndarray) else 0
    return {k: float(np.ravel(v)[i]) if np.ndim(v) else float(v) for k, v in env.items()}


def _run(node: CurveExpr, env: dict):
    """The node's value on env, a point or arrays (see _run_arrays): a
    fault ends as a non-finite value, and that raises EvalError."""
    try:
        out = node._fn(env)
    except _Fault as fault:
        raise EvalError(fault.message, _at(env, fault.mask)) from None
    if isinstance(out, np.ndarray):
        bad = ~np.isfinite(out)
        if bad.any():
            raise EvalError("non-finite value", _at(env, bad))
    elif not math.isfinite(out):
        raise EvalError("non-finite value", _at(env, True))
    return out


_run_arrays = np.errstate(all="ignore")(_run)  # a decorator enters it afresh on every call


def evaluate_expr(node: CurveExpr, t):
    """Evaluate at scalar or array t; raises EvalError at singular points."""
    arr = np.asarray(t, dtype=float)
    if arr.shape == ():
        return float(_run(node, {"t": float(arr)}))
    out = _run_arrays(node, {"t": arr})
    return out if isinstance(out, np.ndarray) else np.full(arr.shape, out)


def evaluate_with_env(node: CurveExpr, env: dict[str, float]):
    """Evaluate a multi-variable expression at one point, whose coordinates
    are floats, or at each entry of arrays of one shape.  EvalError names
    the point.  A point runs the compiled node on Python floats, with
    _run's checks, enters np.errstate only where a ufunc's argument could
    raise a flag, and gets the bits of its entry."""
    for v in env.values():
        if isinstance(v, np.ndarray):
            out = _run_arrays(node, env)
            # a constant on arrays fills their shape
            return out if isinstance(out, np.ndarray) or not v.ndim else np.full(v.shape, out)
    try:
        out = node._fn(env)
    except _Fault as fault:
        raise EvalError(fault.message, _at(env, fault.mask)) from None
    if not math.isfinite(out):
        raise EvalError("non-finite value", _at(env, True))
    return out


def split_top_level(src: str, sep: str = ",") -> list[str]:
    """Split on separators outside parentheses (component lists may contain
    function calls with commas)."""
    parts = []
    depth = 0
    cur = []
    for ch in src:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


# -- coefficient curves --------------------------------------------------------

@dataclass(frozen=True)
class CoeffCurve:
    """Curve t -> (a_1(t), ..., a_n(t)): `rows` maps a 1-D array of times
    to their coefficient rows, shape (len(t), n).  `finest_level` is the
    finest dyadic grid level the curve has values on: a CSV curve's own
    (`read_curve_csv`), inf for one with a value at every t."""

    rows: Callable[[np.ndarray], np.ndarray]
    n: int
    finest_level: float = math.inf

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("curve needs at least one component")

    def evaluate(self, t) -> np.ndarray:
        """Rows of coefficient vectors: shape (len(t), n), or (n,) at a scalar t."""
        arr = np.asarray(t, dtype=float)
        return self.rows(arr.reshape(-1)).reshape(arr.shape + (self.n,))

    @classmethod
    def from_exprs(cls, sources: Sequence[str]) -> "CoeffCurve":
        exprs = [parse_curve_expr(s) for s in sources]
        return cls(lambda t: np.stack([evaluate_expr(e, t) for e in exprs], axis=-1), len(exprs))


# -- grids ----------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Points first .. first + n_cells of the dyadic lattice of `span`.

    Lattice point k of a level is span[0] + (span[1] - span[0]) * k / 2^level,
    and index 2^level is span[1] itself.  A fresh grid (`dyadic`) covers the
    span with 2^level cells; `refine(lo, hi)` covers its points lo..hi at the
    next level, so a window is a range of lattice indices, its cell count
    need not be a power of two, and a refined point on its parent's lattice
    has its parent's bits.
    """

    span: tuple[float, float]
    level: int
    first: int
    n_cells: int

    def __post_init__(self):
        a, b = self.span
        if not (b > a):
            raise InvalidWindow(f"degenerate domain [{a}, {b}]")
        if not math.isfinite(b - a):
            raise InvalidWindow(f"domain [{a}, {b}] has infinite length")
        if self.n_cells < 1:
            raise InvalidWindow("grid needs at least one cell")

    @classmethod
    def dyadic(cls, t0: float, t1: float, level: int) -> "Grid":
        if level < 0:
            raise ValueError("level must be >= 0")
        return cls((float(t0), float(t1)), level, 0, 2**level)

    @property
    def step(self) -> float:
        return (self.span[1] - self.span[0]) / 2**self.level

    @property
    def points(self) -> np.ndarray:
        a, b = self.span
        pts = a + (b - a) * np.arange(self.first, self.first + self.n_cells + 1) / 2**self.level
        if self.first + self.n_cells == 2**self.level:
            pts[-1] = b  # a + (b - a) * n / n can be an ulp off b
        return pts

    def refine(self, lo: int, hi: int) -> "Grid":
        """Halve the step over this grid's points lo..hi, clipped to the grid."""
        lo, hi = max(lo, 0), min(hi, self.n_cells)
        if hi <= lo:
            raise InvalidWindow(f"empty window {lo}..{hi} of a grid of {self.n_cells} cells")
        return Grid(self.span, self.level + 1, 2 * (self.first + lo), 2 * (hi - lo))


# -- CSV interchange --------------------------------------------------------------

def write_samples_csv(path, t: np.ndarray, columns: np.ndarray, names: Sequence[str]) -> None:
    """Header `t,<names...>`, then row i of the (N, n) `columns` after t[i],
    17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *names])
        for i, ti in enumerate(np.asarray(t, dtype=float)):
            writer.writerow([f"{ti:.17g}", *(f"{x:.17g}" for x in columns[i])])


def read_samples_csv(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Returns (t, columns with shape (N, n), column names)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise ValueError(f"{path}: first CSV column must be 't'")
        names = [h.strip() for h in header[1:]]
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: malformed CSV body")
    data = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite {['t', *names][j]} = {data[i, j]} at t={data[i, 0]}")
    return data[:, 0], data[:, 1:], names


def read_curve_csv(path, domain=None, level=None) -> tuple[CoeffCurve, Grid, list[str]]:
    """The curve a CSV file holds, the grid to read it on, and its column names.

    The file must hold 2^D + 1 rows on the level-D dyadic grid of
    [t_first, t_last], each t within 1e-9 of the span of its point.  Its
    curve is then exactly its rows: a t is answered by the row of the
    level-D point it equals, and any other t raises EvalError.  It is read
    on the level-L dyadic grid of the file's domain, L = `level` or D,
    whose points are level-D points bit for bit (the scale factors are
    powers of two); a level above D, or a `domain` other than the file's,
    is refused."""
    t, cols, names = read_samples_csv(path)
    span = (float(t[0]), float(t[-1]))
    top = (t.size - 1).bit_length() - 1
    if t.size != 2**top + 1:
        raise GridTooCoarse(f"{path}: need 2^L + 1 samples, got {t.size}")
    pts = Grid.dyadic(*span, top).points
    off = (abs(t - pts) > 1e-9 * (span[1] - span[0])).nonzero()[0]
    if off.size:
        k = int(off[0])
        raise ValueError(f"{path}: t={float(t[k])!r} in row {k} is off the level-{top} dyadic grid"
                         f" of [{span[0]!r}, {span[1]!r}], whose point {k} is {float(pts[k])!r}")
    if domain is not None and tuple(domain) != span:
        raise ValueError(f"{path}: its rows sample [{span[0]!r}, {span[1]!r}],"
                         f" not the domain [{domain[0]!r}, {domain[1]!r}]")
    if level is not None and level > top:
        raise ValueError(f"{path}: its {t.size} rows hold the level-{top} dyadic grid, coarser than level {level}")

    def rows(at):
        k = np.minimum(np.searchsorted(pts, at), pts.size - 1)
        off = pts[k] != at
        if off.any():
            raise EvalError(f"{path}: t is off the level-{top} dyadic grid of its rows", _at({"t": at}, off))
        return cols[k]

    return CoeffCurve(rows, len(names), top), Grid.dyadic(*span, top if level is None else level), names
