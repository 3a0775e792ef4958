"""Monic hyperbolic polynomials: hyperbolicity tests and real root extraction.

A monic real polynomial is stored through the alternating-sign coefficient
vector (a_1, ..., a_n):

    P(x) = x^n + sum_j (-1)^j a_j x^(n-j)

so that a_j equals the j-th elementary symmetric function of the roots.

Every solve runs one pipeline.  A companion-matrix eigensolve plus guarded
Newton steps proposes the roots, and they are accepted only when certified
by sign alternation: P changes sign between consecutive probes and across a
delta-enclosure of every root, each value standing clear of Horner's
rounding-error bound (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 5), with every gap wide enough that no cluster collapse
applies.  roots_batch runs the eigensolve of a whole block of polynomials
(a sampled curve) as one stacked call; roots runs it on one row.

A row the certificate refuses is rebuilt from critical-point interlacing:
between consecutive real critical points P is monotone, so a reliable sign
change there is exactly one simple root (Rolle), and a critical value lost
in rounding noise carries a multiple root.  Root clusters narrower than
tol^(1/multiplicity) are collapsed to a repeated root (at the cluster
centroid, computed from the matching derivative): collisions of real roots
are the expected regime here and must not surface as spurious complex
pairs.  Complex pairs within the tolerance ball are promoted to real
multiple roots; a pair outside it raises NotHyperbolic.

The refused rows of a block are rebuilt together, one derivative level at
a time.  The anchors of all rows are evaluated, with their Horner noise
bounds, as one array.  The brackets of all rows are polished in one call:
on arrays while _ARRAY_BRACKETS or more of them are live, then on Python
floats, each straggler resumed where the arrays left it.  The runs of zero
values of all rows are polished as multiple roots by one Newton per
multiplicity.  The cluster collapse then runs once over every row with a
near gap, its widths scanned column by column and its multiple roots again
polished by one Newton per cluster size.  The array and float forms of a
kernel run the same float operations in the same order, and a cluster's
mean is summed in np.mean's order, so a row gets the same bits alone as in
a block of any size.  Only the tol-ball promotion runs per row; it rebuilds
its derivative as a block of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotFinite, NotHyperbolic, RootSolveFailed, RowError

_EPS = float(np.finfo(float).eps)
# roots_batch: Newton steps after the eigensolve, and the least certified
# adjacent gap in units of tol^(1/2), the narrowest width a cluster collapses
_BATCH_NEWTON = 3
_GAP_MARGIN = 2.0
# The bracket polish steps on numpy arrays while this many brackets or more
# are live, and hands the stragglers to the float loop.  An array step costs
# some 50 numpy calls however few brackets are left, and near a cluster the
# slowest bracket takes up to 65 steps.  Timed on the 37,000 brackets of the
# select-clustered rounds of seeds 1-3 (2-core x86 host, best of 21), every
# handoff count from 16 to 256 polishes them in 45-61 ms, within the host's
# noise of each other; arrays to the last bracket take 62 ms and floats
# alone 499 ms.  No level of those seeds' select and lift rounds has more
# than 10 brackets: they run on floats only.
_ARRAY_BRACKETS = 64


@dataclass(frozen=True, eq=False)
class MonicHyperbolic:
    """Monic real polynomial in the alternating-sign coefficient convention."""

    coeffs: np.ndarray

    def __init__(self, coeffs: Sequence[float]):
        arr = np.array(coeffs, dtype=float).reshape(-1)
        if arr.size == 0:
            raise ValueError("polynomial must have degree >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def full_coeffs(self) -> np.ndarray:
        """Descending power-basis coefficients [1, -a1, +a2, ...]."""
        n = self.degree
        signs = (-1.0) ** np.arange(1, n + 1)
        return np.concatenate(([1.0], signs * self.coeffs))

    def __repr__(self) -> str:
        return f"MonicHyperbolic(degree={self.degree}, coeffs={self.coeffs.tolist()})"


@dataclass(frozen=True, eq=False)
class RootMultiset:
    """Nondecreasing real roots; multiplicity is implied by repeats."""

    values: np.ndarray

    def __init__(self, values: Sequence[float]):
        arr = np.sort(np.asarray(values, dtype=float).reshape(-1))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"RootMultiset({self.values.tolist()})"


def from_roots(root_values: Sequence[float]) -> MonicHyperbolic:
    """Polynomial with the given real roots (Vieta: a_j = e_j(roots))."""
    vals = np.sort(np.asarray(root_values, dtype=float).reshape(-1))
    if vals.size == 0:
        raise ValueError("at least one root required")
    if not np.all(np.isfinite(vals)):
        raise ValueError("roots must be finite")
    return MonicHyperbolic(_elementary(vals.tolist()))


def _elementary(roots: list) -> list:
    """e_1..e_n of the roots, accumulated in the order given.  The roots may
    be floats or equal-length arrays, one root of every row each."""
    e = [1.0] + [0.0] * len(roots)
    for k, r in enumerate(roots, start=1):
        for j in range(k, 0, -1):
            e[j] += r * e[j - 1]
    return e[1:]


def evaluate(poly: MonicHyperbolic, x):
    """Horner evaluation; accepts scalars or arrays."""
    return _horner(poly.full_coeffs(), x)


def roots(poly: MonicHyperbolic, tol: float = 1e-10) -> RootMultiset:
    """All n real roots, sorted, with multiplicity: the one-row case of
    roots_batch, so a certified eigensolve answer or else the closed forms
    or the interlacing rebuild, which counts the real roots between critical
    points, collapses clusters narrower than tol^(1/multiplicity), and
    promotes complex pairs inside the tol-ball to multiple roots.  Raises
    NotHyperbolic if a complex pair remains, RootSolveFailed if the rebuilt
    roots fail the backward check, NotFinite if the solve overflows, each
    with `index` 0.  Output is deterministic for identical input.
    """
    return RootMultiset(roots_batch(poly.coeffs[None, :], tol)[0][0])


def roots_batch(rows, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of each row of an (N, n) block of coefficient vectors,
    and the (N,) mask of the rows the certificate refused.

    One stacked eigensolve of the companion matrices and _BATCH_NEWTON
    Newton steps give candidate roots r_0 < ... < r_(n-1) for every row.  A
    row keeps them only with a certificate, every value clear of twice the
    Horner noise bound:
    * each adjacent gap exceeds _GAP_MARGIN * tol^(1/2), so the tol-ball
      collapse cannot merge any two of them;
    * P has the sign (-1)^(n-k) at n+1 probes: below r_0, at the midpoint
      between r_(k-1) and r_k, and above r_(n-1), which makes n sign
      changes, so n simple real roots, one between adjacent probes;
    * P(r - d) P(r + d) < 0 with d = 1e-9 max(1, |r|), so each root lies
      within d of its r.
    The refused rows, and every row of degree <= 2, are solved together as
    one block by the fallback: the closed forms, else the interlacing
    rebuild, which runs level by level over all of them.  Each row's answer
    is the one it gets alone.  The first row refused raises, carrying its
    row index as `index`: NotFinite for a row that is not finite, else the
    fallback's NotHyperbolic, RootSolveFailed or NotFinite.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("rows must be an (N, n) array with n >= 1")
    finite = np.isfinite(rows).all(axis=1)
    if rows.shape[1] >= 3:
        # a non-finite row is solved as zeros, which no certificate accepts
        values, good = _certified_roots(np.where(finite[:, None], rows, 0.0), tol)
        fell_back = ~(finite & good)
    else:
        values, fell_back = np.empty(rows.shape), np.ones(rows.shape[0], dtype=bool)
    # the first row that is not finite ends the block
    stop = rows.shape[0] if finite.all() else int(np.argmin(finite))
    todo = fell_back[:stop].nonzero()[0]
    if todo.size:
        try:
            values[todo] = _uncertified_roots(rows[todo], tol)
        except RowError as exc:
            exc.index = int(todo[exc.index])
            raise
    if stop < rows.shape[0]:
        raise NotFinite("coefficients must be finite", index=stop)
    return values, fell_back


def _uncertified_roots(rows: np.ndarray, tol: float) -> np.ndarray:
    """Sorted roots of a block of rows the certificate refused (or of degree
    <= 2), from the closed forms or the interlacing rebuild.  Nothing ties a
    rebuilt answer to the coefficients as the closed forms' tol-ball rule
    does, so it must give them back to within 10 tol^(1/2) scale, or raise
    RootSolveFailed: roots are told apart only beyond the pair width
    tol^(1/2), and a collapsed cluster moves the coefficients by as much.
    The first failing row raises, with its index in the block as `index`:
    NotFinite when its roots, or the polynomial recentred to find them,
    overflow."""
    n = rows.shape[1]
    vals, solved = _roots_with_fallback(rows, tol)
    failed = ~solved
    if n >= 3:
        vals = np.sort(vals, axis=1)
        with np.errstate(invalid="ignore"):  # a refused row's nan or inf roots
            e = np.array(_elementary(list(vals.T))).T
        gap = np.abs(e - rows)
        miss = gap[:, 0]
        for j in range(1, n):
            miss = np.where(gap[:, j] > miss, gap[:, j], miss)  # max(), as on floats
        scale = 1.0 + np.max(np.abs(rows), axis=1)
        failed |= ~(miss <= 10.0 * math.sqrt(tol) * scale)
    if failed.any():
        i = int(np.argmax(failed))
        if not solved[i] and np.isinf(vals[i]).any():
            exc = NotFinite(f"the roots, or the recentred polynomial, overflow (degree {n})")
        elif not solved[i]:
            exc = NotHyperbolic(f"certified complex root pair (degree {n}, tol {tol:g})")
        else:
            exc = RootSolveFailed(f"roots fail the backward check: they miss the coefficients"
                                  f" by {miss[i]:.3g} (degree {n}, tol {tol:g})")
        exc.index = i
        raise exc
    return vals


# -- certified roots: one stacked eigensolve, checked by sign alternation ----

def _horner_rows(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the polynomials c[i] (descending) at the points x[i, :],
    and their Horner rounding-noise bounds: 2 (deg + 1) eps times the
    polynomial |c[i]| at |x|."""
    out = np.repeat(c[:, :1], x.shape[1], axis=1)
    acc = np.abs(out)
    ax = np.abs(x)
    for j in range(1, c.shape[1]):
        out = out * x + c[:, j : j + 1]
        acc = acc * ax + np.abs(c[:, j : j + 1])
    return out, 2.0 * c.shape[1] * _EPS * acc


def _certified_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sorted roots of each row (degree n >= 3, finite) and the
    mask of the rows whose candidates carry the certificate described in
    roots_batch."""
    m, n = rows.shape
    c = np.ones((m, n + 1))
    c[:, 1:] = rows * (-1.0) ** np.arange(1, n + 1)
    dc = c[:, :-1] * np.arange(n, 0, -1)
    comp = np.zeros((m, n, n))
    comp[:, 0, :] = -c[:, 1:]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    with np.errstate(all="ignore"):
        x = np.sort(np.linalg.eigvals(comp).real, axis=1)
        # a Newton step counts only where it lowers |P|: within the Horner
        # noise a full step can move a root away
        fx = _horner_rows(c, x)[0]
        for _ in range(_BATCH_NEWTON):
            x_new = x - fx / _horner_rows(dc, x)[0]
            f_new = _horner_rows(c, x_new)[0]
            better = np.abs(f_new) < np.abs(fx)
            x, fx = np.where(better, x_new, x), np.where(better, f_new, fx)
        x.sort(axis=1)
        d = 1e-9 * np.maximum(1.0, np.abs(x))
        span = 1.0 + (x[:, -1:] - x[:, :1])
        probes = np.concatenate([x[:, :1] - span, 0.5 * (x[:, :-1] + x[:, 1:]), x[:, -1:] + span], axis=1)
        val, noise = _horner_rows(c, np.concatenate([probes, x - d, x + d], axis=1))
        sign = (-1.0) ** (n - np.arange(n + 1))  # P's sign between roots k-1 and k
        clear = val * np.concatenate([sign, sign[:-1], sign[1:]]) > 2.0 * noise
        good = (
            np.isfinite(x).all(axis=1)
            & (np.diff(x, axis=1) > _GAP_MARGIN * math.sqrt(tol)).all(axis=1)
            & clear.all(axis=1)
            & (probes[:, :-1] < x - d).all(axis=1)
            & (x + d < probes[:, 1:]).all(axis=1)
        )
    return x, good


# -- dense polynomial helpers (descending coefficients, c[0] = leading) -----

def _horner(c, x):
    """c(x) for an array or float list c.  A float x (np.float64 included)
    takes a plain float loop with the array path's operation order."""
    if isinstance(x, float):
        x = float(x)
        if not isinstance(c, list):
            c = c.tolist()
        out = c[0]
        for coef in c[1:]:
            out = out * x + coef
        return out
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, c[0], dtype=float)
    for coef in c[1:]:
        out = out * x + coef
    if out.shape == ():
        return float(out)
    return out


def _deg(c: np.ndarray) -> int:
    return c.size - 1


def _deriv(c: np.ndarray) -> np.ndarray:
    return c[:-1] * np.arange(_deg(c), 0, -1)


def _root_bounds(c: np.ndarray) -> np.ndarray:
    """Fujiwara upper bound on |roots| of each row of c, with the bits of C
    pow: numpy's array power can differ from it in the last bit, so it only
    picks each row's candidates for the largest power, which pow recomputes."""
    ck = np.abs(c[:, 1:]) / np.abs(c[:, :1])
    exps = 1.0 / np.arange(1, c.shape[1])
    near = np.power(ck, exps)
    at, col = np.nonzero(near >= near.max(axis=1, keepdims=True) * (1.0 - 16.0 * _EPS))
    # the others lie further below the largest than pow can move it
    near[at, col] = [pow(a, e) for a, e in zip(ck[at, col].tolist(), exps[col].tolist())]
    return 2.0 * near.max(axis=1) + 1.0


def _polish_simple(c: list[float], dc: list[float], lo: float, hi: float, x: float | None = None,
                   move: float = 0.0, neg: bool = False) -> float:
    """The root of c in the bracket (lo, hi) by safeguarded Newton (rtsafe,
    Numerical Recipes 9.4), from the midpoint, or resumed at the iterate x
    after a move of move, neg telling c's sign at lo.  Each value c(x) moves
    to x the end of the bracket where c has its sign.  A Newton step is
    taken when it lands strictly inside the bracket and is at most half the
    previous move, the midpoint otherwise.  Stops at c(x) = 0, at a Newton
    step of at most 2 eps max(1, |x|), or when no float lies strictly
    between lo and hi."""
    c0, c1, dc0, dc1 = c[0], c[1:], dc[0], dc[1:]

    def horner(out, rest, x):  # _horner on floats, without its dispatch
        for coef in rest:
            out = out * x + coef
        return out

    if x is None:
        neg = horner(c0, c1, lo) < 0.0  # c's sign at lo
        x, move = 0.5 * (lo + hi), hi - lo
    while True:
        fx = horner(c0, c1, x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg:
            lo = x
        else:
            hi = x
        dfx = horner(dc0, dc1, x)
        step = fx / dfx if dfx else math.inf
        x_new = x - step
        if abs(step) <= 2.0 * _EPS * max(1.0, abs(x)):
            return x_new
        if not (lo < x_new < hi and abs(step) <= 0.5 * abs(move)):
            x_new = 0.5 * (lo + hi)
            if x_new <= lo or x_new >= hi:
                return x
        move, x = x_new - x, x_new


def _polish_brackets(c: np.ndarray, dc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The simple root in each bracket (lo[b], hi[b]) of the polynomial c[b]
    with derivative dc[b]: _polish_simple's steps on arrays while
    _ARRAY_BRACKETS or more brackets are live, each bracket leaving the block
    where the float loop returns, and the float loop, resumed from each
    bracket's state, for the rest.  Both run the same float operations in
    the same order, so each result has the bits of the float loop alone."""
    if lo.size < _ARRAY_BRACKETS:
        return np.array([_polish_simple(*b) for b in zip(c.tolist(), dc.tolist(), lo.tolist(), hi.tolist())],
                        dtype=float)

    def horner(p, x):
        out = p[:, 0]
        for j in range(1, p.shape[1]):
            out = out * x + p[:, j]
        return out

    with np.errstate(all="ignore"):
        neg = horner(c, lo) < 0.0
        x, move = 0.5 * (lo + hi), hi - lo
        out, live = np.empty_like(x), np.arange(x.size)
        while live.size >= _ARRAY_BRACKETS:
            fx = horner(c, x)
            root = fx == 0.0
            side = (fx < 0.0) == neg
            lo, hi = np.where(side, x, lo), np.where(side, hi, x)
            step = fx / horner(dc, x)  # x/0 fails the tests below, as inf does on floats
            x_new, size = x - step, np.abs(step)
            small = size <= 2.0 * _EPS * np.fmax(1.0, np.abs(x))
            newton = (lo < x_new) & (x_new < hi) & (size <= 0.5 * np.abs(move))
            mid = 0.5 * (lo + hi)
            flat = ~(small | newton) & ((mid <= lo) | (mid >= hi))
            out[live] = np.where(root | flat, x, x_new)
            x_new = np.where(newton, x_new, mid)
            move, x = x_new - x, x_new
            go = ~(root | small | flat)
            if not go.all():  # while no bracket leaves, the arrays stay as they are
                live, c, dc, lo, hi, x, move, neg = (
                    live[go], c[go], dc[go], lo[go], hi[go], x[go], move[go], neg[go])
    out[live] = [_polish_simple(*state) for state in zip(
        c.tolist(), dc.tolist(), lo.tolist(), hi.tolist(), x.tolist(), move.tolist(), neg.tolist())]
    return out


def _polish_mult_root(c: np.ndarray, x: np.ndarray, mult: int) -> np.ndarray:
    """Best float estimate of an m-fold root of each row of c near x[k]:
    the simple root of the row's (m-1)-th derivative, by Newton from x[k].
    An m-fold root is ill-conditioned in c itself (cluster radius
    ~ eps^(1/m)); the derivative root is its centroid and moves only
    linearly with coefficient perturbations.  A row stops after 40 steps,
    at a value within twice its Horner noise bound (the step would be
    noise/noise), at a derivative that is 0 or not finite, before a wild
    step of more than 0.1 (1 + |x|) (x is not in this root's basin), or
    after a step of at most 1e-16 max(1, |x|).  Each row gets the bits of
    its own solve."""
    d = c
    for _ in range(mult - 1):
        d = d[:, :-1] * np.arange(d.shape[1] - 1, 0, -1)  # the rows' _deriv
    dd, ad, bound = d[:, :-1] * np.arange(d.shape[1] - 1, 0, -1), np.abs(d), 2.0 * d.shape[1] * _EPS
    x = np.array(x, dtype=float)
    live = np.arange(x.size)
    with np.errstate(all="ignore"):
        for _ in range(40):
            if not live.size:
                break
            at = x[live]
            ax = np.abs(at)
            fx, acc, dfx = d[:, 0], ad[:, 0], dd[:, 0]
            for j in range(1, d.shape[1]):  # _horner_rows, on one point per row
                fx, acc = fx * at + d[:, j], acc * ax + ad[:, j]
            for j in range(1, dd.shape[1]):
                dfx = dfx * at + dd[:, j]
            step = fx / dfx
            size = np.abs(step)
            go = ~((np.abs(fx) <= 2.0 * (bound * acc)) | (dfx == 0.0) | ~np.isfinite(dfx)
                   | (size > 0.1 * (1.0 + ax)))
            at = np.where(go, at - step, at)
            x[live] = at
            go &= size > 1e-16 * np.fmax(1.0, np.abs(at))
            if not go.all():
                live, d, ad, dd = live[go], d[go], ad[go], dd[go]
    return x


def _mean_sum(terms: list[np.ndarray]) -> np.ndarray:
    """The sum of the equal-length arrays terms, elementwise, in the order
    np.add.reduce sums a run of floats (numpy's pairwise summation): in turn
    below 8 terms, in 8 interleaved partial sums up to 128, by halves
    beyond."""
    n = len(terms)
    if n < 8:
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out
    if n <= 128:
        r = terms[:8]
        for i in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, terms[i:i + 8])]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[n - n % 8:]:
            out = out + t
        return out
    half = n // 2 - (n // 2) % 8
    return _mean_sum(terms[:half]) + _mean_sum(terms[half:])


def _collapse_clusters(values: np.ndarray, tol: float, c: np.ndarray) -> np.ndarray:
    """Each row of sorted root values with its clusters merged into
    repeated roots, c holding the rows' coefficients.  A cluster grows from
    its least root while the next one lies closer to it than
    tol^(1/size), size counting that root.

    The merged value starts from the cluster mean (np.mean's bits); the
    matching derivative root of the row's c (the cluster centroid, well
    conditioned) replaces the mean unless it leaves the cluster."""
    m, n = values.shape
    width = np.array([math.inf] + [tol ** (1.0 / size) for size in range(1, n + 1)])
    start = np.zeros((m, n), dtype=int)  # the column each root's cluster starts at
    rows = np.arange(m)
    for j in range(1, n):
        first = start[:, j - 1]
        joins = values[:, j] - values[rows, first] < width[j - first + 1]
        start[:, j] = np.where(joins, first, j)
    ends = np.ones((m, n), dtype=bool)
    ends[:, :-1] = start[:, 1:] != start[:, :-1]
    at, last = np.nonzero(ends)
    first = start[at, last]
    size = last - first + 1
    out = values.copy()
    for s in set(size[size > 1].tolist()):
        r, f = at[size == s], first[size == s]
        terms = [values[r, f + k] for k in range(s)]
        merged = (0.0 + _mean_sum(terms)) / s  # np.mean adds the sum to 0.0, then divides
        spread = terms[-1] - terms[0]
        move = spread > 0.0
        if move.any():
            polished = _polish_mult_root(c[r[move]], merged[move], s)
            near = np.abs(polished - merged[move]) <= spread[move] + width[s]
            merged[move] = np.where(near, polished, merged[move])
        out[r[:, None], f[:, None] + np.arange(s)] = merged[:, None]
    return out


def _taylor_shift(c: np.ndarray, mu) -> np.ndarray:
    """Coefficients of p(x + mu) by repeated synthetic division, for one
    row c and a float mu, or for a block of rows c and their mu."""
    b = c.copy()
    n = b.shape[-1]
    for i in range(1, n):
        for j in range(1, n - i + 1):
            b[..., j] += mu * b[..., j - 1]
    return b


def _promotion_violation(derivs: list[list[float]], scales, x: float, mult: int, tol: float) -> float:
    """How far x is from being a mult-fold root, in units of the tol-ball.

    Coefficient perturbations of size tol*scale(P) move P^(j) by about
    tol*scale_j, so a point within the tol-ball of an m-fold root has
    |P^(j)(x)| of that order for every j < m."""
    worst = 0.0
    for j in range(mult - 1):
        worst = max(worst, abs(_horner(derivs[j], x)) / (tol * scales[j]))
    return worst


def _expand(roots: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's roots, each as often as its multiplicity, padded with
    +inf, and their counts."""
    count = mult.sum(axis=1)
    out = np.full((roots.shape[0], int(count.max(initial=0))), np.inf)
    at = np.repeat(np.arange(roots.shape[0]), count)
    out[at, np.arange(at.size) - np.repeat(np.cumsum(count) - count, count)] = np.repeat(
        roots.ravel(), mult.ravel())
    return out, count


def _promote(pairs: list[tuple[float, int]], c: np.ndarray, tol: float, tol_eff: float,
             shift_noise: float) -> list[tuple[float, int]] | None:
    """The rebuilt roots (x, multiplicity) of the recentred c, its deficit
    filled: complex pairs within the tol-ball coalesce into higher
    multiplicities.  Candidate promotions are ranked by how cleanly the
    lower derivatives vanish at the witness point; None if one is out of
    the tol-ball."""
    n = _deg(c)
    total = sum(m for _, m in pairs)
    derivs = [c]
    for _ in range(n):
        derivs.append(_deriv(derivs[-1]))
    scales = [1.0 + float(np.max(np.abs(d))) for d in derivs]
    dfloats = [d.tolist() for d in derivs]
    crit, mult = _rebuild(derivs[1][None, :], np.array([tol_eff]), np.array([shift_noise * n]))
    crit = crit[0, mult[0] > 0].tolist()
    while total < n:
        best = None  # (violation, tiebreak, index-or-None, x, new_mult)
        for i, (r, m) in enumerate(pairs):
            if m + 2 > n:
                continue
            x = float(_polish_mult_root(c[None, :], [r], m + 2)[0])
            if abs(x - r) > 0.5 * (1.0 + abs(r)):
                continue  # Newton wandered off; not a local cluster
            viol = _promotion_violation(dfloats, scales, x, m + 2, tol_eff)
            cand = (viol, abs(x - r), i, x, m + 2)
            if best is None or cand[:2] < best[:2]:
                best = cand
        for x0 in crit:
            # a critical point inside an existing root's collapse radius
            # belongs to that cluster: let the promotion above absorb it
            if any(abs(x0 - r) < tol ** (1.0 / (m + 2)) for r, m in pairs):
                continue
            viol = _promotion_violation(dfloats, scales, x0, 2, tol_eff)
            cand = (viol, 0.0, None, x0, 2)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None or best[0] > 1.0:
            return None
        _, _, idx, x, new_m = best
        if idx is None:
            pairs.append((x, 2))
        else:
            pairs[idx] = (x, new_m)
        pairs.sort(key=lambda p: p[0])
        total += 2
    return pairs


def _rebuild(c: np.ndarray, tol: np.ndarray, noise_floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots with multiplicity of each row of c, rebuilt from
    critical-point interlacing.  c is a block of recentred monic
    polynomials: every row's leading coefficient is exact and nonzero, and
    the degree n is >= 1.  tol and noise_floor hold one value per row.

    Between consecutive real critical points (and beyond the outermost ones,
    up to the Fujiwara bound) P is monotone, so a sign change there brackets
    exactly one simple root.  A critical value counts as zero, carrying a
    multiple root, only when it lies in the tol-ball and its sign is not
    reliable: within max(twice the Horner noise bound, floor), the test the
    certificate of roots_batch applies.  A run of zero values is one cluster
    whose multiplicity is the run length plus one (a k-fold critical point
    counts k times), raised by one when that disagrees with the parity of
    the signs around the run.  Every reliable sign is honoured, so a near
    pair splits into two simple roots and _collapse_clusters applies the
    width rule afterwards.  Missing real roots (complex pairs) are left to
    the caller.  The critical points are the roots of P', found the same
    way one degree down, so the rebuild runs from degree 1 up, one level of
    all rows at a time.  noise_floor is the absolute uncertainty of
    evaluated values inherited from upstream coefficient rounding (e.g. the
    recentering shift); differentiation amplifies it by at most the degree.

    Returns (roots, mult): per row the roots in ascending order (ties in
    the order they were found) and their multiplicities, padded with +inf
    and 0."""
    m, n = c.shape[0], c.shape[1] - 1
    derivs = [c]
    for d in range(n, 1, -1):
        derivs.append(derivs[-1][:, :-1] * np.arange(d, 0, -1))  # _deriv of each row
    scales, floors = [], []
    for d, p in zip(range(n, 1, -1), derivs):
        scales.append(1.0 + np.max(np.abs(p), axis=1))
        floor = 4.0 * p.shape[1] * _EPS * scales[-1]
        floors.append(np.where(floor > noise_floor, floor, noise_floor))
        noise_floor = floors[-1] * d
    roots, mult = -derivs[-1][:, 1:] / derivs[-1][:, :1], np.ones((m, 1), dtype=int)
    for d in range(2, n + 1):
        p, dp, scale, floor = derivs[n - d], derivs[n - d + 1], scales[n - d], floors[n - d]
        crit, count = _expand(roots, mult) if (mult > 1).any() else (roots, mult.sum(axis=1))
        bound = _root_bounds(p) + 1.0
        last = count[:, None] + 1  # the upper anchor's column
        cols = np.arange(crit.shape[1] + 2)
        anchors = np.concatenate([-bound[:, None], crit, bound[:, None]], axis=1)
        anchors = np.where(cols < last, anchors, bound[:, None])
        vals, noise = _horner_rows(p, anchors)
        size, two, floor = np.abs(vals), 2.0 * noise, floor[:, None]
        zero = (size <= (tol * scale)[:, None]) & (size <= np.where(floor > two, floor, two))
        pos = vals > 0
        at, col = np.nonzero(~(zero[:, :-1] | zero[:, 1:]) & (pos[:, :-1] != pos[:, 1:]) & (cols[:-1] < last))
        x = _polish_brackets(p[at], dp[at], anchors[at, col], anchors[at, col + 1])
        # each run of zero values between the anchors is one cluster
        inner = zero & (cols >= 1) & (cols < last)
        rr, k = np.nonzero(inner[:, 1:] & ~inner[:, :-1])
        # in the order found: the simple roots left to right, then the runs'
        simple = np.bincount(at, minlength=m)
        width = int((simple + np.bincount(rr, minlength=m)).max(initial=0))
        roots, mult = np.full((m, width), np.inf), np.zeros((m, width), dtype=int)
        place = np.arange(at.size) - np.searchsorted(at, at)
        roots[at, place], mult[at, place] = x, 1
        if rr.size:
            k += 1  # each run's first column, j its last
            j = np.nonzero(inner[:, :-1] & ~inner[:, 1:])[1]
            run = j - k + 2
            run += (pos[rr, k - 1] != pos[rr, j + 1]) != (run % 2 == 1)
            run = np.minimum(run, d)
            xr = 0.5 * (anchors[rr, k] + anchors[rr, j])
            for fold in set(run.tolist()):
                sel = run == fold
                xr[sel] = _polish_mult_root(p[rr[sel]], xr[sel], fold)
            place = simple[rr] + np.arange(rr.size) - np.searchsorted(rr, rr)
            roots[rr, place], mult[rr, place] = xr, run
        if rr.size or (roots[:, 1:] < roots[:, :-1]).any():
            order = np.argsort(roots, axis=1, kind="stable")
            roots, mult = np.take_along_axis(roots, order, 1), np.take_along_axis(mult, order, 1)
    return roots, mult


def _quadratic_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted closed-form roots of each row's x^2 - a1 x + a2, and the mask
    of the rows with real roots.  The tolerance-ball rule applies: a
    negative discriminant within 4*tol*scale collapses to a double root
    (|P| at the vertex is |disc|/4, matching the promotion criterion), and
    two roots closer than tol^(1/2) merge at their mean, as in
    _collapse_clusters.  A row whose discriminant overflows is solved as
    x = s u, s the power of two at or below max(|a1|, |a2|^(1/2)): the
    discriminant of u's polynomial is the row's divided by s^2, exactly; the
    other rows take s = 1, which changes no bit."""
    width = tol ** (1.0 / 2)
    a1, a2 = rows[:, 0], rows[:, 1]
    s = 1.0
    with np.errstate(all="ignore"):
        disc = a1 * a1 - 4.0 * a2
        big = ~np.isfinite(disc)
        if big.any():
            s = np.where(big, np.ldexp(1.0, np.frexp(np.fmax(np.abs(a1), np.sqrt(np.abs(a2))))[1] - 1), 1.0)
            disc = (a1 / s) * (a1 / s) - 4.0 * (a2 / s / s)
        b1 = a1 / s
        sq = np.sqrt(disc)
        r1 = 0.5 * (b1 + np.where(b1 >= 0.0, sq, -sq)) * s
        r2 = a2 / r1
    double = disc <= 0.0
    vals = np.stack([np.minimum(r1, r2), np.maximum(r1, r2)], axis=1)
    merge = vals[:, 1] - vals[:, 0] < width
    vals[merge] = ((vals[merge, 0] + vals[merge, 1]) / 2.0)[:, None]
    vals[double] = 0.5 * a1[double, None]
    scale = 1.0 + np.maximum(np.abs(a1), np.abs(a2))
    return vals, (~double | (-disc <= 4.0 * tol * scale / s / s)) & ~np.isinf(r1)


def _roots_with_fallback(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row (not sorted), from the closed forms or the
    interlacing rebuild, and the mask of the rows found hyperbolic.  A row
    refused because its roots or its recentring overflow holds an inf."""
    m, n = rows.shape
    if n == 1:
        return rows.copy(), np.ones(m, dtype=bool)
    if n == 2:
        return _quadratic_roots(rows, tol)
    out, ok = np.full((m, n), np.nan), np.zeros(m, dtype=bool)
    c = np.ones((m, n + 1))
    c[:, 1:] = rows * (-1.0) ** np.arange(1, n + 1)
    zero = rows[:, -1] == 0.0
    if zero.any():
        # an exact root at 0: deflate it, as the centroid shift below would
        # blur it into rounding noise
        rest, ok[zero] = _roots_with_fallback(rows[zero, :-1], tol)
        out[zero] = np.sort(np.concatenate([rest, np.zeros((rest.shape[0], 1))], axis=1), axis=1)
    # Recenter at the root centroid: clusters far from the origin are badly
    # conditioned in the raw coefficients, and the centroid is exact in a1.
    # The tol-ball stays anchored to the ORIGINAL coefficient scale, so the
    # effective tolerance in the shifted frame compensates for the rescaling.
    keep = np.flatnonzero(~zero)
    mu = rows[keep, 0] / n
    scale = 1.0 + np.max(np.abs(rows[keep]), axis=1)
    with np.errstate(all="ignore"):
        c[keep] = _taylor_shift(c[keep], mu)
        # rounding inside the shift leaves absolute coefficient noise at the
        # original scale; evaluated values inherit it
        shift_noise = 4.0 * (n + 1) * _EPS * scale * np.fmax(1.0, np.abs(mu))
    top = np.max(np.abs(c[keep]), axis=1)
    # a row whose shift overflows is not rebuilt: its roots read +inf
    big = ~np.isfinite(top)
    if big.any():
        out[keep[big]] = np.inf
        keep, mu, scale, shift_noise, top = (x[~big] for x in (keep, mu, scale, shift_noise, top))
    tol_eff = tol * scale / (1.0 + top)
    if keep.size:
        roots, mult = _rebuild(c[keep], tol_eff, shift_noise)
        flat, total = _expand(roots, mult)
        vals, found = np.full((keep.size, n), np.nan), total == n
        if found.any():
            vals[found] = np.sort(flat[found, :n], axis=1)
        for i in np.flatnonzero(~found).tolist():
            pairs = [(x, k) for x, k in zip(roots[i].tolist(), mult[i].tolist()) if k]
            if total[i] < n and (n - total[i]) % 2 == 0:
                pairs = _promote(pairs, c[keep[i]], tol, float(tol_eff[i]), float(shift_noise[i]))
            if pairs is not None and sum(k for _, k in pairs) >= n:
                vals[i] = np.sort(np.concatenate([np.full(k, x) for x, k in pairs]))[:n]
                found[i] = True
        out[keep], ok[keep] = vals, found
    # only a gap narrower than tol^(1/2) starts a cluster; the deflated rows'
    # clusters collapse with their own coefficients, the others' recentred
    near = np.flatnonzero(ok)
    near = near[(np.diff(out[near], axis=1) < tol ** (1.0 / 2)).any(axis=1)]
    if near.size:
        out[near] = _collapse_clusters(out[near], tol, c[near])
    out[keep] += mu[:, None]
    return out, ok
