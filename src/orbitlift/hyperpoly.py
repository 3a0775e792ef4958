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

A block of more than _FLOAT_ROWS refused rows is rebuilt together, one
derivative level at a time.  This block form vectorizes the common rows;
the row form (_row_roots, one row at a time on Python floats) solves every
uncommon one: an exact root at 0, a recentring that overflows, a rebuild
short of n real roots.  The anchors of all rows are evaluated, with their
Horner noise bounds, as one array.  The brackets of all rows are polished
in one call: on arrays while _ARRAY_BRACKETS or more of them are live, then
on Python floats, each straggler resumed where the arrays left it.  The
runs of zero values of all rows are polished as multiple roots by one
Newton per multiplicity.  The cluster collapse then runs once over every
row with a near gap, its widths scanned column by column and its multiple
roots again polished by one Newton per cluster size.  A smaller block, such
as the one crossing row of a curve that the certificate refuses at a
collision, is solved in the row form whole, which spares it the block
kernels' fixed numpy costs per level.  The array and float forms of a
kernel run the same float operations in the same order, both forms sort as
np.sort does, and a cluster's mean is summed in np.mean's order, so a row
gets the same bits alone, in the row form or in a block of any size.

roots_batch does this work in one of two orders.  Certificate first, the
default, runs the eigensolve on every row and rebuilds the rows it refuses.
Proof first runs where the certificate would refuse most rows: a finite
block of degree >= 3 and at least _PROOF_ROWS rows (a sampled curve) whose
first, middle and last rows all show an eigenvalue gap of at most the
certificate's least gap.  There every row is rebuilt first.  A row whose
rebuilt roots prove, by Rouché's theorem at its narrowest pair, that P has
two roots closer than any certificate allows, or a complex pair, falls
back without the eigensolve, and only the other rows go through the
certificate.  Both orders give every row the same bits and every refused
block the same error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotFinite, NotHyperbolic, RootSolveFailed, RowError

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# roots_batch: Newton steps after the eigensolve, and the least certified
# adjacent gap in units of tol^(1/2), the narrowest width a cluster collapses
_BATCH_NEWTON = 3
_GAP_MARGIN = 2.0
# The bracket polish steps on numpy arrays while this many brackets or more
# are live, and hands the stragglers to the float loop.  An array step costs
# 30 numpy calls plus 4n - 2 for the Horner passes at degree n, however few
# brackets are left, and near a cluster the slowest bracket takes up to 68
# steps.  Timed on the 37,008 brackets (51 calls) of the select-clustered
# rounds of seeds 1-3 (2-core x86 Xeon host, numpy 2.4, best of 21), every
# handoff count from 16 to 256 polishes them in 30-36 ms; arrays to the last
# bracket take 36 ms and floats alone 299 ms.  The select and lift rounds of
# those seeds polish no block: their rebuilds run in the row form.
_ARRAY_BRACKETS = 64
# _uncertified_roots solves a block of degree >= 3 with at most this many rows
# one row at a time on Python floats (_row_roots).  On blocks of 1-12 rows of
# degree 3-8 that each hold a double root (2-core x86 host, best of 15), that
# takes 0.14-0.27 of the block kernels' time on 1 row, 0.81-0.96 on 8, 0.95-1.06 on 10.
_FLOAT_ROWS = 8
# roots_batch solves a finite block of degree >= 3 with at least this many
# rows proof first when the eigenvalues of its first, middle and last rows
# show a cluster.  On blocks of degree 3-6 that each hold a double root
# (2-core x86 host, best of 15), proof first takes 1.15-1.38 of the certificate-first
# time on 8 rows, 0.95-1.04 on 48, 0.93-1.01 on 64, 0.86-0.90 on 128 and
# 0.80-0.83 on 257; the probe adds 2-5 % to a separated block of 257 rows.
_PROOF_ROWS = 64


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


def _elementary(roots: list) -> list:
    """e_1..e_n of the roots, accumulated in the order given.  The roots may
    be floats or equal-length arrays, one root of every row each."""
    e = [1.0] + [0.0] * len(roots)
    k = 0
    for r in roots:
        k += 1
        j = k
        while j:  # j = k, ..., 1: no range object per root
            e[j] += r * e[j - 1]
            j -= 1
    return e[1:]


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
    The signs are evaluated only for the rows whose candidates are finite
    and pass the gap test; the others are refused without them.  The
    refused rows, and every row of degree <= 2, are solved together by the
    fallback: the closed forms, else the interlacing rebuild, which runs
    level by level over a block of more than _FLOAT_ROWS of them and one
    row at a time on Python floats over a smaller one, by the same float
    operations in the same order.  Each row's answer is the one it gets
    alone.  The first row refused raises, carrying its
    row index as `index`: NotFinite for a row that is not finite, else the
    fallback's NotHyperbolic, RootSolveFailed or NotFinite.

    That is the certificate-first order.  A finite block of degree >= 3
    with at least _PROOF_ROWS rows runs proof first when one eigensolve of
    its first, middle and last rows finds a gap of at most
    _GAP_MARGIN * tol^(1/2) in all three: every row is rebuilt, without
    raising; the rows that _refused_by_proof shows the certificate must
    refuse fall back at once; the others go through the certificate as
    above, and the first refused row that failed its rebuild raises.  The mask, every root and every
    error are those of the certificate-first order.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("rows must be an (N, n) array with n >= 1")
    finite = np.isfinite(rows).all(axis=1)
    if rows.shape[1] >= 3 and rows.shape[0] >= _PROOF_ROWS and finite.all() and _clustered_ends(rows, tol):
        return _proof_first(rows, tol)
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
    overflow.  A block of degree >= 3 and at most _FLOAT_ROWS rows is solved
    and checked one row at a time on Python floats (_row_roots), by the
    block's operations in the block's order, so it gets the same bits."""
    m, n = rows.shape
    if n >= 3 and m <= _FLOAT_ROWS:
        out = []
        for i, row in enumerate(rows.tolist()):
            vals, solved = _row_roots(row, tol)
            vals = _sorted(vals)
            miss = max(abs(ej - aj) for ej, aj in zip(_elementary(vals), row))  # max(), as in the block
            if not (solved and miss <= 10.0 * math.sqrt(tol) * (1.0 + max(map(abs, row)))):
                raise _refusal(i, n, tol, solved, any(map(math.isinf, vals)), miss)
            out.append(vals)
        return np.array(out)
    vals, failed, refusal = _checked_roots(rows, tol)
    if failed.any():
        raise refusal(int(np.argmax(failed)))
    return vals


def _checked_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, Callable[[int], RowError]]:
    """The block form of _uncertified_roots without raising: the sorted
    roots of every row, the mask of the rows that fail, and the error of a
    failing row given its index in the block."""
    n = rows.shape[1]
    vals, solved = _roots_with_fallback(rows, tol)
    failed, miss = ~solved, None
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
    return vals, failed, lambda i: _refusal(i, n, tol, solved[i], np.isinf(vals[i]).any(),
                                            miss[i] if solved[i] else None)


def _refusal(index: int, n: int, tol: float, solved: bool, overflow: bool, miss) -> RowError:
    """The error of a failing row of _uncertified_roots."""
    if not solved and overflow:
        exc = NotFinite(f"the roots, or the recentred polynomial, overflow (degree {n})")
    elif not solved:
        exc = NotHyperbolic(f"certified complex root pair (degree {n}, tol {tol:g})")
    else:
        exc = RootSolveFailed(f"roots fail the backward check: they miss the coefficients"
                              f" by {miss:.3g} (degree {n}, tol {tol:g})")
    exc.index = index
    return exc


# -- certified roots: one stacked eigensolve, checked by sign alternation ----

def _horner_rows(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the polynomials c[i] (descending) at the points x[i, :],
    and their Horner rounding-noise bounds: 2 (deg + 1) eps times the
    polynomial |c[i]| at |x|."""
    return _horner_values(c, x), 2.0 * c.shape[1] * _EPS * _horner_values(np.abs(c), np.abs(x))


def _horner_values(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The values of _horner_rows alone, by the same operations."""
    out = np.repeat(c[:, :1], x.shape[1], axis=1)
    for j in range(1, c.shape[1]):
        out = out * x + c[:, j : j + 1]
    return out


def _certified_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sorted roots of each row (degree n >= 3, finite) and the
    mask of the rows whose candidates carry the certificate described in
    roots_batch.  The Newton steps need only values, and the signs are
    evaluated only for the rows that pass the finite and gap tests."""
    m, n = rows.shape
    c = _descending(rows)
    with np.errstate(all="ignore"):
        dc = c[:, :-1] * np.arange(n, 0, -1)
        x = _eigenvalues(c)
        # a Newton step counts only where it lowers |P|: within the Horner
        # noise a full step can move a root away
        fx = _horner_values(c, x)
        for _ in range(_BATCH_NEWTON):
            x_new = x - fx / _horner_values(dc, x)
            f_new = _horner_values(c, x_new)
            better = np.abs(f_new) < np.abs(fx)
            x, fx = np.where(better, x_new, x), np.where(better, f_new, fx)
        x.sort(axis=1)
        good = np.isfinite(x).all(axis=1) & (np.diff(x, axis=1) > _GAP_MARGIN * math.sqrt(tol)).all(axis=1)
        xs, cs = x[good], c[good]
        d = 1e-9 * np.maximum(1.0, np.abs(xs))
        span = 1.0 + (xs[:, -1:] - xs[:, :1])
        probes = np.concatenate([xs[:, :1] - span, 0.5 * (xs[:, :-1] + xs[:, 1:]), xs[:, -1:] + span], axis=1)
        val, noise = _horner_rows(cs, np.concatenate([probes, xs - d, xs + d], axis=1))
        sign = (-1.0) ** (n - np.arange(n + 1))  # P's sign between roots k-1 and k
        clear = val * np.concatenate([sign, sign[:-1], sign[1:]]) > 2.0 * noise
        good[good] = clear.all(axis=1) & (probes[:, :-1] < xs - d).all(axis=1) & (xs + d < probes[:, 1:]).all(axis=1)
    return x, good


def _descending(rows: np.ndarray) -> np.ndarray:
    """The descending power-basis coefficients [1, -a1, +a2, ...] of each row."""
    c = np.ones((rows.shape[0], rows.shape[1] + 1))
    c[:, 1:] = rows * (-1.0) ** np.arange(1, rows.shape[1] + 1)
    return c


def _eigenvalues(c: np.ndarray) -> np.ndarray:
    """The sorted real parts of the eigenvalues of each row's companion
    matrix, by one stacked eigensolve."""
    m, n = c.shape[0], c.shape[1] - 1
    comp = np.zeros((m, n, n))
    comp[:, 0, :] = -c[:, 1:]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.sort(np.linalg.eigvals(comp).real, axis=1)


# -- proof first: refuse the clustered rows of a block before the eigensolve --

def _clustered_ends(rows: np.ndarray, tol: float) -> bool:
    """Whether the eigenvalues of the first, the middle and the last row all
    show a gap of at most _GAP_MARGIN tol^(1/2), by one eigensolve of the
    three."""
    with np.errstate(all="ignore"):
        gaps = np.diff(_eigenvalues(_descending(rows[[0, len(rows) // 2, -1]])), axis=1)
    return bool((gaps <= _GAP_MARGIN * math.sqrt(tol)).any(axis=1).all())


def _proof_first(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """roots_batch on a finite block of degree >= 3, proof first: every row
    is rebuilt, the rows whose rebuilt roots prove that the certificate
    refuses them fall back without the eigensolve, and only the others go
    through the certificate.  Each row gets the bits, and a refused row the
    error, that the certificate-first order gives it."""
    with np.errstate(all="ignore"):
        values, failed, refusal = _checked_roots(rows, tol)
    todo = np.flatnonzero(~_refused_by_proof(rows, values, tol))
    fell_back = np.ones(rows.shape[0], dtype=bool)
    if todo.size:  # no certificate pass when the proof refuses every row
        x, good = _certified_roots(rows[todo], tol)
        certified = todo[good]
        values[certified] = x[good]
        fell_back[certified] = False
    if (fell_back & failed).any():
        raise refusal(int(np.argmax(fell_back & failed)))
    return values, fell_back


def _refused_by_proof(rows: np.ndarray, values: np.ndarray, tol: float) -> np.ndarray:
    """The mask of the rows that the certificate provably refuses, given
    their sorted rebuilt roots (any finite values will do: they only pick
    the point the proof is made at).

    Let mu be the midpoint of a row's narrowest adjacent pair of values,
    b_j the Taylor coefficients of P at mu (_taylor_shift), each within
    4 (n+1) eps B_j of its exact value, B_j the same shift of |P|'s
    coefficients at |mu|, G = _GAP_MARGIN tol^(1/2) and
    d = 1e-9 max(1, |mu| + n G + 1), which bounds the certificate's
    enclosure half-width of any root near mu.  If for some k >= 2 and
    rho = (k-1)/2 (G - 2d)(1 - 1e-6)
        (|b_k| - noise_k) rho^k > (1 + 1e-9) sum_(j != k) (|b_j| + noise_j) rho^j,
    then on the circle |x - mu| = rho the term b_k (x - mu)^k outweighs
    the rest, and by Rouché's theorem P has k roots within rho of mu.  If they
    are all real, two of them lie less than G - 2d apart, so no two
    candidates within d of them can be G apart, as a certificate needs; if
    one is not real, P cannot make the n sign changes the certificate
    needs.  The margins 1e-6 and 1e-9 cover the rounding of the test
    itself; a row is not tested where G - 2d is not positive or rho^n is
    not a normal float."""
    m, n = rows.shape
    gap = _GAP_MARGIN * math.sqrt(tol)
    c = _descending(rows)
    proven = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        at = np.argmin(np.diff(values, axis=1), axis=1)
        mid = 0.5 * (values[np.arange(m), at] + values[np.arange(m), at + 1])
        # |b_n| .. |b_0|, each an array over the rows
        b = np.abs(np.array(_taylor_shift(list(c.T), mid)))
        noise = 4.0 * (n + 1) * _EPS * np.array(_taylor_shift(list(np.abs(c).T), np.abs(mid)))
        width = (gap - 2.0 * 1e-9 * np.fmax(1.0, np.abs(mid) + n * gap + 1.0)) * (1.0 - 1e-6)
        high, low = b + noise, b - noise
        powers = np.arange(n, -1, -1)[:, None]
        for k in range(2, n + 1):
            terms = high * (0.5 * (k - 1) * width) ** powers
            rest = np.concatenate([terms[: n - k], terms[n - k + 1 :]]).sum(axis=0)
            proven |= low[n - k] * (0.5 * (k - 1) * width) ** k > (1.0 + 1e-9) * rest
        proven &= (width > 0.0) & ((0.5 * width) ** n >= _TINY)
    return proven & np.isfinite(values).all(axis=1)


# -- dense polynomial helpers (descending coefficients, c[0] = leading) -----

def _horner(c: list[float], x: float) -> float:
    """c(x) on Python floats, by the operations of _horner_values."""
    out = c[0]
    for coef in c[1:]:
        out = out * x + coef
    return out


def _deriv(c):
    """The derivative of c: a float list, or an array holding one row's
    coefficients along its last axis."""
    if isinstance(c, list):
        return [a * k for a, k in zip(c, range(len(c) - 1, 0, -1))]
    return c[..., :-1] * np.arange(c.shape[-1] - 1, 0, -1)


def _root_bounds(c: np.ndarray) -> np.ndarray:
    """Fujiwara upper bound on |roots| of each row of c, with the bits of C
    pow: numpy's array power can differ from it in the last bit, so it only
    picks each row's candidates for the largest power, which pow recomputes."""
    ck = np.abs(c[:, 1:]) / np.abs(c[:, :1])
    exps = 1.0 / np.arange(1, c.shape[1])
    near = np.power(ck, exps)
    at, col = np.nonzero(near >= near.max(axis=1, keepdims=True) * (1.0 - 16.0 * _EPS))
    # the others lie further below the largest than pow can move it
    near[at, col] = list(map(pow, ck[at, col].tolist(), exps[col].tolist()))
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

    def horner(out, rest, x):  # _horner, with c's head and tail split once
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
    of degree >= 2 with derivative dc[b]: _polish_simple's steps on arrays of
    coefficient columns while _ARRAY_BRACKETS or more brackets are live, then
    the float loop, resumed from each live bracket's state (its starting
    state when fewer come in).  A bracket's result is written where the float
    loop returns, and its slot steps on, unread, until a quarter of the slots
    have stopped or fewer than _ARRAY_BRACKETS brackets are live.  Both run
    the same float operations in the same order, so each result has the bits
    of the float loop alone."""
    def horner(cols, x):  # out * x + col, in place after the first product
        out = cols[0] * x + cols[1]
        for col in cols[2:]:
            out *= x
            out += col
        return out

    out = np.empty(lo.size)
    with np.errstate(all="ignore"):
        ct, dct = c.T.copy(), dc.T.copy()
        cols, dcols, at, alive = list(ct), list(dct), np.arange(lo.size), np.ones(lo.size, dtype=bool)
        neg = horner(cols, lo) < 0.0
        x, move, live = 0.5 * (lo + hi), hi - lo, lo.size
        while live >= _ARRAY_BRACKETS:
            fx = horner(cols, x)
            root = fx == 0.0
            side = (fx < 0.0) == neg
            lo, hi = np.where(side, x, lo), np.where(side, hi, x)
            step = fx / horner(dcols, x)  # x/0 fails the tests below, as inf does on floats
            x_new, size = x - step, np.abs(step)
            small = size <= 2.0 * _EPS * np.fmax(1.0, np.abs(x))
            newton = (lo < x_new) & (x_new < hi) & (size <= 0.5 * np.abs(move))
            # a midpoint stops the bracket when no float lies between lo and hi
            x_next = np.where(newton, x_new, 0.5 * (lo + hi))
            stop = (root | small | (x_next <= lo) | (x_next >= hi)) & alive
            stopped = np.count_nonzero(stop)
            if stopped:
                out[at[stop]] = np.where(small & ~root, x_new, x)[stop]
                alive, live = alive & ~stop, live - stopped
            move, x = x_next - x, x_next
            if stopped and (4 * (x.size - live) >= x.size or live < _ARRAY_BRACKETS):
                at, ct, dct, lo, hi, x, move, neg = (
                    at[alive], ct[:, alive], dct[:, alive], lo[alive], hi[alive], x[alive], move[alive], neg[alive])
                cols, dcols, alive = list(ct), list(dct), np.ones(live, dtype=bool)
    out[at] = [_polish_simple(*state) for state in zip(
        ct.T.tolist(), dct.T.tolist(), lo.tolist(), hi.tolist(), x.tolist(), move.tolist(), neg.tolist())]
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
        d = _deriv(d)
    dd, ad, bound = _deriv(d), np.abs(d), 2.0 * d.shape[1] * _EPS
    x = np.array(x, dtype=float)
    # a stopped row's steps are masked, so it keeps its result, until the
    # stopped rows are a quarter of the arrays and leave them
    at, live, alive = x.copy(), np.arange(x.size), np.ones(x.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(40):
            if not live.size:
                break
            ax = np.abs(at)
            fx, acc, dfx = d[:, 0], ad[:, 0], dd[:, 0]
            for j in range(1, d.shape[1]):  # _horner_rows, on one point per row
                fx, acc = fx * at + d[:, j], acc * ax + ad[:, j]
            for j in range(1, dd.shape[1]):
                dfx = dfx * at + dd[:, j]
            step = fx / dfx
            size = np.abs(step)
            go = alive & ~((np.abs(fx) <= 2.0 * (bound * acc)) | (dfx == 0.0) | ~np.isfinite(dfx)
                           | (size > 0.1 * (1.0 + ax)))
            at = np.where(go, at - step, at)
            alive = go & (size > 1e-16 * np.fmax(1.0, np.abs(at)))
            if 4 * np.count_nonzero(alive) <= 3 * alive.size:
                x[live] = at
                live, at, d, ad, dd, alive = live[alive], at[alive], d[alive], ad[alive], dd[alive], alive[alive]
    x[live] = at
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


def _taylor_shift(c, mu) -> list:
    """Coefficients of p(x + mu) by repeated synthetic division.  Each item
    of c is one coefficient: a float, with mu a float, or an array of one
    coefficient of every row, with mu holding the rows' shifts."""
    b = list(c)
    n = len(b)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            b[j] = b[j] + mu * b[j - 1]
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


def _promote(pairs: list[tuple[float, int]], c: list[float], tol: float, tol_eff: float,
             shift_noise: float) -> list[tuple[float, int]] | None:
    """The rebuilt roots (x, multiplicity) of the recentred c, its deficit
    filled: complex pairs within the tol-ball coalesce into higher
    multiplicities.  Candidate promotions are ranked by how cleanly the
    lower derivatives vanish at the witness point; None if one is out of
    the tol-ball."""
    n = len(c) - 1
    total = sum(m for _, m in pairs)
    derivs = [c]
    for _ in range(n):
        derivs.append(_deriv(derivs[-1]))
    scales = [1.0 + max(map(abs, d)) for d in derivs]
    crit = [x for x, _ in _row_rebuild(derivs[1], tol_eff, shift_noise * n)]
    while total < n:
        best = None  # (violation, tiebreak, index-or-None, x, new_mult)
        for i, (r, m) in enumerate(pairs):
            if m + 2 > n:
                continue
            x = _row_polish_mult_root(c, r, m + 2)
            if abs(x - r) > 0.5 * (1.0 + abs(r)):
                continue  # Newton wandered off; not a local cluster
            viol = _promotion_violation(derivs, scales, x, m + 2, tol_eff)
            cand = (viol, abs(x - r), i, x, m + 2)
            if best is None or cand[:2] < best[:2]:
                best = cand
        for x0 in crit:
            # a critical point inside an existing root's collapse radius
            # belongs to that cluster: let the promotion above absorb it
            if any(abs(x0 - r) < tol ** (1.0 / (m + 2)) for r, m in pairs):
                continue
            viol = _promotion_violation(derivs, scales, x0, 2, tol_eff)
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
    for _ in range(n - 1):
        derivs.append(_deriv(derivs[-1]))
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
        full = bool((count == d - 1).all())  # every row has d - 1 critical points: no anchor to mask
        last = count[:, None] + 1  # the upper anchor's column
        cols = np.arange(crit.shape[1] + 2)
        anchors = np.concatenate([-bound[:, None], crit, bound[:, None]], axis=1)
        if not full:
            anchors = np.where(cols < last, anchors, bound[:, None])
        vals, noise = _horner_rows(p, anchors)
        size, two, floor = np.abs(vals), 2.0 * noise, floor[:, None]
        zero = (size <= (tol * scale)[:, None]) & (size <= np.where(floor > two, floor, two))
        pos = vals > 0
        change, runs = pos[:, :-1] != pos[:, 1:], not full or zero.any()
        if runs:  # else no value is zero and every row has d + 1 anchors
            change &= ~(zero[:, :-1] | zero[:, 1:]) & (cols[:-1] < last)
        at, col = np.nonzero(change)
        x = _polish_brackets(p[at], dp[at], anchors[at, col], anchors[at, col + 1])
        if not runs and at.size == m * d:  # d simple roots in every row
            roots, mult, rr = x.reshape(m, d), np.ones((m, d), dtype=int), ()
        else:
            # each run of zero values between the anchors is one cluster
            inner = zero & (cols >= 1) & (cols < last)
            rr, k = np.nonzero(inner[:, 1:] & ~inner[:, :-1])
            # in the order found: the simple roots left to right, then the runs'
            simple = np.bincount(at, minlength=m)
            width = int((simple + np.bincount(rr, minlength=m)).max(initial=0))
            roots, mult = np.full((m, width), np.inf), np.zeros((m, width), dtype=int)
            place = np.arange(at.size) - np.searchsorted(at, at)
            roots[at, place], mult[at, place] = x, 1
        if len(rr):
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
        if len(rr) or (roots[:, 1:] < roots[:, :-1]).any():
            order = np.argsort(roots, axis=1, kind="stable")
            roots, mult = roots[np.arange(m)[:, None], order], mult[np.arange(m)[:, None], order]
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
    refused because its roots or its recentring overflow holds an inf.

    The block form vectorizes the common rows, those whose recentring stays
    finite and whose rebuild finds exactly n real roots.  Every other row
    gets what the row form (_row_roots) gives it: an exact root at 0, a
    recentring that overflows, a rebuild short of n real roots (the tol-ball
    promotion) or past them."""
    m, n = rows.shape
    if n == 1:
        return rows.copy(), np.ones(m, dtype=bool)
    if n == 2:
        return _quadratic_roots(rows, tol)
    # Recenter at the root centroid: clusters far from the origin are badly
    # conditioned in the raw coefficients, and the centroid is exact in a1.
    # The tol-ball stays anchored to the ORIGINAL coefficient scale, so the
    # effective tolerance in the shifted frame compensates for the rescaling.
    mu = rows[:, 0] / n
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    out, ok = np.empty((m, n)), np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        c = np.array(_taylor_shift(_descending(rows).T, mu)).T
        # rounding inside the shift leaves absolute coefficient noise at the
        # original scale; evaluated values inherit it
        shift_noise = 4.0 * (n + 1) * _EPS * scale * np.fmax(1.0, np.abs(mu))
        top = np.max(np.abs(c), axis=1)
        tol_eff = tol * scale / (1.0 + top)
        # an exact root at 0 would blur into the shift's rounding noise
        keep = np.flatnonzero((rows[:, -1] != 0.0) & np.isfinite(top))
        roots, mult = _rebuild(c[keep], tol_eff[keep], shift_noise[keep])
        flat, total = _expand(roots, mult)
        keep, vals = keep[total == n], np.sort(flat[total == n, :n], axis=1).reshape(-1, n)
        # only a gap narrower than tol^(1/2) starts a cluster
        near = (np.diff(vals, axis=1) < tol ** (1.0 / 2)).any(axis=1)
        if near.any():
            vals[near] = _collapse_clusters(vals[near], tol, c[keep[near]])
        out[keep], ok[keep] = vals + mu[keep, None], True
    for i in np.flatnonzero(~ok).tolist():
        out[i], ok[i] = _row_roots(rows[i].tolist(), tol)
    return out, ok


# -- the row form: a few refused rows, or the uncommon rows of a block, one at
# a time on Python floats ----------------------------------------------------
#
# Each function runs its block kernel's float operations in the same order on
# one row, so a row gets the same bits in either form.  Where numpy returns
# inf or nan, Python float arithmetic raises only on a zero divisor, which
# every division below excludes as its block kernel does, and on a pow that
# overflows, which a root of a float cannot.

def _sorted(values: list[float]) -> list[float]:
    """The floats sorted as np.sort sorts them: NaNs last."""
    if math.isnan(sum(values)):  # a NaN, or inf - inf
        return sorted([x for x in values if x == x]) + [x for x in values if x != x]
    return sorted(values)


def _row_roots(row: list[float], tol: float) -> tuple[list[float], bool]:
    """_roots_with_fallback on one row of degree n >= 3: its roots and
    whether it was found hyperbolic.  It alone decides what an uncommon row
    gets: an exact root at 0 is deflated, a recentring that overflows reads
    +inf, and a rebuild short of n real roots is promoted in the tol-ball."""
    n = len(row)
    c = [1.0] + [a if j % 2 else -a for j, a in enumerate(row)]
    if row[-1] == 0.0:
        if n == 3:
            rest, ok = _quadratic_roots(np.array([row[:-1]]), tol)
            rest, ok = rest[0].tolist(), bool(ok[0])
        else:
            rest, ok = _row_roots(row[:-1], tol)
        out = _sorted(rest + [0.0])
        # the collapse leaves a row without a gap narrower than tol^(1/2) as it is
        return (_row_collapse_clusters(out, tol, c) if ok else out), ok
    mu = row[0] / n
    scale = 1.0 + max(map(abs, row))
    c = _taylor_shift(c, mu)
    shift_noise = 4.0 * (n + 1) * _EPS * scale * max(1.0, abs(mu))
    if not all(map(math.isfinite, c)):
        return [math.inf] * n, False
    tol_eff = tol * scale / (1.0 + max(map(abs, c)))
    pairs = _row_rebuild(c, tol_eff, shift_noise)
    total = sum(k for _, k in pairs)
    if total < n and (n - total) % 2 == 0:
        pairs = _promote(pairs, c, tol, tol_eff, shift_noise)
    if pairs is None or sum(k for _, k in pairs) < n:
        return [math.nan] * n, False
    out = _row_collapse_clusters(_sorted([x for x, k in pairs for _ in range(k)])[:n], tol, c)
    return [x + mu for x in out], True


def _row_rebuild(c: list[float], tol: float, noise_floor: float) -> list[tuple[float, int]]:
    """_rebuild on one row: its roots and their multiplicities, as pairs."""
    n = len(c) - 1
    derivs = [c]
    for _ in range(n - 1):
        derivs.append(_deriv(derivs[-1]))
    scales, floors = [], []
    for d, p in zip(range(n, 1, -1), derivs):
        scales.append(1.0 + max(map(abs, p)))
        floor = 4.0 * len(p) * _EPS * scales[-1]
        floors.append(floor if floor > noise_floor else noise_floor)
        noise_floor = floors[-1] * d
    pairs = [(-derivs[-1][1] / derivs[-1][0], 1)]
    for d in range(2, n + 1):
        p, dp, scale, floor = derivs[n - d], derivs[n - d + 1], scales[n - d], floors[n - d]
        bound = _row_root_bound(p) + 1.0
        anchors = [-bound] + [x for x, k in pairs for _ in range(k)] + [bound]
        vals = [_horner(p, x) for x in anchors]
        absp, lim = [abs(a) for a in p], 2.0 * len(p) * _EPS
        zero = []
        for x, v in zip(anchors, vals):
            two = 2.0 * (lim * _horner(absp, abs(x)))
            zero.append(abs(v) <= tol * scale and abs(v) <= (floor if floor > two else two))
        pos = [v > 0 for v in vals]
        pairs = [(_polish_simple(p, dp, anchors[k], anchors[k + 1]), 1) for k in range(len(anchors) - 1)
                 if not (zero[k] or zero[k + 1]) and pos[k] != pos[k + 1]]
        # each run of zero values between the anchors, columns k to end - 1, is one cluster
        simple, end = len(pairs), 1
        for is_zero, cols in itertools.groupby(zero[1:-1]):
            k, end = end, end + len(list(cols))
            if is_zero:
                run = end - k + 1
                run = min(run + ((pos[k - 1] != pos[end]) != (run % 2 == 1)), d)
                pairs.append((_row_polish_mult_root(p, 0.5 * (anchors[k] + anchors[end - 1]), run), run))
        if len(pairs) > simple or any(b[0] < a[0] for a, b in zip(pairs, pairs[1:])):
            pairs.sort(key=lambda pair: (pair[0] != pair[0], pair[0]))
    return pairs


def _row_root_bound(p: list[float]) -> float:
    """_root_bounds of one row: C pow of every term gives the largest the
    block finds, since pow and np.power differ by less than its margin."""
    return 2.0 * max(pow(abs(a) / abs(p[0]), 1.0 / k) for k, a in enumerate(p[1:], 1)) + 1.0


def _row_polish_mult_root(c: list[float], x: float, mult: int) -> float:
    """_polish_mult_root on one row, from the float x."""
    d = c
    for _ in range(mult - 1):
        d = _deriv(d)
    dd, ad, bound = _deriv(d), [abs(a) for a in d], 2.0 * len(d) * _EPS
    for _ in range(40):
        ax = abs(x)
        fx, acc, dfx = _horner(d, x), _horner(ad, ax), _horner(dd, x)
        if abs(fx) <= 2.0 * (bound * acc) or dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        if abs(step) > 0.1 * (1.0 + ax):
            break
        x -= step
        if not abs(step) > 1e-16 * max(1.0, abs(x)):
            break
    return x


def _row_collapse_clusters(values: list[float], tol: float, c: list[float]) -> list[float]:
    """_collapse_clusters on one row of sorted values."""
    out, i = values[:], 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[i] < tol ** (1.0 / (j - i + 1)):
            j += 1
        size, terms = j - i, values[i:j]
        if size > 1:
            merged = (0.0 + _mean_sum(terms)) / size
            spread = terms[-1] - terms[0]
            if spread > 0.0:
                polished = _row_polish_mult_root(c, merged, size)
                if abs(polished - merged) <= spread + tol ** (1.0 / size):
                    merged = polished
            out[i:j] = [merged] * size
        i = j
    return out
