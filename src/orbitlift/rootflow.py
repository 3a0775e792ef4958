"""Continuous and differentiable root-branch selections along a curve.

The sorted selection is the pointwise nondecreasing labelling of the roots;
it is continuous but kinks where branches cross.  The differentiable
selection re-pairs branch labels across each collision cluster so that
one-sided slopes match: the label bijection minimizes the total slope jump
(curvature and then lexicographic tie-breaks), and `windows.resolve_window`
refines the cluster until that pairing is stable.  No cluster's pairing
depends on another's, so all of them refine in lockstep
(`windows.resolve_windows`) before the pairings apply in order.  A cluster
is its range of sample indices and its sorted branches, and a pairing is a
`windows.Choice` keyed by its permutation.  Clusters left unresolved keep sorted labels
inside the window and are flagged by their end times.

The slope jump |l_i - r_j| is convex in l_i - r_j, so once rows and columns
are sorted the cost matrix is Monge (Hoffman 1963): pairing by rank is
optimal for any number of branches.  Bubble-sorting any other pairing
reaches the rank order by adjacent swaps, none of which raises the cost, so
the runner-up is one adjacent swap away and the tie margin has a closed form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import hyperpoly
from .curvedsl import CoeffCurve, Grid
from .windows import (
    _EPS_FACTOR, _SIDE_WINDOW, _TIE_TOL, Choice, fit_side, resolve_window, resolve_windows, risky_run, solved_at,
)

_TIE_ENUM_LIMIT = 8   # ties among more branches are flagged, not enumerated


@dataclass(frozen=True)
class RootBranches:
    grid: Grid
    branches: np.ndarray  # (n, N); row j is branch j sampled over the grid
    swap_log: tuple[tuple[int, tuple[int, ...]], ...] = ()
    unresolved: tuple[tuple[float, float], ...] = ()

    @property
    def n(self) -> int:
        return self.branches.shape[0]


def _sorted_matrix(rows: np.ndarray, tol: float) -> np.ndarray:
    """Sorted roots of the rows, one column each."""
    return np.ascontiguousarray(hyperpoly.roots_batch(rows, tol)[0].T)


def collision_clusters(vals: np.ndarray, eps: float) -> list[tuple[int, int, tuple[int, ...]]]:
    """Clusters of near-colliding adjacent branches (gap < eps) among the
    sorted branches vals (n, N), each as (i0, i1, branches): its first and
    last sample index and its sorted-branch indices, which are contiguous.

    A cluster is one connected set of small (gap, sample) cells, where a
    cell neighbours the cells of the adjacent gaps at the adjacent samples;
    its samples and branches are that set's extent.  A permanent pair is
    therefore a cluster of its own and hides no other crossing.  A gap's
    small cells are runs of samples (np.diff of the padded mask), and runs
    of adjacent gaps whose samples overlap or touch join (union-find).
    Clusters come in the order of their least (sample, gap) cell.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    small = (vals[1:] - vals[:-1]) < eps  # (n-1, N)
    pad = np.zeros((small.shape[0], 1), dtype=np.int8)
    edges = np.diff(np.concatenate([pad, small.view(np.int8), pad], axis=1), axis=1)
    gap, start = np.nonzero(edges == 1)   # starts and ends both in (gap, sample)
    end = np.nonzero(edges == -1)[1] - 1  # order, so the k-th of each is one run
    # a run (k, s, e) joins the runs lo..hi-1 of gap k + 1: before lo they
    # end before s - 1, from hi on they start after e + 1
    width = small.shape[1] + 2  # gap * width + sample orders the cells as the runs
    lo = np.searchsorted(gap * width + end, (gap + 1) * width + start - 1).tolist()
    hi = np.searchsorted(gap * width + start, (gap + 1) * width + end + 1, "right").tolist()
    root = list(range(gap.size))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a in range(gap.size):
        for b in range(lo[a], hi[a]):
            root[find(b)] = find(a)
    clusters: dict[int, list] = {}
    for a, (k, s, e) in enumerate(zip(gap.tolist(), start.tolist(), end.tolist())):
        c = clusters.setdefault(find(a), [(s, k), s, e, k, k])  # least cell, samples, gaps
        c[:] = min(c[0], (s, k)), min(c[1], s), max(c[2], e), min(c[3], k), max(c[4], k)
    return [(i0, i1, tuple(range(k0, k1 + 2))) for _, i0, i1, k0, k1 in sorted(clusters.values())]


@dataclass(frozen=True)
class _SideSlopes:
    left_slope: np.ndarray
    left_quad: np.ndarray
    right_slope: np.ndarray
    right_quad: np.ndarray
    run: tuple[int, int]  # first and last index of the risky run


def _estimate_slopes(
    members: list[int],
    eps: float,
    pts: np.ndarray,
    vals: np.ndarray,
    center_t: float,
) -> _SideSlopes | None:
    sub = vals[members]
    gaps = sub[1:] - sub[:-1]
    lo, hi = risky_run(pts, (gaps < eps).any(axis=0), center_t)
    left = slice(max(lo - _SIDE_WINDOW, 0), lo)
    right = slice(hi + 1, min(hi + 1 + _SIDE_WINDOW, pts.size))
    if left.stop - left.start < 2 or right.stop - right.start < 2:
        return None
    ls, lq = fit_side(pts[left] - center_t, sub[:, left].T)
    rs, rq = fit_side(pts[right] - center_t, sub[:, right].T)
    return _SideSlopes(ls, lq, rs, rq, (lo, hi))


def _slope_drift(a: _SideSlopes, b: _SideSlopes) -> float:
    drift = 0.0
    for x, y in ((a.left_slope, b.left_slope), (a.right_slope, b.right_slope)):
        scale = 1.0 + np.maximum(np.abs(x), np.abs(y))
        drift = max(drift, float(np.max(np.abs(x - y) / scale)))
    return drift


def minimal_jump_assignment(left, right, left_quad=None, right_quad=None) -> Choice:
    """Pairing of incoming slopes `left` with outgoing slopes `right` that
    minimizes the total slope jump sum |left[i] - right[perm[i]]|, as a
    Choice whose key and answer are perm (left[i] continues as
    right[perm[i]]) and whose margin is the slope-jump gap to the best
    differing pairing.

    The i-th smallest left slope takes the i-th smallest right slope (stable
    sorts).  Up to 8 branches, pairings within _TIE_TOL of the optimum are
    ranked by the curvature jump |left_quad - right_quad|, then
    lexicographically.  A tie left after that, and a tie without curvatures
    or among more than 8 branches, is flagged ambiguous.
    """
    left, right = np.asarray(left, dtype=float), np.asarray(right, dtype=float)
    k = left.size
    rows, cols = np.argsort(left, kind="stable"), np.argsort(right, kind="stable")
    perm = tuple(cols[np.argsort(rows)].tolist())
    # swapping ranks i, i+1 costs twice the overlap of their slope intervals
    a, b = left[rows], right[cols]
    overlap = np.minimum(a[1:], b[1:]) - np.maximum(a[:-1], b[:-1])
    margin = 2.0 * max(float(overlap.min()), 0.0) if k > 1 else float("inf")
    if margin > _TIE_TOL:
        return Choice(perm, margin, False, perm)
    if left_quad is None or k > _TIE_ENUM_LIMIT:
        return Choice(perm, margin, True, perm)
    lq, rq = np.asarray(left_quad, dtype=float), np.asarray(right_quad, dtype=float)
    perms = list(itertools.permutations(range(k)))
    costs = [float(np.abs(left - right[list(p)]).sum()) for p in perms]
    best = min(costs)
    tied = sorted(
        (float(np.abs(lq - rq[list(p)]).sum()), p) for p, c in zip(perms, costs) if c <= best + _TIE_TOL
    )
    sec_best = tied[0][0]
    settled = [p for c, p in tied if c <= sec_best + 1e-12 * (1.0 + abs(sec_best))]
    return Choice(settled[0], margin, len(settled) > 1, settled[0])


def differentiable_selection(
    curve: CoeffCurve,
    grid: Grid,
    tol: float = 1e-10,
) -> RootBranches:
    """Root selection with branch labels re-paired across collisions.

    Away from clusters this agrees with the sorted roots; at each resolved
    cluster the labels are re-paired by the minimal-slope-jump matching and
    interior samples follow the entry-to-exit chord.  The multiset of branch
    values matches the polynomial roots at every grid point by construction.
    """
    tpts = grid.points
    solve = functools.partial(_sorted_matrix, tol=tol)
    vals = solved_at(solve, curve.evaluate(tpts), tpts)
    n, N = vals.shape
    if n < 2:
        return RootBranches(grid, vals)
    value_range = float(vals.max()) - float(vals.min())  # inf, not a numpy warning, on overflow
    eps = _EPS_FACTOR * value_range if value_range > 0 else max(tol, 1e-12)
    out = vals.copy()
    cur = np.arange(n)
    swaps: list[tuple[int, tuple[int, ...]]] = []
    unresolved: list[tuple[float, float]] = []
    # one-sided windows at the domain ends keep sorted labels
    clusters = [c for c in collision_clusters(vals, eps) if c[0] > 0 and c[1] < N - 1]
    perms = resolve_windows(
        grid, vals, curve.evaluate, solve, lambda a, b, take: np.concatenate([a, b], axis=1)[:, take],
        [
            resolve_window(
                grid, i0, i1, vals, functools.partial(_estimate_slopes, list(branches), eps), _slope_drift,
                lambda est: minimal_jump_assignment(est.left_slope, est.right_slope, est.left_quad, est.right_quad),
                curve.finest_level,
            )
            for i0, i1, branches in clusters
        ],
    )
    for (i0, i1, branches), perm in zip(clusters, perms):
        members = list(branches)
        if perm is None:
            unresolved.append((float(tpts[i0]), float(tpts[i1])))
            continue
        mapping = {members[a]: members[b] for a, b in enumerate(perm)}
        if all(k == v for k, v in mapping.items()):
            continue
        affected = np.array([j for j in range(n) if cur[j] in mapping])
        entry = vals[cur[affected], i0 - 1]
        exit_ = vals[[mapping[c] for c in cur[affected]], i1 + 1]
        frac = (tpts[i0 : i1 + 1] - tpts[i0 - 1]) / (tpts[i1 + 1] - tpts[i0 - 1])
        preds = entry[:, None] + (exit_ - entry)[:, None] * frac
        # the chord predictions take the sorted sample values in rank order
        ranks = np.argsort(preds, axis=0, kind="stable")
        out[affected[ranks], np.arange(i0, i1 + 1)] = np.sort(vals[members, i0 : i1 + 1], axis=0)
        full = np.arange(n)
        for k, v in mapping.items():
            full[k] = v
        swaps.append((i0, tuple(int(x) for x in full)))
        for j in affected:
            cur[j] = mapping[cur[j]]
            out[j, i1 + 1 :] = vals[cur[j], i1 + 1 :]
    return RootBranches(grid, out, tuple(swaps), tuple(unresolved))
