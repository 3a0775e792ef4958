"""Continuous and differentiable root-branch selections along a curve.

The sorted selection is the pointwise nondecreasing labelling of the roots;
it is continuous but kinks where branches cross.  The differentiable
selection re-pairs branch labels across each collision cluster so that
one-sided slopes match: the label bijection minimizes the total slope jump
(min-cost matching, with curvature and then lexicographic tie-breaks), and
`windows.resolve_window` refines the cluster until that pairing is stable.
Clusters it leaves unresolved keep sorted labels inside the window and are
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hyperpoly
from .assignment import minimal_jump_assignment
from .curvedsl import CoeffCurve, Grid
from .errors import NotHyperbolic, NotHyperbolicAt
from .windows import _EPS_FACTOR, _SIDE_WINDOW, _TIE_TOL, Choice, fit_side, resolve_window, risky_run

SORTED = "sorted"
DIFFERENTIABLE = "differentiable"


@dataclass(frozen=True)
class CollisionCluster:
    """Maximal time window where adjacent involved branches stay within eps."""

    window: tuple[float, float]
    index_range: tuple[int, int]  # inclusive sample indices
    branches: tuple[int, ...]     # involved sorted-branch indices (contiguous)
    min_gap: float


@dataclass(frozen=True)
class RootBranches:
    grid: Grid
    branches: np.ndarray  # (n, N); row j is branch j sampled over the grid
    selection_kind: str
    swap_log: tuple[tuple[int, tuple[int, ...]], ...] = ()
    unresolved: tuple[tuple[float, float], ...] = ()

    @property
    def n(self) -> int:
        return self.branches.shape[0]


def sorted_branches(curve: CoeffCurve, grid: Grid, tol: float = 1e-10) -> RootBranches:
    """Pointwise sorted roots of the curve; raises NotHyperbolicAt(t)."""
    vals = _sorted_matrix(curve, grid, tol)
    return RootBranches(grid, vals, SORTED)


def _sorted_matrix(curve: CoeffCurve, grid: Grid, tol: float) -> np.ndarray:
    pts = grid.points
    rows = curve.evaluate(pts)
    n = curve.n
    vals = np.empty((n, pts.size))
    for i, t in enumerate(pts):
        try:
            vals[:, i] = hyperpoly.roots(hyperpoly.MonicHyperbolic(rows[i]), tol).values
        except NotHyperbolic:
            raise NotHyperbolicAt(float(t)) from None
    return vals


def collision_clusters(b: RootBranches, eps: float) -> list[CollisionCluster]:
    """Disjoint clusters of near-colliding adjacent branches (gap < eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if b.selection_kind != SORTED:
        raise ValueError("collision clustering expects a sorted selection")
    vals = b.branches
    n, N = vals.shape
    if n < 2:
        return []
    gaps = vals[1:] - vals[:-1]          # (n-1, N)
    small = gaps < eps
    any_small = small.any(axis=0)
    clusters: list[CollisionCluster] = []
    t = b.grid.points
    i = 0
    while i < N:
        if not any_small[i]:
            i += 1
            continue
        j = i
        while j + 1 < N and any_small[j + 1]:
            j += 1
        # connected chains of adjacent-branch contacts within the run
        run_small = small[:, i : j + 1].any(axis=1)
        k = 0
        while k < n - 1:
            if not run_small[k]:
                k += 1
                continue
            k2 = k
            while k2 + 1 < n - 1 and run_small[k2 + 1]:
                k2 += 1
            members = tuple(range(k, k2 + 2))
            chain_gaps = gaps[k : k2 + 1, i : j + 1]
            clusters.append(
                CollisionCluster(
                    window=(float(t[i]), float(t[j])),
                    index_range=(i, j),
                    branches=members,
                    min_gap=float(chain_gaps.min()),
                )
            )
            k = k2 + 1
        i = j + 1
    return clusters


@dataclass(frozen=True)
class _SideSlopes:
    left_slope: np.ndarray
    left_quad: np.ndarray
    right_slope: np.ndarray
    right_quad: np.ndarray
    run: tuple[float, float]


def _estimate_slopes(
    pts: np.ndarray,
    vals: np.ndarray,
    members: list[int],
    eps: float,
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
    return _SideSlopes(ls, lq, rs, rq, (float(pts[lo]), float(pts[hi])))


def _slope_drift(a: _SideSlopes, b: _SideSlopes) -> float:
    drift = 0.0
    for x, y in ((a.left_slope, b.left_slope), (a.right_slope, b.right_slope)):
        scale = 1.0 + np.maximum(np.abs(x), np.abs(y))
        drift = max(drift, float(np.max(np.abs(x - y) / scale)))
    return drift


def _pairing(est: _SideSlopes) -> Choice:
    primary = np.abs(est.left_slope[:, None] - est.right_slope[None, :])
    secondary = np.abs(est.left_quad[:, None] - est.right_quad[None, :])
    pairing = minimal_jump_assignment(primary, secondary, _TIE_TOL)
    return Choice(pairing.perm, pairing.margin, pairing.ambiguous, pairing)


def differentiable_selection(
    curve: CoeffCurve,
    grid: Grid,
    tol: float = 1e-10,
    eps: float | None = None,
) -> RootBranches:
    """Root selection with branch labels re-paired across collisions.

    Away from clusters this agrees with sorted_branches; at each resolved
    cluster the labels are re-paired by the minimal-slope-jump matching and
    interior samples follow the entry-to-exit chord.  The multiset of branch
    values matches the polynomial roots at every grid point by construction.
    """
    sb = sorted_branches(curve, grid, tol)
    vals = sb.branches
    n, N = vals.shape
    if n < 2:
        return RootBranches(grid, vals.copy(), DIFFERENTIABLE)
    value_range = float(vals.max() - vals.min())
    if eps is None:
        eps = _EPS_FACTOR * value_range if value_range > 0 else max(tol, 1e-12)
    perm_eps = 1e-9 * max(1.0, value_range)
    clusters = collision_clusters(sb, eps)
    out = vals.copy()
    cur = np.arange(n)
    swaps: list[tuple[int, tuple[int, ...]]] = []
    unresolved: list[tuple[float, float]] = []
    tpts = grid.points
    for cl in clusters:
        i0, i1 = cl.index_range
        members = list(cl.branches)
        if i0 == 0 or i1 == N - 1:
            continue  # one-sided window at the domain end: keep sorted labels
        # permanent-collision test must look beyond the window itself: a
        # transversal crossing can collide exactly at one sample
        lo, hi = max(i0 - _SIDE_WINDOW, 0), min(i1 + _SIDE_WINDOW, N - 1)
        spread = vals[members, lo : hi + 1]
        diameter = float(np.max(spread.max(axis=0) - spread.min(axis=0)))
        if diameter < perm_eps:
            continue  # permanent collision: any pairing is equivalent
        pairing = resolve_window(
            grid,
            i0,
            i1,
            vals,
            lambda sub: _sorted_matrix(curve, sub, tol),
            lambda pts, sub_vals, center_t: _estimate_slopes(pts, sub_vals, members, eps, center_t),
            _slope_drift,
            _pairing,
        )
        if pairing is None:
            unresolved.append(cl.window)
            continue
        mapping = {members[a]: members[b] for a, b in enumerate(pairing.perm)}
        if all(k == v for k, v in mapping.items()):
            continue
        affected = [j for j in range(n) if cur[j] in mapping]
        entry_t, exit_t = tpts[i0 - 1], tpts[i1 + 1]
        entry_vals = {j: vals[cur[j], i0 - 1] for j in affected}
        exit_vals = {j: vals[mapping[cur[j]], i1 + 1] for j in affected}
        for i in range(i0, i1 + 1):
            frac = (tpts[i] - entry_t) / (exit_t - entry_t)
            preds = np.array(
                [entry_vals[j] + (exit_vals[j] - entry_vals[j]) * frac for j in affected]
            )
            avail = vals[members, i]
            chord = minimal_jump_assignment(np.abs(preds[:, None] - avail[None, :]))
            for a, j in enumerate(affected):
                out[j, i] = avail[chord.perm[a]]
        full = np.arange(n)
        for k, v in mapping.items():
            full[k] = v
        swaps.append((i0, tuple(int(x) for x in full)))
        for j in affected:
            cur[j] = mapping[cur[j]]
            out[j, i1 + 1 :] = vals[cur[j], i1 + 1 :]
    return RootBranches(grid, out, DIFFERENTIABLE, tuple(swaps), tuple(unresolved))
