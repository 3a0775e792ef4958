"""Lift orbit-space curves through the invariant map, with certified regularity.

A lift is a curve in V whose sigma-image reproduces the input curve.  Each
grid sample contributes its fiber, one group orbit.  The orbits of a grid
are solved as one block (`invariants.orbits_at`, one root solve for the
grid), which also gives their sizes and least distances, so the collision
test runs over the whole grid at once; the lift threads one point per
orbit, reading each through its row view, an `invariants.Orbit`.  Away from
collisions the thread follows linear extrapolation matched to the nearest
orbit point, which the orbit computes from its sorted spectrum (its point in
the closed fundamental chamber) without listing the orbit.  Where orbit
points collide or the orbit size jumps (orbit-type change), the thread is
re-attached by the minimal-derivative-jump principle: the points of the
orbit right after the window are ranked by their distance from the linear
continuation of the incoming strand (slope jump and curvature as
tie-breakers), and `windows.resolve_window` refines the window until that
choice is stable.  Windows it leaves unresolved are flagged, with a
nearest-point fallback inside.  No orbit is listed: the exit candidates are
the nearest point to the prediction and its reflection closure within the
tie width, and every candidate and swap-log entry is keyed by its rank in
its orbit, which `Orbit.ranks` counts in closed form.  So orbits of any
size lift, past `ENUM_LIMIT` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import regcheck
from .curvedsl import CoeffCurve, Grid
from .errors import (
    DimensionMismatch,
    NotFinite,
    NotInImage,
    NotInImageAt,
    RootSolveFailed,
    ToleranceViolation,
)
from .invariants import Orbit, OrbitBlock, OrbitMapSigma, ReflectionGroup, orbits_at

# nothing here lists an orbit; perfbench/tracing.py wraps `lifting.fiber`
# by name to count the calls that would, so the name stays bound
from .invariants import fiber  # noqa: F401
from .regcheck import VERDICT_RANK, RegularityReport
from .windows import _EPS_FACTOR, _SIDE_WINDOW, _TIE_TOL, Choice, fit_side, resolve_window, risky_run


@dataclass(frozen=True)
class LiftResult:
    grid: Grid
    group: ReflectionGroup
    values: np.ndarray  # (N, dim)
    residual: float     # sup |sigma(lift) - c| over the grid
    reports: tuple[RegularityReport, ...]  # one per coordinate of V
    swap_log: tuple[tuple[int, tuple[int, int]], ...]  # (index, (rank in, rank out))
    unresolved: tuple[tuple[float, float], ...]
    max_step: float
    continuity_bound: float

    @property
    def continuity_ok(self) -> bool:
        return self.max_step <= self.continuity_bound

    def min_verdict(self) -> str:
        return min((r.verdict for r in self.reports), key=lambda v: VERDICT_RANK[v])


def verify_lift(map_: OrbitMapSigma, lift: LiftResult, curve: CoeffCurve) -> float:
    """sup_t |sigma(lift(t)) - c(t)|, absolute, so it grows with the
    coefficients: a valid lift stays below 10*tol*(1 + max|c|), the max
    over the grid."""
    return _residual(map_, lift.values, curve.evaluate(lift.grid.points))


def _residual(map_: OrbitMapSigma, values: np.ndarray, rows: np.ndarray) -> float:
    """sup over samples of |sigma(values[i]) - rows[i]|."""
    return float(np.max(np.abs(map_.evaluate(values) - rows)))


def _evidence(values: np.ndarray, grid: Grid, levels: int) -> tuple[tuple[RegularityReport, ...], float]:
    """Per-coordinate regularity reports over `levels` dyadic levels (none
    when levels is 0), and the largest step between consecutive samples."""
    reports = tuple(
        regcheck.certify_samples(values[:, j], (grid.t0, grid.t1), levels)
        for j in range(values.shape[1])
    ) if levels else ()
    steps = np.linalg.norm(np.diff(values, axis=0), axis=1)
    return reports, float(steps.max()) if steps.size else 0.0


def _orbits_at(map_: OrbitMapSigma, rows: np.ndarray, tpts: np.ndarray, tol: float) -> OrbitBlock:
    """The orbits of the curve values rows at the times tpts, as one block;
    the first sample without an orbit raises, naming its t."""
    try:
        return orbits_at(map_, rows, tol)
    except NotInImage as exc:
        raise NotInImageAt(float(tpts[exc.index])) from None
    except (NotFinite, RootSolveFailed, ToleranceViolation) as exc:
        raise type(exc)(f"{exc} (at t={float(tpts[exc.index])!r})") from None


def _continue(values: np.ndarray, orbits, i: int) -> None:
    """values[i] := the point of orbits[i] nearest the linear continuation
    of values[i-2], values[i-1] (the previous value when i == 1)."""
    pred = values[i - 1] if i == 1 else 2.0 * values[i - 1] - values[i - 2]
    values[i] = orbits[i].nearest(pred)


def _track(orbits, start: np.ndarray) -> np.ndarray:
    """Nearest-point tracking with linear extrapolation, from the point of
    the first orbit nearest start; start may hold one strand per row."""
    vals = np.empty((len(orbits),) + start.shape)
    vals[0] = orbits[0].nearest(start)
    for i in range(1, len(orbits)):
        _continue(vals, orbits, i)
    return vals


def _risky(orbits: OrbitBlock, eps: float) -> np.ndarray:
    """Samples whose orbit points come within eps of each other, or whose
    orbit size differs from a neighbour's (an orbit-type change)."""
    risky = orbits.min_distance < eps
    change = orbits.sizes[1:] != orbits.sizes[:-1]
    risky[1:] |= change
    risky[:-1] |= change
    return risky


@dataclass
class _WindowEstimate:
    left_slope: np.ndarray
    left_quad: np.ndarray
    size: int                # points of the orbit right after the window
    candidates: np.ndarray   # (k, dim) of its points, in rank order
    ranks: list[int]         # their ranks in the orbit
    cost: np.ndarray         # (k,) their distance from the prediction over the time gap
    cand_slopes: np.ndarray  # (k, dim)
    cand_quads: np.ndarray
    run: tuple[float, float]


def _estimate_window(tpts, orbits, center_t, eps, left_anchor):
    w = _SIDE_WINDOW
    lo, hi = risky_run(tpts, _risky(orbits, eps), center_t)
    if lo - w < 0 or hi + 1 + 2 >= tpts.size:
        return None
    left_vals = _track(orbits[lo - w : lo], left_anchor)
    ls, lq = fit_side(tpts[lo - w : lo] - center_t, left_vals)
    # the linear continuation of the incoming strand to the exit sample;
    # dividing by the time gap puts the cost in the slope units of the
    # tie-breakers
    dt = float(tpts[hi + 1]) - float(tpts[lo - 1])
    predicted = left_vals[-1] + dt * ls
    exit_orbit = orbits[hi + 1]
    cands, ranks, cost = _exit_candidates(exit_orbit, predicted, dt)
    right = slice(hi + 1, min(hi + 1 + w, tpts.size))
    tracks = _track(orbits[right], cands)
    cs, cq = fit_side(tpts[right] - center_t, tracks.reshape(tracks.shape[0], -1))
    return _WindowEstimate(
        ls, lq, exit_orbit.size, cands, ranks, cost,
        cs.reshape(cands.shape), cq.reshape(cands.shape), (float(tpts[lo]), float(tpts[hi])),
    )


def _exit_candidates(orbit: Orbit, predicted: np.ndarray, dt: float):
    """The points of the exit orbit that can decide a window, in rank
    order, with their ranks and costs |x - predicted| / dt.

    The cost is linear in <x, predicted> over an orbit, whose points all
    have one norm, so it orders the vertices of the orbit's convex hull by
    a linear function.  The runner-up to the best vertex is one of its
    neighbours along an edge, and the vertices within _TIE_TOL of the best
    are joined by edges among themselves.  So the nearest point, its
    neighbours, and the neighbours of every point found within _TIE_TOL of
    the best cost hold the best point, the runner-up and every near-tie,
    which is all the chooser reads; the edges of the hull are reflections."""
    found: dict[tuple, np.ndarray] = {}
    best = np.inf
    fresh = orbit.nearest(predicted)[None, :]
    while fresh.size:
        new = []
        for p in np.concatenate([fresh, orbit.neighbours(fresh)]):
            key = tuple(p.tolist())
            if key not in found:
                found[key] = p
                new.append(p)
        if not new:
            break
        pts = np.array(new)
        cost = np.linalg.norm(pts - predicted, axis=1) / dt
        best = min(best, float(cost.min()))
        fresh = pts[cost <= best + _TIE_TOL]
    # points equal after rounding are one orbit point, as in its listing
    by_rank: dict[int, np.ndarray] = {}
    for r, p in zip(orbit.ranks(np.array(list(found.values()))), found.values()):
        by_rank.setdefault(r, p)
    ranks = sorted(by_rank)
    pts = np.array([by_rank[r] for r in ranks])
    return pts, ranks, np.linalg.norm(pts - predicted, axis=1) / dt


def _choose_candidate(est: _WindowEstimate) -> Choice:
    """The exit point to leave the window by, keyed by its rank and the
    orbit size, with the cost margin in slope units.

    Primary cost: deviation of the candidate from the linear continuation of
    the incoming strand, normalized by the time gap so the unit matches the
    slope-jump tie-breakers used at collision points."""
    cost = est.cost
    order = np.argsort(cost, kind="stable")
    best = int(order[0])
    margin = float(cost[order[1]] - cost[order[0]]) if order.size > 1 else np.inf
    if margin > _TIE_TOL:
        return Choice((est.size, est.ranks[best]), margin, False, est.candidates[best])
    tied = [int(i) for i in order if cost[i] <= cost[best] + _TIE_TOL]
    scost = np.linalg.norm(est.cand_slopes - est.left_slope[None, :], axis=1)
    qcost = np.linalg.norm(est.cand_quads - est.left_quad[None, :], axis=1)
    tied.sort(key=lambda i: (scost[i], qcost[i], i))
    first, second = tied[0], tied[1] if len(tied) > 1 else None
    margin = float(scost[second] - scost[first]) if second is not None else margin
    ambiguous = (
        second is not None
        and scost[second] <= scost[first] + _TIE_TOL
        and qcost[second] <= qcost[first] + 1e-12 * (1 + qcost[first])
    )
    return Choice((est.size, est.ranks[first]), margin, ambiguous, est.candidates[first])


def _slope_drift(a: _WindowEstimate, b: _WindowEstimate) -> float:
    """The relative drift of the incoming slope and, when the exit orbits
    have one size, of the slopes of the exit points of one rank."""
    scale = 1.0 + max(float(np.max(np.abs(a.left_slope))), float(np.max(np.abs(b.left_slope))))
    drift = float(np.max(np.abs(a.left_slope - b.left_slope))) / scale
    if a.size == b.size:
        at = {r: i for i, r in enumerate(b.ranks)}
        pairs = [(i, at[r]) for i, r in enumerate(a.ranks) if r in at]
        if pairs:
            ia, ib = np.array(pairs).T
            drift = max(drift, float(np.max(np.abs(a.cand_slopes[ia] - b.cand_slopes[ib]))) / scale)
    return drift


def _continuity_bound(map_: OrbitMapSigma, rows: np.ndarray, scale: float, tol: float) -> float:
    """Crude no-teleporting bound: C * (max step of c)^(1/d)."""
    d = map_.d_value
    delta = float(np.max(np.abs(np.diff(rows, axis=0))))
    return 8.0 * (1.0 + scale) * delta ** (1.0 / d) + 10.0 * tol + 1e-9


def lift_curve(
    group: ReflectionGroup,
    map_: OrbitMapSigma,
    curve: CoeffCurve,
    grid: Grid,
    tol: float = 1e-10,
) -> LiftResult:
    """Track one orbit point per grid sample into a lift of the curve.

    Raises NotInImageAt(t) when a sample leaves sigma(V) (no silent
    projection), and propagates ToleranceViolation from ill-posed samples.
    """
    if curve.n != map_.n_invariants:
        raise DimensionMismatch(
            f"curve has {curve.n} components, sigma has {map_.n_invariants}"
        )
    tpts = grid.points
    rows = curve.evaluate(tpts)
    orbits = _orbits_at(map_, rows, tpts, tol)
    N = len(orbits)
    dim = group.dim
    scale = max(float(np.max(orbits.max_abs)), 1e-30)
    eps = _EPS_FACTOR * scale
    risky = _risky(orbits, eps)
    values = np.empty((N, dim))
    values[0] = orbits[0].first
    swap_log: list[tuple[int, tuple[int, int]]] = []
    unresolved: list[tuple[float, float]] = []
    i = 1
    while i < N:
        if not risky[i]:
            _continue(values, orbits, i)
            i += 1
            continue
        i0 = i1 = i
        while i1 + 1 < N and risky[i1 + 1]:
            i1 += 1
        # a window touching the domain boundary gets nearest-point continuation
        at_boundary = i0 <= _SIDE_WINDOW or i1 + 1 >= N
        exit_val = None if at_boundary else resolve_window(
            grid,
            i0,
            i1,
            orbits,
            lambda sub: _orbits_at(map_, curve.evaluate(sub.points), sub.points, tol),
            lambda pts, sub_orbits, center_t: _estimate_window(
                pts, sub_orbits, center_t, eps, values[i0 - 1]
            ),
            _slope_drift,
            _choose_candidate,
        )
        if exit_val is None:
            if not at_boundary:
                unresolved.append((float(tpts[i0]), float(tpts[i1])))
            for j in range(i0, min(i1 + 2, N)):
                _continue(values, orbits, j)
            i = i1 + 2
            continue
        values[i1 + 1] = orbits[i1 + 1].nearest(exit_val)
        entry_t, exit_t = tpts[i0 - 1], tpts[i1 + 1]
        for j in range(i0, i1 + 1):
            frac = (tpts[j] - entry_t) / (exit_t - entry_t)
            chord = values[i0 - 1] + (values[i1 + 1] - values[i0 - 1]) * frac
            values[j] = orbits[j].nearest(chord)
        # the swap log ranks the entry and exit points within their orbits
        rank_in = orbits[i0 - 1].ranks(values[i0 - 1 : i0])[0]
        rank_out = orbits[i1 + 1].ranks(values[i1 + 1 : i1 + 2])[0]
        if rank_out != rank_in or orbits[i0 - 1].size != orbits[i1 + 1].size:
            swap_log.append((i0, (rank_in, rank_out)))
        i = i1 + 2

    levels = min(6, grid.level) if grid.level >= 4 and grid.n_cells == 2**grid.level else 0
    reports, max_step = _evidence(values, grid, levels)
    return LiftResult(
        grid=grid,
        group=group,
        values=values,
        residual=_residual(map_, values, rows),
        reports=reports,
        swap_log=tuple(swap_log),
        unresolved=tuple(unresolved),
        max_step=max_step,
        continuity_bound=_continuity_bound(map_, rows, scale, tol),
    )


def transformed_lift(map_: OrbitMapSigma, lift: LiftResult, element: np.ndarray, curve: CoeffCurve) -> LiftResult:
    """The lift moved by a fixed group element, with residual and regularity
    evidence recomputed from scratch (equivariance check support)."""
    values = lift.values @ element.T
    levels = len(lift.reports[0].levels) if lift.reports else 0
    reports, max_step = _evidence(values, lift.grid, levels)
    return LiftResult(
        grid=lift.grid,
        group=lift.group,
        values=values,
        residual=_residual(map_, values, curve.evaluate(lift.grid.points)),
        reports=reports,
        swap_log=lift.swap_log,
        unresolved=lift.unresolved,
        max_step=max_step,
        continuity_bound=lift.continuity_bound,
    )


# -- several-variable probe harness ------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    name: str
    lipschitz_estimate: float  # sup over the whole probe
    verdict: str
    windows: tuple[tuple[float, float, float], ...] = ()  # (t_lo, t_hi, local sup)


@dataclass(frozen=True)
class LipschitzHarnessReport:
    probes: tuple[ProbeResult, ...]
    verdict: str  # locally-lipschitz-consistent | violation-detected | inconclusive

    LIPSCHITZ_CONSISTENT = "locally-lipschitz-consistent"
    VIOLATION = "violation-detected"
    INCONCLUSIVE = "inconclusive"


def _composed_curve(f, gamma, n: int) -> CoeffCurve:
    """f(gamma(t)) wrapped as a coefficient curve, evaluated on demand.

    The n columns share one evaluation of f per time array: only the last
    array's values are kept, which serves the n column calls of one
    CoeffCurve.evaluate."""
    last: list = [None, None]  # [time array bytes, f values on it]

    def column(j):
        def comp(tarr):
            arr = np.atleast_1d(np.asarray(tarr, dtype=float))
            key = arr.tobytes()
            if key != last[0]:
                last[:] = key, np.array([f(gamma(float(t))) for t in arr])
            out = last[1][:, j]
            return out if np.asarray(tarr).shape else float(out[0])

        return comp

    return CoeffCurve(tuple(column(j) for j in range(n)))


def lipschitz_harness(
    group: ReflectionGroup,
    map_: OrbitMapSigma,
    f: Callable[[np.ndarray], np.ndarray],
    probes: Sequence[tuple[str, Callable[[float], np.ndarray]]],
    grid: Grid,
    tol: float = 1e-10,
) -> LipschitzHarnessReport:
    """Certify local Lipschitz behaviour of the lift of f along probe curves.

    Each probe gamma is a smooth curve into the domain of f; f(gamma(t)) is
    lifted with lift_curve and the probe's Lipschitz constant is the sup of
    the Euclidean norm of the lift's first difference quotients.
    """
    results = []
    for name, gamma in probes:
        composed = _composed_curve(f, gamma, map_.n_invariants)
        lift = lift_curve(group, map_, composed, grid, tol)
        h = grid.step
        quots = np.stack(
            [
                regcheck.difference_quotients(lift.values[:, j], h, 1)
                for j in range(lift.values.shape[1])
            ],
            axis=1,
        )
        lip = float(np.max(np.linalg.norm(quots, axis=1)))
        verdict = lift.min_verdict() if lift.reports else regcheck.INCONCLUSIVE
        results.append(ProbeResult(name, lip, verdict))
    if all(VERDICT_RANK[r.verdict] >= VERDICT_RANK[regcheck.LIPSCHITZ] for r in results):
        overall = LipschitzHarnessReport.LIPSCHITZ_CONSISTENT
    elif any(r.verdict == regcheck.UNBOUNDED for r in results):
        overall = LipschitzHarnessReport.VIOLATION
    else:
        overall = LipschitzHarnessReport.INCONCLUSIVE
    return LipschitzHarnessReport(tuple(results), overall)
