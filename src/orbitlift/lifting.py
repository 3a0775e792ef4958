"""Lift orbit-space curves through the invariant map, with certified regularity.

A lift is a curve in V whose sigma-image reproduces the input curve.  Each
grid sample contributes its fiber, one group orbit.  The orbits of a grid
are solved as one block (`invariants.orbits_at`, one root solve for the
grid), which also gives their sizes and least distances, so the collision
test runs over the whole grid at once; the lift threads one point per
orbit, reading each through its row view, an `invariants.Orbit`.  Away from
collisions the thread follows linear extrapolation matched to the nearest
orbit point, which the block computes for many rows in one call, from the
sorted spectra (points in the closed fundamental chamber) of A, B and D and
from the listed points of I2; calm runs of every family are tracked as
verified blocks (`_follow`).  Where orbit points collide or the orbit size
jumps (orbit-type change), the thread is re-attached by the
minimal-derivative-jump principle: the points of the orbit right after the
window are ranked by their distance from the linear continuation of the
incoming strand (slope jump and curvature as tie-breakers), and
`windows.resolve_window` refines the window until that choice is stable;
each refined level takes the orbits of its parent's points by lattice index
and solves only the points between them, as one block
(`windows.resolve_windows`, one window at a time, since each window's exit
anchors the next).  Windows it leaves unresolved are flagged, with a
nearest-point fallback inside.  No orbit is listed: the exit
candidates are the nearest point to the prediction and its closure along
the edges of the orbit's convex hull within the tie width (reflections for
A, B and D, neighbours in angle for I2), and every candidate and swap-log
entry is keyed by its rank in its orbit, which `Orbit.ranks` counts in
closed form; each candidate's neighbours are sought once.  So orbits of
any size lift, past `ENUM_LIMIT` too.  One certificate call covers all
coordinates of a lift.

A lift is two steps: the solve of the grid's rows, and the tracking and
certificates on the solved block (`_track_and_certify`).  `lift_curve`
runs both on one curve and adds the residual and the continuity bound.
The several-variable harness (`lipschitz_harness`) solves the grid rows
of all its probes as one block and runs the second step on each probe's
slice of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import regcheck
from .curvedsl import CoeffCurve, Grid
from .errors import DimensionMismatch, RowError
from .invariants import Orbit, OrbitBlock, OrbitMapSigma, ReflectionGroup, orbits_at

# nothing here lists an orbit; perfbench/tracing.py wraps `lifting.fiber`
# by name to count the calls that would, so the name stays bound
from .invariants import fiber  # noqa: F401
from .regcheck import VERDICT_RANK, RegularityReport
from .windows import (
    _EPS_FACTOR, _SIDE_WINDOW, _TIE_TOL, Choice, fit_side, resolve_window, resolve_windows, risky_run, solved_at,
)


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
    residual_bound: float  # 10*tol*(1 + max|c|), the max over the grid

    @property
    def continuity_ok(self) -> bool:
        return self.max_step <= self.continuity_bound

    @property
    def residual_ok(self) -> bool:
        return self.residual <= self.residual_bound

    def min_verdict(self) -> str:
        return _min_verdict(self.reports)


def _min_verdict(reports: Sequence[RegularityReport]) -> str:
    """The weakest verdict of the reports."""
    return min((r.verdict for r in reports), key=lambda v: VERDICT_RANK[v])


def _residual(map_: OrbitMapSigma, values: np.ndarray, rows: np.ndarray) -> float:
    """sup over samples of |sigma(values[i]) - rows[i]|."""
    return float(np.max(np.abs(map_.evaluate(values) - rows)))


def _evidence(values: np.ndarray, grid: Grid, levels: int) -> tuple[tuple[RegularityReport, ...], float]:
    """Per-coordinate regularity reports over `levels` dyadic levels (none
    when levels is 0), and the largest step between consecutive samples."""
    reports = tuple(regcheck.certify_samples(values, grid.span, levels)) if levels else ()
    steps = _norms(np.diff(values, axis=0))
    return reports, float(steps.max()) if steps.size else 0.0


def _continue(values: np.ndarray, orbits, i: int) -> None:
    """values[i] := the point of orbits[i] nearest the linear continuation
    of values[i-2], values[i-1]: the previous value when i == 1, and for
    i == 0 the start that values[0] holds on entry."""
    pred = values[max(i - 1, 0)] if i < 2 else 2.0 * values[i - 1] - values[i - 2]
    values[i] = orbits[i].nearest(pred)


@np.errstate(over="ignore")  # a continuation of values near the largest float overflows to inf
def _follow(values: np.ndarray, orbits: OrbitBlock, i: int, j: int) -> None:
    """values[i:j] := what _continue gives sample by sample; for i == 0,
    values[0] holds the start on entry.

    Samples of every family go in verified blocks.  Every value of a block
    is guessed as the point of its orbit nearest the last known value (the
    start, for i == 0, which makes the guess of sample 0 its value); the
    linear continuations are made from the guesses, and their nearest
    points found, in one call each.  The prefix whose nearest points are
    the guesses, bit for bit, is accepted: each of its continuations was
    made from the values the sample-by-sample loop would have, so it is
    that loop's answer.  The first mismatch is right for the same reason,
    and tracking resumes after it.  A block after a mismatch is at most
    twice the accepted prefix, and doubles while whole blocks hold.  A
    block that gives at most two samples for its two calls is followed by
    `cool` samples taken one by one, and `cool` doubles while such blocks
    repeat, until a whole block holds; so a run where the guesses keep
    failing costs about one call a sample."""
    size, cool, singles = j - i, 1, 0
    while i < j:
        k = min(j, i + size)
        if singles or k == i + 1:
            _continue(values, orbits, i)
            i, size, singles = i + 1, 2, max(singles - 1, 0)
            continue
        block = orbits if k - i == len(orbits) else orbits[i:k]
        last = max(i - 1, 0)
        guess = block.nearest(values[last : last + 1].repeat(k - i, axis=0))
        # samples 0 and 1 continue the value before them alone: the start
        # and value 0
        head = [values[:1].copy(), guess[:1]][: 2 - i] if i < 2 else None
        # the guesses stand in for the values; steps after a mismatch write
        # over the ones past it
        values[i:k] = guess
        seq = values[max(i - 2, 0) : k]
        pred = 2.0 * seq[1:-1] - seq[:-2]
        if head:
            pred = np.concatenate(head + [pred])
        near = block.nearest(pred)
        if near.tobytes() == guess.tobytes():
            m = k - i
        else:
            same = (near.view(np.int64) == guess.view(np.int64)).reshape(k - i, -1).all(axis=1)
            m = int(np.argmin(same))
        if i + m == k:
            i, size, cool = k, 2 * size, 1
        else:
            values[i + m] = near[m]
            i, size = i + m + 1, 2 * m
            if m < 2:  # no better than single steps
                singles, cool = cool, 2 * cool


def _track(orbits: OrbitBlock, start: np.ndarray) -> np.ndarray:
    """Nearest-point tracking with linear extrapolation, from the point of
    the first orbit nearest start; start may hold one strand per row."""
    vals = np.empty((len(orbits),) + start.shape)
    vals[0] = start
    _follow(vals, orbits, 0, len(orbits))
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
    run: tuple[int, int]     # first and last index of the risky run


def _estimate_window(tpts, orbits, center_t, eps, left_anchor):
    """The estimate of the window at center_t, or None when a side has too
    few samples.  The incoming strand is tracked over the `_SIDE_WINDOW`
    samples before the risky run, from the point nearest left_anchor, and
    the exit candidates' strands over up to as many from the exit sample
    on, cut short by the domain end.  Each side is one tracking pass
    (`_track`), which takes the point nearest its start as the first
    block's first guess; the exit candidates come from the incoming
    strand's continuation, so the exit side is tracked after it."""
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
        cs.reshape(cands.shape), cq.reshape(cands.shape), (lo, hi),
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
    which is all the chooser reads; the edges of the hull are reflections,
    and for I2, whose orbit points lie on a circle, neighbours in angle."""
    batches, costs, seen = [], [], set()
    best = np.inf
    near = orbit.nearest(predicted)[None, :]
    # each point is expanded once: the nearest point first, whatever its
    # cost, then each new point within _TIE_TOL of the best
    cand, expanded = np.concatenate([near, orbit.neighbours(near)]), 1
    while True:
        # each point's bytes, with -0.0 as 0.0, key it as its tuple would
        keys = (cand + 0.0).view(np.dtype((np.void, 8 * cand.shape[1]))).ravel().tolist()
        new = {}
        for i, key in enumerate(keys):
            if key not in seen:
                new.setdefault(key, i)
        if not new:
            break
        seen.update(new)
        pts = cand[list(new.values())]
        batches.append(pts)
        cost = _norms(pts - predicted) / dt
        costs.append(cost)
        best = min(best, float(cost.min()))
        fresh = pts[expanded:][cost[expanded:] <= best + _TIE_TOL]
        if not fresh.size:
            break
        cand, expanded = orbit.neighbours(fresh), 0
    # points equal after rounding are one orbit point, as in its listing
    found = np.concatenate(batches)
    by_rank: dict[int, int] = {}
    for i, r in enumerate(orbit.ranks(found)):
        by_rank.setdefault(r, i)
    ranks = sorted(by_rank)
    keep = [by_rank[r] for r in ranks]
    return found[keep], ranks, np.concatenate(costs)[keep]


def _norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of x, by the operations
    np.linalg.norm(x, axis=1) runs on a real array; a row whose sum of
    squares overflows gets math.hypot's norm instead, finite wherever the
    norm is a float."""
    with np.errstate(over="ignore"):
        out = np.sqrt(np.add.reduce(x * x, axis=1))
    for i in np.flatnonzero(out == np.inf).tolist():
        out[i] = math.hypot(*x[i].tolist())
    return out


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
    scost = _norms(est.cand_slopes - est.left_slope[None, :])
    qcost = _norms(est.cand_quads - est.left_quad[None, :])
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


def _track_and_certify(
    orbits: OrbitBlock, curve: CoeffCurve, grid: Grid, solve: Callable,
) -> tuple[np.ndarray, tuple[RegularityReport, ...], tuple, tuple, float]:
    """The lift through the solved orbits of the curve's samples on grid,
    with its certificates: the values (N, dim), the regularity reports, the
    swap log, the unresolved windows and the largest step.  Windows refine
    by evaluating the curve and solving with solve, rows -> OrbitBlock."""
    tpts = grid.points
    N = len(orbits)
    scale = max(float(np.max(orbits.max_abs)), 1e-30)
    eps = _EPS_FACTOR * scale
    risky = _risky(orbits, eps)
    values = np.empty((N, orbits.group.dim))
    values[0] = orbits[0].first
    swap_log: list[tuple[int, tuple[int, int]]] = []
    unresolved: list[tuple[float, float]] = []
    i = 1
    while i < N:
        if not risky[i]:
            j = i + 1
            while j < N and not risky[j]:
                j += 1
            _follow(values, orbits, i, j)
            i = j
            continue
        i0 = i1 = i
        while i1 + 1 < N and risky[i1 + 1]:
            i1 += 1
        # a window touching the domain boundary gets nearest-point continuation
        at_boundary = i0 <= _SIDE_WINDOW or i1 + 1 >= N
        # the window's exit anchors the next window: one window at a time
        estimate = functools.partial(_estimate_window, eps=eps, left_anchor=values[i0 - 1])
        exit_val = None if at_boundary else resolve_windows(grid, orbits, curve.evaluate, solve, OrbitBlock.joined, [
            resolve_window(grid, i0, i1, orbits, estimate, _slope_drift, _choose_candidate, curve.finest_level),
        ])[0]
        if exit_val is None:
            if not at_boundary:
                unresolved.append((float(tpts[i0]), float(tpts[i1])))
            _follow(values, orbits, i0, min(i1 + 2, N))
            i = i1 + 2
            continue
        values[i1 + 1] = orbits[i1 + 1].nearest(exit_val)
        entry_t, exit_t = tpts[i0 - 1], tpts[i1 + 1]
        frac = (tpts[i0 : i1 + 1] - entry_t) / (exit_t - entry_t)
        chord = values[i0 - 1] + (values[i1 + 1] - values[i0 - 1]) * frac[:, None]
        values[i0 : i1 + 1] = orbits[i0 : i1 + 1].nearest(chord)
        # the swap log ranks the entry and exit points within their orbits
        rank_in = orbits[i0 - 1].ranks(values[i0 - 1 : i0])[0]
        rank_out = orbits[i1 + 1].ranks(values[i1 + 1 : i1 + 2])[0]
        if rank_out != rank_in or orbits[i0 - 1].size != orbits[i1 + 1].size:
            swap_log.append((i0, (rank_in, rank_out)))
        i = i1 + 2

    levels = min(6, grid.level) if grid.level >= 4 and grid.n_cells == 2**grid.level else 0
    reports, max_step = _evidence(values, grid, levels)
    return values, reports, tuple(swap_log), tuple(unresolved), max_step


def lift_curve(
    group: ReflectionGroup,
    map_: OrbitMapSigma,
    curve: CoeffCurve,
    grid: Grid,
    tol: float = 1e-10,
) -> LiftResult:
    """Track one orbit point per grid sample into a lift of the curve.

    Raises NotInImageAt(t) when a sample leaves sigma(V) (no silent
    projection), and any other refused sample's RowError, naming its t.
    """
    if curve.n != map_.n_invariants:
        raise DimensionMismatch(
            f"curve has {curve.n} components, sigma has {map_.n_invariants}"
        )
    tpts = grid.points
    rows = curve.evaluate(tpts)
    solve = functools.partial(orbits_at, map_, tol=tol)
    orbits = solved_at(solve, rows, tpts)
    values, reports, swap_log, unresolved, max_step = _track_and_certify(orbits, curve, grid, solve)
    scale = max(float(np.max(orbits.max_abs)), 1e-30)
    return LiftResult(
        grid=grid,
        group=group,
        values=values,
        residual=_residual(map_, values, rows),
        reports=reports,
        swap_log=swap_log,
        unresolved=unresolved,
        max_step=max_step,
        continuity_bound=_continuity_bound(map_, rows, scale, tol),
        residual_bound=10.0 * tol * (1.0 + float(np.max(np.abs(rows)))),
    )


# -- several-variable probe harness ------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    name: str
    lipschitz_estimate: float  # sup over the whole probe
    verdict: str


@dataclass(frozen=True)
class LipschitzHarnessReport:
    probes: tuple[ProbeResult, ...]
    verdict: str  # locally-lipschitz-consistent | violation-detected | inconclusive

    LIPSCHITZ_CONSISTENT = "locally-lipschitz-consistent"
    VIOLATION = "violation-detected"
    INCONCLUSIVE = "inconclusive"


def _composed_curve(f, gamma, n: int) -> CoeffCurve:
    """f(gamma(t)) as a coefficient curve: one evaluation of f per t, with
    numpy's floating-point warnings off while f runs: a value that
    overflows is not finite, and the orbit solve refuses it, naming its t."""

    @np.errstate(all="ignore")  # a decorator enters it afresh on every call
    def rows(t):
        return np.array([f(gamma(s)) for s in t.tolist()], dtype=float)

    return CoeffCurve(rows, n)


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
    lifted as lift_curve lifts it, and the probe's Lipschitz constant is the
    sup of the Euclidean norm of the lift's first difference quotients.  The
    probes' rows on the grid are solved as one block, and each probe is
    tracked and certified on its slice of it (`_track_and_certify`); block
    solves give each row the answer it gets alone, so each probe gets its
    lift_curve values and reports.  An error is the one the probes raise
    lifted in turn: a probe whose rows fail to evaluate or solve raises
    after the probes before it are lifted, whose windows may raise first.
    """
    tpts = grid.points
    solve = functools.partial(orbits_at, map_, tol=tol)
    curves, rows, failed = [], [], None
    for _, gamma in probes:
        curves.append(_composed_curve(f, gamma, map_.n_invariants))
        try:
            rows.append(curves[-1].evaluate(tpts))
        except Exception as exc:  # raised once the probes before it are lifted
            failed = exc
            break
    try:
        orbits = solve(np.concatenate(rows)) if rows else None
    except RowError as exc:
        # the block's first refused row is its probe's first: the probes
        # before that one solve alone
        k, i = divmod(exc.index, tpts.size)
        failed, rows = exc.at(float(tpts[i])), rows[:k]
        orbits = solve(np.concatenate(rows)) if rows else None
    results = []
    for k, (name, _) in enumerate(probes[: len(rows)]):
        at = slice(k * tpts.size, (k + 1) * tpts.size)
        values, reports, *_ = _track_and_certify(orbits[at], curves[k], grid, solve)
        quots = regcheck.difference_quotients(values, grid.step, 1)
        lip = float(np.max(_norms(quots)))
        verdict = _min_verdict(reports) if reports else regcheck.INCONCLUSIVE
        results.append(ProbeResult(name, lip, verdict))
    if failed is not None:
        raise failed
    if all(VERDICT_RANK[r.verdict] >= VERDICT_RANK[regcheck.LIPSCHITZ] for r in results):
        overall = LipschitzHarnessReport.LIPSCHITZ_CONSISTENT
    elif any(r.verdict == regcheck.UNBOUNDED for r in results):
        overall = LipschitzHarnessReport.VIOLATION
    else:
        overall = LipschitzHarnessReport.INCONCLUSIVE
    return LipschitzHarnessReport(tuple(results), overall)
