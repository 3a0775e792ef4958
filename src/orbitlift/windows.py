"""The collision-window resolver shared by root selection and lifting.

Root selection and lifting both carry a curve across a collision window by
the minimal-derivative-jump rule.  The caller's estimate fits one-sided
slopes and curvatures by least squares, in closed form (`fit_side`), on the
`_SIDE_WINDOW` samples just outside the run of risky samples around the
window's centre, and its chooser ranks the ways to continue across the
window.  The resolver refines the window and re-estimates until the choice
is stable.  A window is a range of lattice point indices (`Grid.refine`):
the first level halves the step over the window and `_SIDE_WINDOW + 1`
points on each side, and each later level over the estimate's risky run
and `(_SIDE_WINDOW + 2) // 2` points on each side.  The choice is stable
when either

* the slopes drift by at most `_SLOPE_RTOL` (relative) from the previous
  level, and the choice is not ambiguous;
* the slopes still drift (branches meeting with vanishing or diverging
  derivatives), but the choice has the same key as at the previous level,
  neither choice is ambiguous, the cost margin exceeds 10 x drift x slope
  scale, and the drift is shrinking.  Diverging slopes (no one-sided
  derivative) keep a constant relative drift and stay unresolved.

A window with no stable choice by grid level `_MAX_LEVEL`, or by the curve's
`finest_level` (a CSV curve's own), or whose estimate fails, is unresolved.

A window's resolver is a stepper (`resolve_window`) that asks for one
refined level at a time, and `resolve_windows` refines the live windows of
a grid in lockstep.  Each level solves only the points its parent level
does not hold: a refined level's even points are its parent's points, with
their bits, so they take the parent's answers by index, and the odd points
of every live window's next level are evaluated and solved as one block.
That is exact, since the engines' block solves give each row the answer it
gets alone.  A row a block solve refuses, on the caller's grid or at any
level, raises its `RowError` named by the row's t (`solved_at`).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from .curvedsl import Grid
from .errors import RowError

_SIDE_WINDOW = 8          # samples fitted on each side of a window
_SLOPE_RTOL = 1e-3        # relative slope drift accepted as stable
_MAX_LEVEL = 20           # refinement stops at this grid level
_TIE_TOL = 1e-6           # cost tie width triggering second-order costs
_EPS_FACTOR = 1e-3        # collision threshold = value scale * this


class Choice(NamedTuple):
    """A chooser's verdict on one estimate."""

    key: Any          # equal keys at two levels mean the same choice
    margin: float     # cost gap to the runner-up
    ambiguous: bool   # a tie survived every tie-breaker
    answer: Any       # what resolve_window returns when it accepts


def fit_side(tc: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-fit slope and quadratic-fit leading coefficient of each column
    of vals (samples x strands) against the times tc, by least squares in
    closed form: on the centred times x the slope is x.y / x.x, and the
    leading coefficient is q.y / q.q, where q is x^2 made orthogonal to 1
    and x.  With fewer than 3 samples the leading coefficient is 0."""
    x = tc - tc.sum() / tc.size
    xx = x @ x
    slopes = x @ vals / xx
    if tc.size < 3:
        return slopes, np.zeros(vals.shape[1])
    q = x * x
    q -= q.sum() / q.size
    q -= (q @ x / xx) * x
    return slopes, q @ vals / (q @ q)


def risky_run(pts: np.ndarray, risky: np.ndarray, center_t: float) -> tuple[int, int]:
    """Inclusive index bounds of the run of risky samples nearest center_t,
    or of the sample nearest center_t when no sample is risky; risky is a
    bool array, one byte a sample."""
    center_i = int(np.argmin(np.abs(pts - center_t)))
    if not risky[center_i]:
        cand = np.flatnonzero(risky)
        if not cand.size:
            return center_i, center_i
        center_i = int(cand[np.argmin(np.abs(pts[cand] - center_t))])
    # the run ends at the calm samples (zero bytes) either side of its centre, or at an end
    flags = risky.tobytes()
    hi = flags.find(b"\0", center_i)
    return flags.rfind(b"\0", 0, center_i) + 1, (hi if hi >= 0 else pts.size) - 1


def solved_at(solve: Callable, rows: np.ndarray, t: np.ndarray) -> Any:
    """solve(rows), row k being the row at the point t[k]; a row it refuses
    raises its RowError again, named by that row's t (`RowError.at`)."""
    try:
        return solve(rows)
    except RowError as exc:
        raise exc.at(float(t[exc.index])) from None


def resolve_windows(grid: Grid, answers: Any, evaluate: Callable, solve: Callable, join: Callable,
                    steppers: list) -> list:
    """The answers of the window steppers (`resolve_window`) of the caller's
    grid, whose answers are `answers`, refined in lockstep: each round
    evaluates and solves the odd points of the next level of every live
    window as one block.  A level sub = parent.refine(lo, hi) takes its
    point 2j from the parent's point lo + j, whose bits it has
    (`Grid.refine`), and its odd points from the block.

    evaluate  points -> coefficient rows
    solve     rows -> answers; a refused row raises a RowError with its
              index, which `solved_at` names by its t
    join      (parent answers, block answers, take) -> the answers of the
              parent's points followed by the block's, at the indices take
    """
    out = [None] * len(steppers)
    asks = []  # (index, stepper, its last level, that level's answers, the level it asks for)

    def advance(k, stepper, level, held, samples):
        try:
            asks.append((k, stepper, level, held, stepper.send(samples)))
        except StopIteration as done:
            out[k] = done.value

    for k, stepper in enumerate(steppers):
        advance(k, stepper, grid, answers, None)
    while asks:
        todo = asks[:]
        asks.clear()
        odd = np.concatenate([sub.points[1::2] for *_, sub in todo])
        block = solved_at(solve, evaluate(odd), odd)
        start = 0
        for k, stepper, parent, held, sub in todo:
            lo, m = sub.first // 2 - parent.first, sub.n_cells // 2
            take = np.empty(sub.n_cells + 1, dtype=np.intp)
            take[0::2] = np.arange(lo, lo + m + 1)
            take[1::2] = parent.n_cells + 1 + start + np.arange(m)
            start += m
            held = join(held, block, take)
            advance(k, stepper, sub, held, held)
    return out


def resolve_window(
    grid: Grid,
    i0: int,
    i1: int,
    samples: Any,
    estimate: Callable[[np.ndarray, Any, float], Any],
    drift: Callable[[Any, Any], float],
    choose: Callable[[Any], Choice],
    finest: float,
):
    """A stepper for the window grid.points[i0..i1]: a generator that yields
    each refined grid it needs sampled and is sent its samples, and that
    returns the answer of the stable choice across the window, or None when
    the window stays unresolved.  `resolve_windows` drives it.

    samples   the caller's samples on `grid` itself
    estimate  (points, samples, centre time) -> an estimate with the fitted
              incoming slopes `left_slope` and the risky run's first and
              last point indices `run`, or None when the sides cannot be
              fitted
    drift     (previous estimate, estimate) -> relative slope drift
    choose    estimate -> Choice
    finest    the finest level the curve has values on: refinement stops
              there or at _MAX_LEVEL, whichever comes first
    """
    pts = grid.points
    center_t = 0.5 * (pts[i0] + pts[i1])
    est = estimate(pts, samples, center_t)
    if est is None:
        return None
    lo, hi = i0 - _SIDE_WINDOW - 1, i1 + _SIDE_WINDOW + 1
    side = (_SIDE_WINDOW + 2) // 2
    sub = grid
    prev = None
    prev_drift = np.inf
    while sub.level < min(finest, _MAX_LEVEL):
        sub = sub.refine(lo, hi)
        new_est = estimate(sub.points, (yield sub), center_t)
        if new_est is None:
            return None
        d = drift(est, new_est)
        choice = choose(new_est)
        if d <= _SLOPE_RTOL:
            return None if choice.ambiguous else choice.answer
        if prev is None:
            prev = choose(est)
        slope_scale = 1.0 + float(np.max(np.abs(new_est.left_slope)))
        if (
            choice.key == prev.key
            and not choice.ambiguous
            and not prev.ambiguous
            and choice.margin > 10.0 * d * slope_scale
            and np.isfinite(prev_drift)
            and d < 0.9 * prev_drift
        ):
            return choice.answer
        est, prev, prev_drift = new_est, choice, d
        lo, hi = new_est.run[0] - side, new_est.run[1] + side
    return None
