"""Deterministic minimal-cost matchings for branch pairing.

Pairings are tiny (a collision involves a handful of branches), so the
optimum is found exhaustively up to size 8 with fully deterministic
tie-breaking.  Larger problems are solved with scipy's Hungarian solver
(imported on first use): one solve gives the optimum, and k more, each with
one edge of the optimum forbidden, give the exact second-best cost, because
every other assignment leaves at least one of those edges out.  There the
result is ambiguous exactly when that margin is within tie_tol, and the
secondary cost is not used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_BRUTE_LIMIT = 8


@dataclass(frozen=True)
class AssignmentResult:
    perm: tuple[int, ...]   # row i is assigned to column perm[i]
    cost: float             # primary cost of the chosen assignment
    margin: float           # primary-cost gap to the best differing assignment
    ambiguous: bool         # ties survived the secondary criterion


def minimal_jump_assignment(
    primary: np.ndarray,
    secondary: np.ndarray | None = None,
    tie_tol: float = 1e-6,
) -> AssignmentResult:
    """Assignment minimizing total primary cost.

    Up to 8 rows, assignments within tie_tol of the optimum are re-ranked by
    the secondary cost; any ties left after that go to the lexicographically
    smallest permutation and are flagged ambiguous.  Above 8 rows the
    secondary cost is ignored and any tie within tie_tol is flagged
    ambiguous.
    """
    cost = np.asarray(primary, dtype=float)
    k = cost.shape[0]
    if cost.shape != (k, k):
        raise ValueError("cost matrix must be square")
    if k == 0:
        return AssignmentResult((), 0.0, float("inf"), False)
    if k <= _BRUTE_LIMIT:
        return _brute_force(cost, secondary, tie_tol)
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    runner_up = float("inf")
    for i, j in zip(rows, cols):
        masked = cost.copy()
        masked[i, j] = np.inf
        r, c = linear_sum_assignment(masked)
        runner_up = min(runner_up, float(masked[r, c].sum()))
    margin = runner_up - best
    return AssignmentResult(tuple(int(j) for j in cols), best, margin, margin <= tie_tol)


def _brute_force(cost, secondary, tie_tol) -> AssignmentResult:
    k = cost.shape[0]
    idx = np.arange(k)
    scored = []
    for perm in itertools.permutations(range(k)):
        scored.append((float(cost[idx, list(perm)].sum()), perm))
    scored.sort(key=lambda s: (s[0], s[1]))
    best_cost = scored[0][0]
    margin = float("inf")
    for c, p in scored[1:]:
        if p != scored[0][1]:
            margin = c - best_cost
            break
    tied = [p for c, p in scored if c <= best_cost + tie_tol]
    if len(tied) == 1 or secondary is None:
        return AssignmentResult(tied[0], best_cost, margin, len(tied) > 1 and secondary is None)
    sec = np.asarray(secondary, dtype=float)
    sec_scored = sorted(
        ((float(sec[idx, list(p)].sum()), p) for p in tied), key=lambda s: (s[0], s[1])
    )
    sec_best = sec_scored[0][0]
    sec_tied = [p for c, p in sec_scored if c <= sec_best + 1e-12 * (1.0 + abs(sec_best))]
    return AssignmentResult(sec_tied[0], best_cost, margin, len(sec_tied) > 1)
