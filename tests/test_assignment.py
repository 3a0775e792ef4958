"""The minimal-slope-jump pairing `rootflow.minimal_jump_assignment`."""

import itertools

import numpy as np
import pytest

from orbitlift.rootflow import minimal_jump_assignment
from orbitlift.windows import Choice

# slopes of the nine lines c*t: sorted labels run from the largest slope on
# the left of the crossing and from the smallest on its right
_SLOPES = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def brute_force(left, right, left_quad, right_quad, tie_tol=1e-6):
    """Reference: rank every pairing by total slope jump, break ties within
    tie_tol by the curvature jump, then lexicographically."""
    k = len(left)
    idx = np.arange(k)
    primary = np.abs(left[:, None] - right[None, :])
    secondary = np.abs(left_quad[:, None] - right_quad[None, :])
    scored = sorted(
        (float(primary[idx, list(p)].sum()), p) for p in itertools.permutations(range(k))
    )
    best_cost, best = scored[0]
    margin = next((c - best_cost for c, p in scored[1:] if p != best), float("inf"))
    tied = [p for c, p in scored if c <= best_cost + tie_tol]
    sec_scored = sorted((float(secondary[idx, list(p)].sum()), p) for p in tied)
    sec_best = sec_scored[0][0]
    sec_tied = [p for c, p in sec_scored if c <= sec_best + 1e-12 * (1.0 + abs(sec_best))]
    return sec_tied[0], margin, len(sec_tied) > 1


class TestBruteForce:
    def test_unique_optimum_and_margin(self):
        res = minimal_jump_assignment([3.0, 0.0, 1.0], [1.25, 3.5, 0.0])
        assert res.key == (1, 2, 0)
        # runner-up swaps the two lowest ranks: 1.25 + 1 + 0.5 against 0 + 0.25 + 0.5
        assert res.margin == 2.0
        assert not res.ambiguous

    def test_primary_tie_settled_by_secondary(self):
        res = minimal_jump_assignment([1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0])
        assert res.key == (1, 0)
        assert res.margin == 0.0
        assert not res.ambiguous

    def test_tie_surviving_secondary_is_ambiguous(self):
        res = minimal_jump_assignment([2.0] * 3, [2.0] * 3, [0.0] * 3, [0.0] * 3)
        assert res.key == (0, 1, 2)
        assert res.ambiguous

    def test_empty(self):
        assert minimal_jump_assignment([], []) == Choice((), float("inf"), False, ())


class TestLargePairings:
    def test_nine_lines(self):
        res = minimal_jump_assignment(_SLOPES[::-1], _SLOPES)
        assert res.key == tuple(range(8, -1, -1))
        assert res.margin == 2.0
        assert not res.ambiguous

    def test_equal_rows_are_ambiguous(self):
        # beyond 8 branches a tie is flagged, not settled by the curvature
        rng = np.random.default_rng(5)
        left, right = rng.uniform(-1.0, 1.0, (2, 9))
        left[6] = left[2]
        res = minimal_jump_assignment(left, right, np.arange(9.0), np.zeros(9))
        assert res.margin == 0.0
        assert res.ambiguous

    def test_margin_matches_brute_force(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for k, count in ((2, 60), (3, 60), (4, 60), (5, 40), (6, 12), (7, 6)):
            for trial in range(count):
                if trial % 2:  # small integers: primary and secondary ties
                    vecs = [rng.integers(-2, 3, k).astype(float) for _ in range(4)]
                else:
                    vecs = [rng.normal(size=k) for _ in range(4)]
                perm, margin, ambiguous = brute_force(*vecs)
                res = minimal_jump_assignment(*vecs)
                assert res.key == perm
                assert res.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
                assert res.ambiguous == ambiguous
                outcomes.add((margin <= 1e-6, ambiguous))
        # unique optima, ties settled by the curvature and ties that survive it
        assert outcomes == {(False, False), (True, False), (True, True)}
