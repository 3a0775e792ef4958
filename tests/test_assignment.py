import numpy as np
import pytest

from orbitlift import assignment
from orbitlift.assignment import minimal_jump_assignment

# slopes of the nine lines c*t: sorted labels run from the largest slope on
# the left of the crossing and from the smallest on its right
_SLOPES = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
NINE_LINES = np.abs(_SLOPES[::-1, None] - _SLOPES[None, :])


class TestBruteForce:
    def test_unique_optimum_and_margin(self):
        cost = np.array([[0.0, 3.0, 5.0], [2.0, 0.5, 4.0], [6.0, 1.0, 0.25]])
        res = minimal_jump_assignment(cost)
        assert res.perm == (0, 1, 2)
        assert res.cost == 0.75
        # runner-up (0, 2, 1): 0 + 4 + 1
        assert res.margin == 4.25
        assert not res.ambiguous

    def test_primary_tie_settled_by_secondary(self):
        primary = np.ones((2, 2))
        secondary = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = minimal_jump_assignment(primary, secondary)
        assert res.perm == (1, 0)
        assert res.margin == 0.0
        assert not res.ambiguous

    def test_tie_surviving_secondary_is_ambiguous(self):
        primary = np.ones((3, 3))
        res = minimal_jump_assignment(primary, np.zeros((3, 3)))
        assert res.perm == (0, 1, 2)
        assert res.ambiguous

    def test_empty(self):
        res = minimal_jump_assignment(np.zeros((0, 0)))
        assert res == assignment.AssignmentResult((), 0.0, float("inf"), False)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            minimal_jump_assignment(np.zeros((2, 3)))


class TestLargePairings:
    def test_nine_lines(self):
        res = minimal_jump_assignment(NINE_LINES)
        assert res.perm == tuple(range(8, -1, -1))
        assert res.cost == 0.0
        assert res.margin == 2.0
        assert not res.ambiguous

    def test_equal_rows_are_ambiguous(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0.0, 1.0, (9, 9))
        cost[6] = cost[2]
        res = minimal_jump_assignment(cost)
        assert res.margin <= 1e-6
        assert res.ambiguous

    def test_margin_matches_brute_force(self, monkeypatch):
        rng = np.random.default_rng(11)
        cases = [rng.uniform(0.0, 1.0, (k, k)) for k in (2, 3, 4, 5, 6) for _ in range(8)]
        expected = [minimal_jump_assignment(c) for c in cases]
        monkeypatch.setattr(assignment, "_BRUTE_LIMIT", 0)
        for cost, ref in zip(cases, expected):
            res = minimal_jump_assignment(cost)
            assert res.cost == pytest.approx(ref.cost, abs=1e-14)
            assert res.margin == pytest.approx(ref.margin, abs=1e-14)
            assert not res.ambiguous
            assert res.perm == ref.perm
