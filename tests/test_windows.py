"""The shared window resolver, driven by a scripted fake caller."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from orbitlift import curvedsl as cd
from orbitlift import windows as wn

GRID = cd.Grid.dyadic(-1.0, 1.0, 5)  # the window is the single sample t = 0


class FakeCaller:
    """Estimates carry their grid level; the drift and the choice at each
    level come from the given functions of that level."""

    def __init__(self, drift, choice):
        self.drift_at = drift
        self.choice_at = choice
        self.levels = []  # levels of the refined grids sampled

    def sample(self, sub):
        self.levels.append(sub.level)
        return sub.level

    def estimate(self, pts, level, center_t):
        # the risky run is the point at the centre, as point indices
        i = int(np.argmin(np.abs(pts - center_t)))
        return SimpleNamespace(level=level, left_slope=np.array([1.0]), run=(i, i))

    def resolve(self, finest=math.inf):
        stepper = wn.resolve_window(
            GRID,
            16,
            16,
            GRID.level,
            self.estimate,
            lambda prev, est: self.drift_at(est.level),
            lambda est: self.choice_at(est.level),
            finest,
        )
        samples = None
        try:
            while True:
                samples = self.sample(stepper.send(samples))
        except StopIteration as done:
            return done.value


def clear(level):
    return wn.Choice("same", 100.0, False, f"level {level}")


def shrinking(level):
    return 0.4 * 0.5 ** (level - 6)  # stays above _SLOPE_RTOL until level 15


# sides of 2, 3 and 8 samples at the step of the level-9 lattice on
# 10.1:10.6, ending near 0 and near the far domain's crossing at t = 10.35
SIDES = [(n, end) for n in (2, 3, 8) for end in (0.0, 10.35)]


def side_times(n, end):
    return end + 2.0**-10 * np.arange(-n, 0)


class TestResolveWindow:
    def test_stable_slopes_with_ambiguous_choice_unresolved(self):
        caller = FakeCaller(lambda level: wn._SLOPE_RTOL, lambda level: clear(level)._replace(ambiguous=True))
        assert caller.resolve() is None
        assert caller.levels == [6]

    def test_stable_slopes_with_clear_choice_accepted(self):
        caller = FakeCaller(lambda level: wn._SLOPE_RTOL, clear)
        assert caller.resolve() == "level 6"

    def test_repeated_choice_with_shrinking_drift_accepted(self):
        caller = FakeCaller(shrinking, clear)
        # level 6 has no earlier drift to shrink from
        assert caller.resolve() == "level 7"
        assert caller.levels == [6, 7]

    def test_ambiguous_previous_choice_keeps_refining(self):
        caller = FakeCaller(shrinking, lambda level: clear(level)._replace(ambiguous=level == 6))
        assert caller.resolve() == "level 8"
        assert caller.levels == [6, 7, 8]

    def test_changed_key_keeps_refining(self):
        caller = FakeCaller(shrinking, lambda level: clear(level)._replace(key=min(level, 7)))
        assert caller.resolve() == "level 8"

    def test_small_margin_keeps_refining(self):
        # margin 1.5 against 10 x drift x slope scale 2: accepted once drift < 0.075
        caller = FakeCaller(shrinking, lambda level: clear(level)._replace(margin=1.5))
        assert caller.resolve() == "level 9"

    def test_max_level_unresolved(self):
        caller = FakeCaller(lambda level: 0.5, clear)
        assert caller.resolve() is None
        assert caller.levels == list(range(GRID.level + 1, wn._MAX_LEVEL + 1))

    @pytest.mark.parametrize("finest, levels", [
        (5, []), (8, [6, 7, 8]), (wn._MAX_LEVEL + 4, range(6, wn._MAX_LEVEL + 1)),
    ])
    def test_refinement_stops_at_the_curves_finest_level(self, finest, levels):
        """A CSV curve has no value past its own level: a window still
        unstable there is unresolved, and one stable there is accepted."""
        caller = FakeCaller(lambda level: 0.5, clear)
        assert caller.resolve(finest) is None
        assert caller.levels == list(levels)
        assert FakeCaller(shrinking, clear).resolve(finest=7) == "level 7"

    def test_windows_are_lattice_index_ranges(self):
        # level 6 covers the window and 9 points on each side, each later level
        # the risky run and 5 points on each side, all centred on t = 0
        caller = FakeCaller(lambda level: 0.5, clear)
        grids = []
        caller.sample = lambda sub: grids.append(sub) or sub.level
        caller.resolve()
        assert [(g.first, g.n_cells) for g in grids[:3]] == [(14, 36), (54, 20), (118, 20)]
        assert all(2 * g.first + g.n_cells == 2**g.level for g in grids)

    def test_failed_estimate_unresolved(self):
        caller = FakeCaller(shrinking, clear)
        caller.estimate = lambda pts, level, center_t: None
        assert caller.resolve() is None
        assert caller.levels == []


class TestHelpers:
    def test_risky_run_nearest_to_centre(self):
        pts = np.linspace(0.0, 1.0, 11)
        risky = np.zeros(11, dtype=bool)
        risky[[1, 2, 7, 8, 9]] = True
        assert wn.risky_run(pts, risky, 0.55) == (7, 9)
        assert wn.risky_run(pts, risky, 0.25) == (1, 2)

    def test_risky_run_without_risky_samples(self):
        pts = np.linspace(0.0, 1.0, 11)
        assert wn.risky_run(pts, np.zeros(11, dtype=bool), 0.42) == (4, 4)

    @staticmethod
    def _loop_risky_run(pts, risky, center_t):
        # the run walked sample by sample from the risky sample nearest center_t
        center_i = int(np.argmin(np.abs(pts - center_t)))
        if risky.any() and not risky[center_i]:
            cand = np.nonzero(risky)[0]
            center_i = int(cand[np.argmin(np.abs(pts[cand] - center_t))])
        lo = hi = center_i
        while lo - 1 >= 0 and risky[lo - 1]:
            lo -= 1
        while hi + 1 < pts.size and risky[hi + 1]:
            hi += 1
        return lo, hi

    def test_risky_run_matches_the_sample_walk(self):
        rng = np.random.default_rng(35)
        seen = set()
        for trial in range(3000):
            n = int(rng.integers(1, 40))
            pts = np.sort(rng.uniform(-1.0, 1.0, n)) if trial % 2 else np.linspace(-1.0, 1.0, n)
            risky = rng.uniform(size=n) < rng.choice([0.0, 0.2, 0.6, 0.95, 1.0])
            center_t = float(rng.uniform(-1.2, 1.2))
            got = wn.risky_run(pts, risky, center_t)
            assert got == self._loop_risky_run(pts, risky, center_t), (pts, risky, center_t)
            assert all(type(i) is int for i in got)
            centre = int(np.argmin(np.abs(pts - center_t)))
            seen.add("none" if not risky.any() else "calm centre" if not risky[centre] else "risky centre")
            if risky.any():
                seen.update({"first"} if got[0] == 0 else set())
                seen.update({"last"} if got[1] == n - 1 else set())
        assert seen == {"none", "calm centre", "risky centre", "first", "last"}

    def test_fit_side_recovers_slope_and_curvature(self):
        tc = np.linspace(-0.5, 0.5, 8)
        vals = np.stack([3.0 * tc + 1.0, 2.0 * tc * tc - tc], axis=1)
        slopes, quads = wn.fit_side(tc, vals)
        assert np.allclose(slopes, [3.0, -1.0])
        assert np.allclose(quads, [0.0, 2.0])

    def test_fit_side_matches_column_by_column_fits(self):
        # one least-squares solve for all columns rounds differently from a
        # solve per column, by a few ulp of the coefficients
        rng = np.random.default_rng(4)
        for tc in (np.linspace(-1e-4, 1e-4, 8), np.sort(rng.uniform(-0.3, 0.3, 8)), np.array([0.0, 0.1])):
            vals = rng.normal(size=(tc.size, 40)) * 10.0 ** rng.integers(-3, 3, 40)
            slopes, quads = wn.fit_side(tc, vals)
            for j in range(vals.shape[1]):
                fit1 = np.polyfit(tc, vals[:, j], 1)
                fit2 = np.polyfit(tc, vals[:, j], 2) if tc.size >= 3 else np.zeros(3)
                assert slopes[j] == pytest.approx(fit1[0], rel=1e-10, abs=1e-12 * np.abs(fit1).max())
                assert quads[j] == pytest.approx(fit2[0], rel=1e-10, abs=1e-12 * np.abs(fit2).max())

    @pytest.mark.parametrize("n, end", SIDES)
    def test_fit_side_recovers_exact_lines_and_quadratics(self, n, end):
        t = side_times(n, end)
        x = t - t[0]  # exact, and so are the values below
        vals = np.stack([3.0 + 2.0 * x, 3.0 - 2.0 * x + 0.5 * x * x, -1.5 * x * x], axis=1)
        slopes, quads = wn.fit_side(t, vals)
        # the rounding of values up to 3 over the side's span, and its square
        rounding = 64 * np.finfo(float).eps * 3.0
        assert slopes[0] == pytest.approx(2.0, rel=0, abs=rounding / x[-1])
        want = [0.0, 0.5, -1.5] if n >= 3 else [0.0, 0.0, 0.0]
        assert quads == pytest.approx(want, rel=0, abs=rounding / x[-1] ** 2)

    @pytest.mark.parametrize("n, end", SIDES)
    def test_fit_side_matches_polyfit(self, n, end):
        # np.polyfit on times near 10.35 loses up to 1e-8 of the leading
        # coefficients to its Vandermonde matrix; the times less the first
        # one (an exact subtraction) have the same leading coefficients
        rng = np.random.default_rng(n)
        t = side_times(n, end)
        vals = rng.normal(size=(n, 40)) * 10.0 ** rng.integers(-3, 3, 40)
        slopes, quads = wn.fit_side(t, vals)
        for j in range(vals.shape[1]):
            fit1 = np.polyfit(t - t[0], vals[:, j], 1)
            assert slopes[j] == pytest.approx(fit1[0], rel=0, abs=1e-12 * np.abs(fit1).max())
            if n >= 3:
                fit2 = np.polyfit(t - t[0], vals[:, j], 2)
                assert quads[j] == pytest.approx(fit2[0], rel=0, abs=1e-12 * np.abs(fit2).max())
            else:
                assert quads[j] == 0.0
