
import re

import numpy as np
import pytest

import certify_oracle
from catalog_checks import certify_entry
from orbitlift import catalog
from orbitlift import curvedsl as cd
from orbitlift import regcheck as rc
from orbitlift import rootflow as rf
from orbitlift.errors import GridTooCoarse, InvalidWindow

DOM = (-1.0, 1.0)


class TestDifferenceQuotients:
    def test_identity_line(self):
        t = np.linspace(-1, 1, 17)
        d = rc.difference_quotients(t, t[1] - t[0], 1)
        assert np.allclose(d, 1.0)

    def test_second_difference_exact_on_quadratic(self):
        t = np.linspace(-1, 1, 17)
        d = rc.difference_quotients(t * t, t[1] - t[0], 2)
        assert np.allclose(d, 2.0)  # exact, ends included

    def test_abs_quotient_pattern(self):
        t = np.linspace(-1, 1, 9)  # symmetric grid, 0 included
        d = rc.difference_quotients(np.abs(t), t[1] - t[0], 1)
        mid = t.size // 2
        assert d[mid] == 0.0
        assert np.allclose(np.delete(d, mid), np.sign(np.delete(t, mid)))

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            rc.difference_quotients([1.0, 2.0], 1.0, 2)

    @pytest.mark.parametrize("order", [1, 2])
    def test_columns_keep_the_bits_of_their_own_call(self, order):
        rng = np.random.default_rng(order)
        block = rng.normal(size=(33, 5)) * 10.0 ** rng.integers(-3, 3, 5)
        got = rc.difference_quotients(block, 0.0625, order)
        assert got.shape == block.shape
        for j in range(block.shape[1]):
            assert got[:, j].tobytes() == rc.difference_quotients(block[:, j], 0.0625, order).tobytes()


class TestCertifyVerdicts:
    def test_line_is_twice(self):
        rep = rc.certify(lambda t: t, DOM)
        assert rep.verdict == rc.TWICE

    def test_sqrt_cusp_unbounded(self):
        # closed-form: the quotient at the first off-zero node is
        # (f(2h)-f(0))/(2h) = (2h)^(-1/2), growing by sqrt(2) per level
        h = 2.0 ** -8
        assert (2 * h) ** 0.5 / (2 * h) == pytest.approx((2 * h) ** -0.5)
        rep = rc.certify(lambda t: np.abs(t) ** 0.5, DOM)
        assert rep.verdict == rc.UNBOUNDED
        assert np.all((rep.growth_d1[-3:] > 1.3) & (rep.growth_d1[-3:] < 1.5))

    def test_signed_square_c1_not_twice(self):
        # order-2 quotients jump from -2 to +2 across 0 and never converge
        f = lambda t: np.sign(t) * t * t
        t = np.linspace(-1, 1, 33)
        d2 = rc.difference_quotients(f(t), t[1] - t[0], 2)
        mid = t.size // 2
        assert d2[mid - 1] == pytest.approx(-2.0)
        assert d2[mid + 1] == pytest.approx(2.0)
        rep = rc.certify(f, DOM)
        assert rep.verdict == rc.C1

    def test_corner_is_lipschitz(self):
        rep = rc.certify(np.abs, DOM)
        assert rep.verdict == rc.LIPSCHITZ

    def test_three_halves_power_c1(self):
        rep = rc.certify(lambda t: np.sign(t) * np.abs(t) ** 1.5, DOM)
        assert rep.verdict == rc.C1

    def test_five_halves_power_twice(self):
        rep = rc.certify(lambda t: np.sign(t) * np.abs(t) ** 2.5, DOM)
        assert rep.verdict == rc.TWICE

    def test_slow_decay_differentiable_bucket(self):
        # derivative ~ |t|^0.2: continuous but quotients converge slowly
        rep = rc.certify(lambda t: np.sign(t) * np.abs(t) ** 1.2, DOM)
        assert rep.verdict == rc.DIFFABLE

    def test_intermediate_growth_inconclusive(self):
        rep = rc.certify(lambda t: np.abs(t) ** 0.8, DOM)
        assert rep.verdict == rc.INCONCLUSIVE

    def test_rank_ordering(self):
        assert rc.VERDICT_RANK[rc.TWICE] > rc.VERDICT_RANK[rc.C1]
        assert rc.VERDICT_RANK[rc.C1] > rc.VERDICT_RANK[rc.DIFFABLE]
        assert rc.VERDICT_RANK[rc.DIFFABLE] > rc.VERDICT_RANK[rc.LIPSCHITZ]
        assert rc.VERDICT_RANK[rc.LIPSCHITZ] > rc.VERDICT_RANK[rc.INCONCLUSIVE]


class TestCertifyProperties:
    @pytest.mark.parametrize("coeffs", [(0.3,), (1.0, -2.0), (0.5, 1.0, -0.7), (2.0, 0.0, -1.0, 0.25)])
    def test_low_degree_polynomials_twice(self, coeffs):
        rep = rc.certify(lambda t: np.polyval(coeffs, t), DOM)
        assert rep.verdict == rc.TWICE

    @pytest.mark.parametrize("fn", [np.abs, lambda t: np.abs(t) ** 0.5, lambda t: np.sign(t) * t * t])
    def test_affine_reparameterization_invariance(self, fn):
        base = rc.certify(fn, DOM).verdict
        alpha, beta = 2.0, 0.375
        rep = rc.certify(lambda s: fn(alpha * s + beta),
                         ((DOM[0] - beta) / alpha, (DOM[1] - beta) / alpha))
        assert rep.verdict == base

    @pytest.mark.parametrize("fn", [np.abs, lambda t: np.abs(t) ** 0.5, lambda t: t * t])
    def test_value_scaling_scales_evidence(self, fn):
        s = 256.0
        rep1 = rc.certify(fn, DOM)
        rep2 = rc.certify(lambda t: s * fn(t), DOM)
        assert rep2.verdict == rep1.verdict
        assert np.allclose(rep2.sup_d1, s * rep1.sup_d1, rtol=1e-12)
        assert np.allclose(rep2.sup_d2, s * rep1.sup_d2, rtol=1e-12)

    def test_constant_shift_invariance(self):
        rep1 = rc.certify(np.abs, DOM)
        rep2 = rc.certify(lambda t: np.abs(t) + 17.25, DOM)
        assert rep2.verdict == rep1.verdict
        assert np.allclose(rep2.sup_d1, rep1.sup_d1)


class TestSamplesPath:
    def test_matches_callable_path(self):
        f = lambda t: np.abs(t) ** 0.5
        top = 9
        t = np.linspace(DOM[0], DOM[1], 2**top + 1)
        rep_s = rc.certify_samples(f(t), DOM, levels=6)
        rep_c = rc.certify(f, DOM, levels=6, base_level=top - 5)
        assert rep_s.verdict == rep_c.verdict
        assert rep_s.to_text() == rep_c.to_text()

    def test_rejects_non_dyadic(self):
        with pytest.raises(GridTooCoarse):
            rc.certify_samples(np.zeros(100), DOM)

    @pytest.mark.parametrize("samples, domain", [
        # the noise floor 1e-12 V / h^2 overflows: 1e300 t over h = 1e-103
        (1e300 * np.linspace(0.0, 1e-100, 1025), (0.0, 1e-100)),
        # the floors are finite (1e297), the second quotients 4e300 / h^2 are not
        (1e300 * (-1.0) ** np.arange(65), (0.0, 64 * 3e-5)),
    ], ids=["floor", "quotient"])
    def test_overflowing_quotients_are_refused(self, samples, domain):
        with pytest.raises(InvalidWindow, match="overflow"):
            rc.certify_samples(samples, domain, levels=4)


oracle_report = certify_oracle.certify_row


def catalog_branches():
    """(branch row, domain) of every catalog entry's selection at level 8."""
    for entry in catalog.CATALOG:
        grid = cd.Grid.dyadic(*entry.domain, 8)
        sel = rf.differentiable_selection(cd.CoeffCurve.from_exprs(list(entry.components)), grid)
        for j, branch in enumerate(sel.branches):
            yield pytest.param(branch, entry.domain, id=f"{entry.name}-{j}")


def seeded_rows():
    """(row, domain): a random walk, noise, a smooth row and a spike, on a
    dyadic and a non-dyadic domain."""
    rng = np.random.default_rng(26)
    t = cd.Grid.dyadic(-0.3, 0.5, 9).points
    rows = {
        "walk": np.cumsum(rng.normal(size=513)),
        "noise": rng.normal(size=513) * 1e-7,
        "smooth": np.sin(7 * t) * 1e5 + np.abs(t - 0.1) ** 1.5,
        "spike": np.where(np.arange(513) == 301, 1.0, 0.0),
    }
    for name, row in rows.items():
        for domain in ((-1.0, 1.0), (-0.3, 0.5)):
            yield pytest.param(row, domain, id=f"{name}-{domain[0]}:{domain[1]}")


class TestLeanPass:
    """The lean certificate pass against the loop it replaced
    (tests/certify_oracle.py)."""

    @pytest.mark.parametrize("row, domain", [*catalog_branches(), *seeded_rows()])
    def test_same_text_as_the_oracle(self, row, domain):
        for levels in (4, 6):
            assert rc.certify_samples(row, domain, levels).to_text() == oracle_report(row, domain, levels).to_text()

    @pytest.mark.parametrize("samples, domain", [
        (1e300 * np.linspace(0.0, 1e-100, 1025), (0.0, 1e-100)),
        (1e300 * (-1.0) ** np.arange(65), (0.0, 64 * 3e-5)),
    ], ids=["floor", "quotient"])
    def test_overflow_refused_by_both(self, samples, domain):
        messages = []
        for certify in (rc.certify_samples, oracle_report):
            with pytest.raises(InvalidWindow, match="overflow") as exc:
                certify(samples, domain, 4)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_witnesses_are_the_finest_levels(self):
        # a kink at t = 0.2, between the points of every level: the largest
        # quotients sit at the points next to it, which differ from level to level
        t = cd.Grid.dyadic(-1.0, 1.0, 9).points
        f = np.abs(t - 0.2) - 0.3 * t * t
        rep = rc.certify_samples(f, (-1.0, 1.0), 6)
        h = t[1] - t[0]
        d1, d2 = rc.difference_quotients(f, h, 1), rc.difference_quotients(f, h, 2)
        assert rep.witnesses["sup_d1"] == (float(t[np.argmax(np.abs(d1))]), rep.levels[-1].sup_d1)
        assert rep.witnesses["sup_d2"] == (float(t[np.argmax(np.abs(d2))]), rep.levels[-1].sup_d2)
        assert rep.witnesses["cauchy_d1"][1] == rep.levels[-1].cauchy_d1
        assert rep.witnesses["cauchy_d2"][1] == rep.levels[-1].cauchy_d2
        assert list(rep.witnesses) == ["sup_d1", "sup_d2", "cauchy_d1", "cauchy_d2"]


class TestReportText:
    def test_fixed_field_order_and_determinism(self):
        rep = rc.certify(lambda t: np.sign(t) * t * t, DOM, levels=4)
        text1 = rep.to_text()
        text2 = rc.certify(lambda t: np.sign(t) * t * t, DOM, levels=4).to_text()
        assert text1 == text2
        lines = text1.splitlines()
        assert lines[0] == "verdict: C1"
        assert lines[2] == "levels: 4"
        assert any(line.startswith("witness.sup_d1.t: ") for line in lines)

    def test_golden_line_layout(self):
        rep = rc.certify(lambda t: t, (0.0, 1.0), levels=4, base_level=4)
        lines = rep.to_text().splitlines()
        # stable skeleton: verdict, note, levels, 5 thresholds, 7 per level, 8 witness
        assert len(lines) == 3 + 5 + 7 * 4 + 8
        assert lines[0] == "verdict: twice-differentiable"
        assert "level[0].h: 0.0625" in lines

    def test_golden_report_frozen(self):
        # exact expected serialization for sign(t)*t^2 on [-1,1], levels 4..7;
        # quotients of this piecewise quadratic are dyadic-exact, so the text
        # is reproducible bit for bit
        rep = rc.certify(lambda t: np.sign(t) * t * t, (-1.0, 1.0), levels=4, base_level=4)
        expected = (
            "verdict: C1\n"
            "note: empirical certificate; verdicts mean consistent-with at the"
            " sampled resolution, not proof\n"
            "levels: 4\n"
            "thresholds.unbounded_growth: 1.4142135623730951\n"
            "thresholds.bounded_growth: 1.05\n"
            "thresholds.c1_decay: 0.75\n"
            "thresholds.diffable_decay: 0.94999999999999996\n"
            "thresholds.converged_floor: 1.0000000000000001e-09\n"
            "level[0].k: 4\n"
            "level[0].h: 0.125\n"
            "level[0].sup_d1: 1.875\n"
            "level[0].sup_d2: 2\n"
            "level[0].cauchy_d1: nan\n"
            "level[0].cauchy_d2: nan\n"
            "level[0].growth_d1: nan\n"
            "level[1].k: 5\n"
            "level[1].h: 0.0625\n"
            "level[1].sup_d1: 1.9375\n"
            "level[1].sup_d2: 2\n"
            "level[1].cauchy_d1: 0.0625\n"
            "level[1].cauchy_d2: 1\n"
            "level[1].growth_d1: 1.0333333333333334\n"
            "level[2].k: 6\n"
            "level[2].h: 0.03125\n"
            "level[2].sup_d1: 1.96875\n"
            "level[2].sup_d2: 2\n"
            "level[2].cauchy_d1: 0.03125\n"
            "level[2].cauchy_d2: 1\n"
            "level[2].growth_d1: 1.0161290322580645\n"
            "level[3].k: 7\n"
            "level[3].h: 0.015625\n"
            "level[3].sup_d1: 1.984375\n"
            "level[3].sup_d2: 2\n"
            "level[3].cauchy_d1: 0.015625\n"
            "level[3].cauchy_d2: 1\n"
            "level[3].growth_d1: 1.0079365079365079\n"
            "witness.sup_d1.t: -1\n"
            "witness.sup_d1.value: 1.984375\n"
            "witness.sup_d2.t: -1\n"
            "witness.sup_d2.value: 2\n"
            "witness.cauchy_d1.t: -1\n"
            "witness.cauchy_d1.value: 0.015625\n"
            "witness.cauchy_d2.t: -0.015625\n"
            "witness.cauchy_d2.value: 1\n"
        )
        assert rep.to_text() == expected


class TestVerdictMonotonicity:
    """C1 implies the lipschitz thresholds passed; twice implies C1 passed."""

    @pytest.mark.parametrize(
        "fn",
        [lambda t: t, lambda t: np.sign(t) * t * t, lambda t: np.sign(t) * np.abs(t) ** 1.5,
         lambda t: t ** 3, np.abs],
    )
    def test_higher_verdicts_satisfy_lower_thresholds(self, fn):
        rep = rc.certify(fn, DOM)
        rank = rc.VERDICT_RANK[rep.verdict]
        if rank >= rc.VERDICT_RANK[rc.LIPSCHITZ]:
            tail = rep.growth_d1[-rc.WINDOW:]
            assert np.all(tail <= rc.BOUNDED_GROWTH * (1 + rc.GROWTH_RTOL))
        if rank >= rc.VERDICT_RANK[rc.C1]:
            cauchy = np.array([lv.cauchy_d1 for lv in rep.levels[1:]])
            floor = rc.CONVERGED_FLOOR * rep.sup_d1.max()
            ratios = [
                0.0 if b <= floor else b / a for a, b in zip(cauchy, cauchy[1:])
            ]
            assert all(r <= rc.C1_DECAY for r in ratios[-rc.WINDOW:])


def sigma_of_line(spec, p, q):
    """sigma(p + t q) as a coefficient curve, and its group and map."""
    from orbitlift import invariants as inv

    group = inv.parse_group(spec)
    sigma = inv.orbit_map(group)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)

    return cd.CoeffCurve(lambda t: sigma.evaluate(p + np.multiply.outer(t, q)), sigma.n_invariants), group, sigma


# lines through V, each crossing a mirror of its group inside -1:1
LIFTED_LINES = {
    "A:3": ([0.3, -0.4, 1.1, 2.0], [1.0, 1.5, -0.5, 0.2]),
    "B:4": ([0.3, 1.2, -2.0, 2.9], [1.0, -0.5, 0.4, 0.3]),
    "D:4": ([0.25, 1.3, -2.1, 3.0], [-1.0, 0.6, 0.3, -0.2]),
    "I2:5": ([0.9, 0.2], [0.1, 0.8]),
}


class TestBlockCertificate:
    """The block form of certify_samples against the per-column oracle,
    column by column and bit for bit."""

    @staticmethod
    def assert_each_column(reports, block, domain, levels):
        assert len(reports) == block.shape[1]
        for j, rep in enumerate(reports):
            want = certify_oracle.certify_row(block[:, j], domain, levels)
            assert rep.to_text() == want.to_text()
            assert rep.witnesses == want.witnesses

    @pytest.mark.parametrize("spec", sorted(LIFTED_LINES))
    @pytest.mark.parametrize("level", range(5, 11))
    def test_lift_values(self, spec, level):
        from orbitlift import lifting

        curve, group, sigma = sigma_of_line(spec, *LIFTED_LINES[spec])
        lift = lifting.lift_curve(group, sigma, curve, cd.Grid.dyadic(-1.0, 1.0, level))
        levels = min(6, level)
        self.assert_each_column(lift.reports, lift.values, DOM, levels)
        for lv in (4, levels):
            self.assert_each_column(rc.certify_samples(lift.values, DOM, lv), lift.values, DOM, lv)

    def test_constant_column_takes_the_flat_floor(self):
        t = cd.Grid.dyadic(-0.3, 0.5, 8).points
        block = np.stack([t * t, np.full(t.size, 3.0), np.abs(t - 0.1), np.zeros(t.size)], axis=1)
        reports = rc.certify_samples(block, (-0.3, 0.5), 6)
        self.assert_each_column(reports, block, (-0.3, 0.5), 6)
        assert reports[1].verdict == reports[3].verdict == rc.TWICE

    def test_a_row_is_a_block_of_one_column(self):
        t = cd.Grid.dyadic(-1.0, 1.0, 9).points
        row = np.abs(t - 0.2) ** 1.5
        (rep,) = rc.certify_samples(row[:, None], DOM, 6)
        assert rep.to_text() == rc.certify_samples(row, DOM, 6).to_text()

    def test_points_that_collide_above_two_to_the_53(self):
        # steps of 1 where the spacing of floats reaches 2: points collide,
        # and np.interp takes the last of equal points, as the block must
        domain = (2.0**53 - 64, 2.0**53 + 64)
        t = cd.Grid.dyadic(*domain, 7).points
        assert (np.diff(t) == 0.0).any() and t[1] - t[0] == 1.0
        s = np.arange(t.size, dtype=float)
        block = np.stack([np.sin(s / 10), (s - 100.0) ** 2, np.abs(s - 77.0)], axis=1)
        self.assert_each_column(rc.certify_samples(block, domain, 6), block, domain, 6)
        # one level finer the first step rounds to 0: refused, with no warning
        s = np.arange(257, dtype=float)
        with pytest.raises(InvalidWindow, match="overflow"):
            rc.certify_samples(np.stack([s, s * s], axis=1), domain, 6)

    def test_first_overflowing_column_raises_the_loops_text(self):
        # the second and third columns overflow their second quotients, at
        # different value scales; the loop raised at the second
        domain = (0.0, 64 * 3e-5)
        wiggle = (-1.0) ** np.arange(65)
        block = np.stack([np.linspace(0.0, 1.0, 65), 1e300 * wiggle, 1.5e300 * wiggle], axis=1)
        with pytest.raises(InvalidWindow) as want:
            for j in range(block.shape[1]):
                certify_oracle.certify_row(block[:, j], domain, 4)
        with pytest.raises(InvalidWindow) as got:
            rc.certify_samples(block, domain, 4)
        assert str(got.value) == str(want.value)
        assert "values up to 1e+300 overflow" in str(got.value)

    def test_step_that_squares_to_zero_is_refused(self):
        block = np.zeros((17, 3))
        with pytest.raises(InvalidWindow) as want:
            certify_oracle.certify_row(block[:, 0], (0.0, 1e-300), 4)
        with pytest.raises(InvalidWindow) as got:
            rc.certify_samples(block, (0.0, 1e-300), 4)
        assert str(got.value) == str(want.value)
        assert "squares to 0" in str(got.value)


class TestOneCertificateCallPerResult:
    @staticmethod
    def calls(run):
        from unittest import mock

        with mock.patch.object(rc, "certify_samples", wraps=rc.certify_samples) as spy:
            run()
        return spy.call_count

    def test_lift_curve(self):
        from orbitlift import lifting

        curve, group, sigma = sigma_of_line("B:4", *LIFTED_LINES["B:4"])
        grid = cd.Grid.dyadic(-1.0, 1.0, 8)
        assert self.calls(lambda: lifting.lift_curve(group, sigma, curve, grid)) == 1

    def test_select_command(self, capsys):
        from orbitlift.cli import main

        assert self.calls(lambda: main(["select", "--curve=-6*t,9*t^2-2.25,0", "--level", "8"])) == 1
        assert len(re.findall(r"^\w+\[\w+\]\.verdict: ", capsys.readouterr().out, re.M)) == 3

    def test_certify_csv(self, tmp_path, capsys):
        from orbitlift.cli import main

        t = cd.Grid.dyadic(-1.0, 1.0, 8).points
        path = tmp_path / "three.csv"
        cd.write_samples_csv(path, t, np.stack([t, t * t, np.abs(t)], axis=1), ["a", "b", "c"])
        assert self.calls(lambda: main(["certify", "--csv", str(path)])) == 1
        assert len(re.findall(r"^\w+\[\w+\]\.verdict: ", capsys.readouterr().out, re.M)) == 3

    def test_catalog_entry(self):
        entry = catalog.get("constant-cubic")
        assert self.calls(lambda: certify_entry(entry, level=8)) == 1
