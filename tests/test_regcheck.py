import numpy as np
import pytest

from orbitlift import regcheck as rc
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
