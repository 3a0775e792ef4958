import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_kernels
from orbitlift import hyperpoly as hp
from orbitlift.errors import NotFinite, NotHyperbolic, RootSolveFailed


def expand_product(roots):
    # hand oracle: multiply out prod (x - r) one factor at a time
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return c


class TestFromRoots:
    def test_double_zero(self):
        p = hp.from_roots([0.0, 0.0])
        assert p.degree == 2
        assert np.allclose(p.coeffs, [0.0, 0.0])

    def test_pm_one(self):
        p = hp.from_roots([-1.0, 1.0])
        assert np.allclose(p.coeffs, [0.0, -1.0])  # x^2 - 1

    def test_one_two_three(self):
        p = hp.from_roots([1.0, 2.0, 3.0])
        # oracle: (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        oracle = expand_product([1.0, 2.0, 3.0])
        assert np.allclose(oracle, [1.0, -6.0, 11.0, -6.0])
        assert np.allclose(p.coeffs, [6.0, 11.0, 6.0])
        assert np.allclose(p.full_coeffs(), oracle)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            hp.from_roots([np.nan, 1.0])


class TestEvaluate:
    def test_square_minus_one(self):
        p = hp.MonicHyperbolic([0.0, -1.0])
        assert hp.evaluate(p, 2.0) == 3.0

    def test_square(self):
        p = hp.MonicHyperbolic([0.0, 0.0])
        assert hp.evaluate(p, 5.0) == 25.0

    def test_cubic_at_four(self):
        # x^3 - 6x^2 + 11x - 6 at 4: 64 - 96 + 44 - 6 = 6
        p = hp.MonicHyperbolic([6.0, 11.0, 6.0])
        assert hp.evaluate(p, 4.0) == pytest.approx(6.0, abs=1e-12)

    def test_vectorized(self):
        p = hp.MonicHyperbolic([0.0, -1.0])
        out = hp.evaluate(p, np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [-1.0, 0.0, 3.0])


class TestRoots:
    def test_square_minus_one(self):
        p = hp.MonicHyperbolic([0.0, -1.0])
        assert np.allclose(hp.roots(p).values, [-1.0, 1.0])

    def test_double_root_at_zero(self):
        p = hp.MonicHyperbolic([0.0, 0.0])
        assert np.allclose(hp.roots(p).values, [0.0, 0.0])

    def test_cubic(self):
        p = hp.MonicHyperbolic([6.0, 11.0, 6.0])
        assert np.allclose(hp.roots(p).values, [1.0, 2.0, 3.0], atol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R = np.sort(rng.uniform(-10, 10, 6))
            p = hp.from_roots(R)
            got = hp.roots(p, 1e-10).values
            res = np.max(np.abs(hp.evaluate(p, got)))
            assert res <= 1e-10 * (1.0 + np.max(np.abs(p.coeffs)))

    def test_not_hyperbolic_raises(self):
        with pytest.raises(NotHyperbolic):
            hp.roots(hp.MonicHyperbolic([0.0, 1.0]))

    def test_triple_root(self):
        p = hp.from_roots([1.3, 1.3, 1.3, -2.0])
        assert np.allclose(hp.roots(p).values, [-2.0, 1.3, 1.3, 1.3], atol=1e-9)

    def test_deterministic(self):
        p = hp.from_roots([0.3, 0.3, -5.0, 2.2])
        a = hp.roots(p).values
        b = hp.roots(p).values
        assert a.tobytes() == b.tobytes()

    def test_near_double_collapses(self):
        # gap below tol^(1/2) collapses to the cluster mean
        p = hp.from_roots([1.0, 1.0 + 1e-8])
        got = hp.roots(p, 1e-10).values
        assert got[0] == got[1]
        assert abs(got[0] - 1.0) < 1e-7

    def test_tol_ball_promotion(self):
        # x^2 + 1e-12 is within tol of hyperbolic
        p = hp.MonicHyperbolic([0.0, 1e-12])
        got = hp.roots(p, 1e-10).values
        assert np.allclose(got, [0.0, 0.0], atol=1e-6)

    def test_near_pair_beside_a_double_root_keeps_its_gap(self):
        # a gap of 4.7e-5 is wider than the collapse width tol^(1/2) = 1e-5
        gap = 4.6534644880580345e-05
        exact = [-10.62068512] * 2 + [-3.71660794, -3.71660794 + gap, 3.62783631, 10.07129047]
        got = hp.roots(hp.from_roots(exact)).values
        assert got[0] == got[1]
        assert got[3] - got[2] > 0.99 * gap
        assert np.max(np.abs(got - np.sort(exact))) < 1e-9

    def test_exact_zero_roots_are_deflated(self):
        # a double root at 0 beside two simple ones: the B:4 squares-polynomial
        # of (0, 0, 1, 25)
        p = hp.MonicHyperbolic([626.0, 625.0, 0.0, 0.0])
        assert hp.roots(p).values.tolist() == [0.0, 0.0, 1.0, 625.0]

    def test_four_fold_cluster_collapses_to_its_centroid(self):
        # a cluster 2.3e-4 wide, narrower than tol^(1/4) = 3.2e-3; each
        # root of the derivative's triple critical point counts, so the
        # zero critical value carries all four roots
        cluster = [-4.346971069463818, -4.346873115528429, -4.346858284781638, -4.346736431558016]
        got = hp.roots(hp.from_roots(cluster + [0.465977399321833, 4.4088930173543766])).values
        assert np.all(got[:4] == got[0])
        assert abs(got[0] - np.mean(cluster)) < 1e-8
        assert np.allclose(got[4:], [0.465977399321833, 4.4088930173543766], rtol=0, atol=1e-12)


def hyperbolic(p, tol=1e-10):
    # hyperbolic up to tol: roots() does not raise NotHyperbolic
    try:
        hp.roots(p, tol)
    except NotHyperbolic:
        return False
    return True


class TestIsHyperbolic:
    def test_complex_pair(self):
        with pytest.raises(NotHyperbolic):
            hp.roots(hp.MonicHyperbolic([0.0, 1.0]))

    def test_double_root(self):
        hp.roots(hp.MonicHyperbolic([0.0, 0.0]))

    def test_depressed_cubic_by_discriminant(self):
        # x^3 + px + q with p=-3, q=1: discriminant -4p^3 - 27q^2 = 81 > 0
        pcoef, qcoef = -3.0, 1.0
        assert -4 * pcoef**3 - 27 * qcoef**2 == 81.0
        hp.roots(hp.MonicHyperbolic([0.0, -3.0, -1.0]))

    def test_quartic_with_complex_pair(self):
        # (x^2+4)(x-1)(x-2): two real roots only
        c = np.convolve([1.0, 0.0, 4.0], np.convolve([1.0, -1.0], [1.0, -2.0]))
        a = c[1:] * (-1.0) ** np.arange(1, 5)
        with pytest.raises(NotHyperbolic):
            hp.roots(hp.MonicHyperbolic(a))


class TestRoundTrip:
    def test_random_multisets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            R = np.sort(rng.uniform(-10.0, 10.0, n))
            got = hp.roots(hp.from_roots(R), 1e-10).values
            assert got.size == n
            assert np.max(np.abs(got - R)) < 1e-7

    def test_shift_property(self):
        rng = np.random.default_rng(7)
        R = np.sort(rng.uniform(-5.0, 5.0, 6))
        s = 3.25
        base = hp.roots(hp.from_roots(R)).values
        shifted = hp.roots(hp.from_roots(R + s)).values
        assert np.max(np.abs(shifted - (base + s))) < 1e-7

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_from_roots_always_hyperbolic(self, root_list):
        # Adjacent multiplicity clusters can sit closer to the tol-ball
        # boundary than the coefficient rounding of from_roots itself; such
        # inputs are undecidable at the default tolerance and must certify
        # at one commensurate with their conditioning.
        p = hp.from_roots(root_list)
        assert hyperbolic(p) or hyperbolic(p, 1e-7)

    def test_clusters_up_to_four_fold(self):
        # an m-fold cluster (m <= 4) up to 1e-4 wide beside separated roots:
        # collapsed, it is off by at most its width; resolved, each root by
        # about (eps * scale)^(1/m)
        rng = np.random.default_rng(41)
        for _ in range(400):
            m = int(rng.integers(2, 5))
            centre = rng.uniform(-5.0, 5.0)
            cluster = centre + 10.0 ** rng.uniform(-8.0, -4.0) * rng.uniform(0.0, 1.0, m)
            others = [x for x in rng.uniform(-6.0, 6.0, int(rng.integers(0, 4))) if abs(x - centre) > 0.5]
            R = np.sort(np.concatenate([cluster, others]))
            p = hp.from_roots(R)
            got = hp.roots(p).values
            allow = np.ptp(cluster) + 10.0 * (np.finfo(float).eps * (1.0 + np.max(np.abs(p.coeffs)))) ** (1.0 / m)
            assert np.max(np.abs(got - R)) <= allow, R

    def test_adversarial_clusters_certify_at_conditioning_tolerance(self):
        rng = np.random.default_rng(999)
        for _ in range(150):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            base = rng.uniform(-10, 10, k)
            R = np.round(base[rng.integers(0, k, n)], int(rng.integers(1, 5)))
            p = hp.from_roots(R)
            assert hyperbolic(p) or hyperbolic(p, 1e-7)


def bits(a):
    # exact bit pattern, including the sign of zero, dtype and shape
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def numpy_eval_noise(c, x):
    # the numpy-scalar formula the float kernel replaces
    ax = abs(x)
    acc = abs(c[0])
    for coef in c[1:]:
        acc = acc * ax + abs(coef)
    return 2.0 * c.size * np.finfo(float).eps * acc


def numpy_taylor_shift(c, mu):
    b = c.copy()
    for i in range(1, b.size):
        for j in range(1, b.size - i + 1):
            b[j] += mu * b[j - 1]
    return b


class TestFloatKernels:
    """The float kernels reproduce the numpy kernels bit for bit."""

    def test_horner_scalar_matches_array_path(self):
        rng = np.random.default_rng(21)
        for deg in range(0, 9):
            for _ in range(40):
                c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-4, 5)
                x = rng.normal() * 10.0 ** rng.integers(-3, 4)
                ref = hp._horner(c, np.array([x]))[0]
                for xs in (float(x), np.float64(x)):
                    got = hp._horner(c, xs)
                    assert type(got) is float
                    assert bits(got) == bits(ref)

    def test_horner_degree_one(self):
        for c, x in [([1.0, -0.0], 0.0), ([1.0, 0.0], -0.0), ([3.0, 1e-300], -1e-300), ([1.0, 2.0], 0.1)]:
            c = np.array(c)
            assert bits(hp._horner(c, x)) == bits(hp._horner(c, np.array([x]))[0])

    def test_eval_noise_matches_numpy_formula(self):
        rng = np.random.default_rng(24)
        for deg in range(0, 9):
            for _ in range(40):
                c = rng.normal(size=deg + 1) * 10.0 ** rng.integers(-4, 5)
                x = np.float64(rng.normal() * 10.0 ** rng.integers(-3, 4))
                assert bits(scalar_kernels.eval_noise(c.tolist(), x)) == bits(float(numpy_eval_noise(c, x)))

    def test_taylor_shift_matches_numpy(self):
        rng = np.random.default_rng(25)
        for deg in range(1, 9):
            c = np.concatenate(([1.0], rng.normal(size=deg)))
            mu = np.float64(rng.normal())
            assert bits(hp._taylor_shift(c, mu)) == bits(numpy_taylor_shift(c, mu))

    def test_horner_rows_matches_horner(self):
        # the rebuild evaluates its anchors on arrays and must see the bits
        # of the float loop: values and noise bounds alike
        rng = np.random.default_rng(26)
        for deg in range(0, 9):
            c = rng.normal(size=(30, deg + 1)) * 10.0 ** rng.integers(-4, 5, (30, 1))
            x = rng.normal(size=(30, 5)) * 10.0 ** rng.integers(-3, 4, (30, 5))
            x[0, 0], x[1, 1] = 0.0, -0.0
            vals, noise = hp._horner_rows(c, x)
            for i in range(30):
                cl = c[i].tolist()
                for k, xk in enumerate(x[i].tolist()):
                    assert bits(vals[i, k]) == bits(np.float64(hp._horner(cl, xk)))
                    assert bits(noise[i, k]) == bits(np.float64(scalar_kernels.eval_noise(cl, xk)))

    def test_root_bounds_match_the_scalar_bound(self):
        def root_bound(c):
            # the scalar Fujiwara bound the rebuild used one row at a time
            lead = abs(c[0])
            n = c.size - 1
            best = 0.0
            for k in range(1, n + 1):
                ck = abs(c[k]) / lead
                if ck > 0:
                    best = max(best, ck ** (1.0 / k))
            return 2.0 * best + 1.0

        rng = np.random.default_rng(27)
        for deg in range(1, 9):
            c = rng.normal(size=(200, deg + 1)) * 10.0 ** rng.integers(-6, 7, (200, deg + 1))
            c[:, 0] = rng.integers(1, 9, 200)
            c[::7, -1] = 0.0
            got = hp._root_bounds(c)
            assert all(bits(got[i]) == bits(np.float64(root_bound(c[i]))) for i in range(200))


def polish_cases():
    # (c, lo, hi): seeded isolating brackets of degree 2 to 8, plus a bracket
    # whose midpoint is the root, one of adjacent floats, and one without a
    # sign change whose first Newton step leaves it
    rng = np.random.default_rng(41)
    cases = []
    for deg in range(2, 9):
        for _ in range(40):
            r = np.sort(rng.uniform(-4.0, 4.0, deg))
            if deg >= 3 and rng.random() < 0.5:
                r[1] = r[0] + 10.0 ** rng.uniform(-7.0, -2.0)  # a near pair
            c = hp.from_roots(r).full_coeffs()
            k = int(rng.integers(0, deg))
            lo = r[0] - rng.uniform(0.1, 2.0) if k == 0 else 0.5 * (r[k - 1] + r[k])
            hi = r[-1] + rng.uniform(0.1, 2.0) if k == deg - 1 else 0.5 * (r[k] + r[k + 1])
            cases.append((c, float(lo), float(hi)))
    cases.append((np.array([1.0, -3.5, 1.5]), 0.0, 1.0))  # root 0.5 at the first midpoint
    c = np.array([1.0, 0.0, -2.0])
    lo = float(np.sqrt(2.0))
    hi = float(np.nextafter(lo, np.inf) if hp._horner(c, lo) < 0 else np.nextafter(lo, -np.inf))
    cases.append((c, min(lo, hi), max(lo, hi)))  # adjacent floats
    cases.append((c, 5.0, 6.0))  # no sign change: Newton leaves it
    return cases


def large_bracket_blocks():
    # per degree 2 to 8, one block of 320 isolating brackets whose roots half
    # the time sit beside a near root 1e-9 .. 1e-3 away, so that the array
    # stage runs dozens of steps before its stragglers go to the float loop
    rng = np.random.default_rng(43)
    for deg in range(2, 9):
        group = []
        for _ in range(320):
            r = np.sort(rng.uniform(-4.0, 4.0, deg))
            k = int(rng.integers(0, deg))
            if rng.random() < 0.5:
                near = k + 1 if k + 1 < deg else k - 1
                r[near] = r[k] + np.sign(near - k) * 10.0 ** rng.uniform(-9.0, -3.0)
                r = np.sort(r)
            lo = r[0] - rng.uniform(0.1, 2.0) if k == 0 else 0.5 * (r[k - 1] + r[k])
            hi = r[-1] + rng.uniform(0.1, 2.0) if k == deg - 1 else 0.5 * (r[k] + r[k + 1])
            group.append((hp.from_roots(r).full_coeffs(), float(lo), float(hi)))
        yield deg, group


def polish_block(group):
    C = np.array([c for c, _, _ in group])
    return hp._polish_brackets(C, C[:, :-1] * np.arange(C.shape[1] - 1, 0, -1),
                               np.array([lo for _, lo, _ in group]), np.array([hi for _, _, hi in group]))


class TestPolishKernels:
    """Both stages of the bracket polish run one safeguarded Newton: the
    same bits on floats and on arrays, and each answer at a sign change of P
    or in its Horner noise."""

    def test_float_and_array_kernels_give_the_same_bits(self, monkeypatch):
        # every bracket of these groups of ~40 stays on arrays to its end
        monkeypatch.setattr(hp, "_ARRAY_BRACKETS", 1)
        cases = polish_cases()
        for deg in range(2, 9):
            group = [(c, lo, hi) for c, lo, hi in cases if c.size == deg + 1]
            got = polish_block(group)
            ref = [hp._polish_simple(c.tolist(), hp._deriv(c).tolist(), lo, hi) for c, lo, hi in group]
            assert bits(got) == bits(np.array(ref))
            # a bracket alone in the array block gets the same bits
            for (c, lo, hi), r in zip(group[:5], ref):
                one = hp._polish_brackets(c[None, :], hp._deriv(c)[None, :], np.array([lo]), np.array([hi]))
                assert bits(one[0]) == bits(np.float64(r))

    def test_stragglers_resume_on_floats_with_the_same_bits(self, monkeypatch):
        kernel, resumed = hp._polish_simple, []

        def counted(c, dc, lo, hi, x=None, move=0.0, neg=False):
            resumed.append(x is not None and (x != 0.5 * (lo + hi) or move != hi - lo))
            return kernel(c, dc, lo, hi, x, move, neg)

        for deg, group in large_bracket_blocks():
            ref = [hp._polish_simple(c.tolist(), hp._deriv(c).tolist(), lo, hi) for c, lo, hi in group]
            monkeypatch.setattr(hp, "_polish_simple", counted)
            del resumed[:]
            got = polish_block(group)
            # the array stage finished most brackets and handed the last
            # ones over mid-flight
            assert 0 < len(resumed) < hp._ARRAY_BRACKETS < len(group)
            assert all(resumed), deg
            assert bits(got) == bits(np.array(ref)), deg
            # below the handoff count a block runs on floats from the start
            del resumed[:]
            few = polish_block(group[:hp._ARRAY_BRACKETS - 1])
            assert len(resumed) == hp._ARRAY_BRACKETS - 1 and not any(resumed)
            assert bits(few) == bits(np.array(ref[:hp._ARRAY_BRACKETS - 1]))
            monkeypatch.undo()
            for (c, lo, hi), r in zip(group[:3], ref):
                assert bits(polish_block([(c, lo, hi)])[0]) == bits(np.float64(r))

    def test_answers_lie_at_a_sign_change_or_in_the_noise(self):
        for c, lo, hi in polish_cases():
            x = hp._polish_simple(c.tolist(), hp._deriv(c).tolist(), lo, hi)
            assert lo <= x <= hi
            if hp._horner(c, lo) * hp._horner(c, hi) >= 0.0:
                continue  # (5, 6): no root to find
            near = [x]
            for _ in range(4):
                near = [np.nextafter(near[0], -np.inf)] + near + [np.nextafter(near[-1], np.inf)]
            values = hp._horner(c, np.array(near))
            changes = bool(np.any(values[:-1] * values[1:] <= 0.0))
            assert changes or abs(hp._horner(c, x)) <= 2.0 * scalar_kernels.eval_noise(c.tolist(), x), (c, lo, hi)

    def test_special_brackets_take_their_exits(self):
        *_, (c0, lo0, hi0), (c1, lo1, hi1), (c2, lo2, hi2) = polish_cases()
        # the first midpoint is the root: P(x) = 0 ends the loop there
        assert hp._polish_simple(c0.tolist(), hp._deriv(c0).tolist(), lo0, hi0) == 0.5
        # adjacent floats: no float lies between them, so one of them is returned
        assert hp._horner(c1, lo1) * hp._horner(c1, hi1) < 0
        assert np.nextafter(lo1, np.inf) == hi1
        assert hp._polish_simple(c1.tolist(), hp._deriv(c1).tolist(), lo1, hi1) in (lo1, hi1)
        # no sign change: Newton's first step leaves the bracket and is
        # replaced by the midpoint, so the answer never leaves it
        assert 5.5 - hp._horner(c2, 5.5) / hp._horner(hp._deriv(c2), 5.5) < lo2
        assert lo2 <= hp._polish_simple(c2.tolist(), hp._deriv(c2).tolist(), lo2, hi2) <= hi2


def mult_root_cases():
    # (c, x0, mult): rows with an m-fold cluster (m = 2..5, spread 0 or
    # 1e-12 .. 1e-4) among simple roots, started near the cluster, far off
    # (a wild first step), at the cluster itself, and at a critical point of
    # the derivative Newton runs on
    rng = np.random.default_rng(45)
    cases = []
    for mult in range(2, 6):
        for _ in range(60):
            centre = rng.uniform(-3.0, 3.0)
            spread = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-12.0, -4.0)
            r = np.concatenate([centre + spread * np.linspace(-0.5, 0.5, mult),
                                rng.uniform(-6.0, 6.0, int(rng.integers(0, 4)))])
            c = hp.from_roots(r).full_coeffs() * 10.0 ** rng.integers(-3, 4)
            x0 = centre + 10.0 ** rng.uniform(-9.0, 0.0) * rng.choice([-1.0, 1.0])
            cases.append((c, float(x0), mult))
        cases.append((c, float(centre) + 1e6, mult))
        cases.append((hp.from_roots([1.0] * mult).full_coeffs(), 1.0, mult))
    d = np.array([1.0, 0.0, -1.0, 0.0])  # x^3 - x: x^2 - 1/3 has no slope at 0
    cases.append((d, 0.0, 2))
    return cases


def collapse_rows():
    # (values, c) for tol 1e-10, degree 8: the sorted roots of random rows
    # with a 2..5-fold near cluster; a double root 0.3 read 1e-6 off, which
    # the polish moves back, and 1e-4 off, beyond the pair width 1e-5, where
    # the mean stays; an 8-root cluster whose mean np.mean sums pairwise, a
    # zero-spread cluster, a row with an exact zero root (the deflation
    # path's raw coefficients), and a row holding nan
    rng = np.random.default_rng(46)
    rows = []
    for _ in range(120):
        m = int(rng.integers(2, 6))
        centre = rng.uniform(-3.0, 3.0)
        r = np.concatenate([centre + 10.0 ** rng.uniform(-9.0, -5.0) * np.sort(rng.uniform(0.0, 1.0, m)),
                            rng.uniform(-6.0, 6.0, 8 - m)])
        rows.append((np.sort(r), np.sort(r)))
    double = np.array([-2.0, 0.3, 0.3, 1.0, 2.0, 3.0, 4.0, 5.0])
    for off in (1e-6, 1e-4):
        rows.append((double + np.array([0.0, off, off + 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0]), double))
    rows.append(0.3 + 1e-9 * np.array([0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 11.0, 13.0]))
    rows.append(np.array([-2.0, 0.7, 0.7, 0.7, 1.5, 2.5, 3.5, 4.5]))
    rows.append(np.array([-1.0, 0.0, 2e-9, 3e-9, 1.0, 2.0, 3.0, 4.0]))
    rows.append(np.array([-1.0, 1.0, 1.0 + 1e-8, np.nan, 2.0, 3.0, 4.0, 5.0]))
    rows[-4:] = [(r, np.nan_to_num(r)) for r in rows[-4:]]
    values = np.array([v for v, _ in rows])
    c = np.array([hp.from_roots(r).full_coeffs() for _, r in rows])
    return values, c


class TestBlockKernels:
    """The multiple-root Newton and the cluster collapse run on blocks of
    rows and give each row the bits of the scalar oracles in
    tests/scalar_kernels.py, alone or inside any block."""

    def test_mult_root_newton_matches_the_scalar_loop(self):
        cases = mult_root_cases()
        for mult in range(2, 6):
            group = [(c, x0) for c, x0, m in cases if m == mult]
            for size in sorted({c.size for c, _ in group}):
                C = np.array([c for c, _ in group if c.size == size])
                x0 = np.array([x for c, x in group if c.size == size])
                got = hp._polish_mult_root(C, x0, mult)
                ref = [scalar_kernels.polish_mult_root(c, x, mult) for c, x in zip(C, x0.tolist())]
                assert bits(got) == bits(np.array(ref))
                assert bits(hp._polish_mult_root(C[:1], x0[:1], mult)) == bits(np.array(ref[:1]))
        # the exits: x already at its cluster, and a slope of 0
        c, x0, _ = cases[-2]
        assert hp._polish_mult_root(c[None, :], np.array([x0]), 5)[0] == 1.0
        assert hp._polish_mult_root(cases[-1][0][None, :], np.array([0.0]), 2)[0] == 0.0

    def test_collapse_matches_the_scalar_collapse(self):
        values, c = collapse_rows()
        eight = values[-4]
        # the pairwise sum np.mean takes differs from a running sum here
        assert np.mean(eight) != sum(eight.tolist(), 0.0) / 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hp._collapse_clusters(values, 1e-10, c)
        ref = np.array([scalar_kernels.collapse_clusters(v, 1e-10, p) for v, p in zip(values, c)])
        assert bits(got) == bits(ref)
        assert np.unique(got[-4]).size == 1 and np.unique(got[-3]).size == 6
        assert np.isnan(got[-1, 3]) and got[-1, 1] == got[-1, 2]
        moved, kept = got[-6, 1], got[-5, 1]
        assert abs(moved - 0.3) < 1e-9 and kept == np.mean(values[-5, 1:3])
        for i in (0, 5, len(values) - 6, len(values) - 4, len(values) - 2, len(values) - 1):
            assert bits(hp._collapse_clusters(values[i:i + 1], 1e-10, c[i:i + 1])) == bits(ref[i:i + 1])

    def test_mean_sum_is_np_mean_order(self):
        rng = np.random.default_rng(47)
        for n in list(range(1, 40)) + [127, 128, 129, 200, 300]:
            terms = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-8, 9, (n, 5))
            got = (0.0 + hp._mean_sum(list(terms))) / n
            assert bits(got) == bits(np.array([np.mean(terms[:, k]) for k in range(5)])), n

    def test_deflated_row_collapses_with_its_raw_coefficients(self):
        # roots {0, 2e-9, 3e-9, 1, 2}: the constant term is exactly 0, so the
        # fallback deflates the 0 and collapses the cluster with the row's
        # own coefficients, in the block as alone
        rows = np.array([hp.from_roots([0.0, 2e-9, 3e-9, 1.0, 2.0]).coeffs,
                         hp.from_roots([-1.0, 0.5, 0.5 + 1e-9, 1.0, 2.0]).coeffs])
        assert rows[0, -1] == 0.0
        got, ok = hp._roots_with_fallback(rows, 1e-10)
        assert ok.all()
        rest, _ = hp._roots_with_fallback(rows[:1, :-1], 1e-10)
        c = np.concatenate(([1.0], rows[0] * (-1.0) ** np.arange(1, 6)))
        ref = scalar_kernels.collapse_clusters(np.sort(np.append(rest[0], 0.0)), 1e-10, c)
        assert bits(got[0]) == bits(ref)
        assert got[0, 0] == got[0, 1] == got[0, 2] != 0.0
        assert bits(hp._roots_with_fallback(rows[:1], 1e-10)[0][0]) == bits(got[0])


def delta(r):
    # the enclosure half-width of a certified root
    return 1e-9 * np.maximum(1.0, np.abs(r))


def assert_fallbacks_match_roots(rows, values, fell_back, tol=1e-10):
    for i in np.flatnonzero(fell_back):
        assert bits(values[i]) == bits(hp.roots(hp.MonicHyperbolic(rows[i]), tol).values)


class TestRootsBatch:
    def test_separated_rows_lie_within_delta_of_roots(self):
        rng = np.random.default_rng(31)
        for n in range(3, 7):
            R = rng.uniform(-10.0, 10.0, (60, n))
            rows = np.array([hp.from_roots(r).coeffs for r in R])
            values, fell_back = hp.roots_batch(rows)
            assert values.shape == rows.shape
            assert np.mean(fell_back) < 0.5
            assert_fallbacks_match_roots(rows, values, fell_back)
            for i in np.flatnonzero(~fell_back):
                p = hp.MonicHyperbolic(rows[i])
                ref = hp.roots(p).values
                assert np.all(np.abs(values[i] - ref) <= delta(ref))
                # the enclosure, rechecked: P changes sign across r +- delta
                v = values[i]
                assert np.all(hp.evaluate(p, v - delta(v)) * hp.evaluate(p, v + delta(v)) < 0)
                # polished: |P(r)| within the Horner noise bound
                c = p.full_coeffs().tolist()
                assert all(abs(hp._horner(c, x)) <= scalar_kernels.eval_noise(c, x) for x in v.tolist())

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_gaps_at_the_collapse_width_fall_back(self, tol):
        # at tol 1e-6 the sign checks alone would certify the first row
        w = np.sqrt(tol)
        roots_list = [
            [-1.0, 1.0, 1.0 + 0.9 * w, 3.0],    # collapses in roots()
            [-1.0, 1.0, 1.0 + 1.1 * w, 3.0],    # kept apart, but inside the margin
            [-1.0, 1.0, 1.5, 3.0],              # certified
            [-1.0, 1.0, 1.0, 3.0],              # double root
        ]
        rows = np.array([hp.from_roots(r).coeffs for r in roots_list])
        # a complex pair 1e-12 wide: inside the tol-ball, a double root at 2
        near = np.convolve([1.0, -4.0, 4.0 + 1e-12], [1.0, -2.0, -15.0])
        rows = np.vstack([rows, near[1:] * (-1.0) ** np.arange(1, 5)])
        values, fell_back = hp.roots_batch(rows, tol)
        assert fell_back.tolist() == [True, True, False, True, True]
        assert_fallbacks_match_roots(rows, values, fell_back, tol)
        assert values[0, 1] == values[0, 2]
        assert values[1, 1] < values[1, 2]
        assert values[4, 1] == values[4, 2]

    def test_complex_pair_raises_with_the_first_failing_row(self):
        good = hp.from_roots([1.0, 2.0, 3.0]).coeffs
        # (x^2 + 4)(x - 1): a certified complex pair
        bad = np.convolve([1.0, 0.0, 4.0], [1.0, -1.0])[1:] * (-1.0) ** np.arange(1, 4)
        with pytest.raises(NotHyperbolic) as exc:
            hp.roots_batch(np.array([good, good, bad, good, bad]))
        assert exc.value.index == 2

    @pytest.mark.parametrize("n", [1, 2])
    def test_low_degree_rows_take_the_closed_form(self, n):
        rng = np.random.default_rng(32)
        rows = np.array([hp.from_roots(rng.uniform(-5.0, 5.0, n)).coeffs for _ in range(20)])
        rows[3] = 0.0  # a double root at 0 when n = 2
        values, fell_back = hp.roots_batch(rows)
        assert fell_back.all()
        assert_fallbacks_match_roots(rows, values, fell_back)

    def test_empty_block(self):
        values, fell_back = hp.roots_batch(np.zeros((0, 4)))
        assert values.shape == (0, 4)
        assert fell_back.shape == (0,)

    def test_nonfinite_row_falls_back_and_is_refused(self):
        rows = np.array([hp.from_roots([1.0, 2.0, 3.0]).coeffs, [np.inf, 0.0, 0.0]])
        with pytest.raises(NotFinite) as exc:
            hp.roots_batch(rows)
        assert exc.value.index == 1

    def test_small_root_beside_large_ones(self):
        # the squares-polynomial of the B:4 point (100, 99, 101, 0.05): roots()
        # certifies it as the batch does, and the point gets its whole orbit
        from orbitlift import invariants

        exact = np.array([0.0025, 9801.0, 1e4, 10201.0])
        p = hp.from_roots(exact)
        got = hp.roots(p).values
        assert np.all(np.abs(got - exact) <= delta(exact))
        values, fell_back = hp.roots_batch(p.coeffs[None, :])
        assert not fell_back[0]
        assert bits(values[0]) == bits(got)
        sigma = invariants.orbit_map(invariants.parse_group("B:4"))
        orbit = invariants.orbit_at(sigma, sigma.evaluate(np.array([100.0, 99.0, 101.0, 0.05])))
        assert orbit.size == 384


def one_engine_cases():
    # separated, clustered (gaps 1e-8 .. 1e-3), exact-multiple and
    # non-hyperbolic polynomials of degree 1 to 8
    rng = np.random.default_rng(77)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        kind = int(rng.integers(0, 4))
        R = rng.uniform(-10.0, 10.0, n)
        if kind == 1 and n >= 2:
            i = int(rng.integers(0, n - 1))
            R[i + 1] = R[i] + 10.0 ** rng.uniform(-8.0, -3.0)
        elif kind == 2 and n >= 2:
            R = np.round(R[rng.integers(0, max(1, n // 2), n)], 2)
        p = hp.from_roots(R)
        if kind == 3 and n >= 2:
            # raise P by a constant: a local minimum pushed above 0 turns
            # its two roots into a complex pair
            c = p.coeffs.copy()
            c[-1] += (-1.0) ** n * rng.uniform(0.5, 5.0)
            p = hp.MonicHyperbolic(c)
        yield p


def clustered_block():
    # 320 rows of degree 8, each with a double root, a triple root or a
    # near pair, and one with an exact zero constant term: the certificate
    # refuses them all, and every rebuild level has hundreds of brackets
    rng = np.random.default_rng(91)
    rows = []
    for i in range(320):
        r = np.round(rng.uniform(-5.0, 5.0, 8), 2)
        if i % 3 == 0:
            r[1] = r[0]
        elif i % 3 == 1:
            r[1] = r[2] = r[0]
        else:
            r[1] = r[0] + 10.0 ** rng.uniform(-8.0, -5.0)
        if i == 7:
            r[5] = 0.0
        rows.append(hp.from_roots(r).coeffs)
    return np.array(rows)


# (x^2 + 1)(x - 1)...(x - 6): a complex pair far outside the tol-ball
COMPLEX_ROW = (np.convolve([1.0, 0.0, 1.0], hp.from_roots(np.arange(1.0, 7.0)).full_coeffs())[1:]
               * (-1.0) ** np.arange(1, 9))


class TestOneEngine:
    def test_roots_and_roots_batch_agree_bit_for_bit(self):
        solved = {}
        refused = 0
        for p in one_engine_cases():
            try:
                single = hp.roots(p).values
            except NotHyperbolic:
                single = None
            try:
                values, _ = hp.roots_batch(p.coeffs[None, :])
            except NotHyperbolic:
                values = None
            assert (single is None) == (values is None), p
            if single is None:
                refused += 1
            else:
                assert bits(single) == bits(values[0]), p
                solved.setdefault(p.degree, []).append((p.coeffs, single))
        assert refused > 0
        # one stacked eigensolve gives each row the bits of its own solve
        for pairs in solved.values():
            values, _ = hp.roots_batch(np.array([c for c, _ in pairs]))
            assert all(bits(v) == bits(single) for v, (_, single) in zip(values, pairs))


    def test_each_row_of_a_clustered_block_matches_its_own_solve(self, monkeypatch):
        kernel, sizes = hp._polish_brackets, []

        def counted(c, dc, lo, hi):
            sizes.append(lo.size)
            return kernel(c, dc, lo, hi)

        monkeypatch.setattr(hp, "_polish_brackets", counted)
        rows = clustered_block()
        assert rows[7, -1] == 0.0
        values, fell_back = hp.roots_batch(rows)
        assert fell_back.sum() >= 300
        assert max(sizes) >= 300  # the array kernel polished these levels
        assert_fallbacks_match_roots(rows, values, fell_back)

    def test_each_row_of_a_quadratic_block_matches_its_own_solve(self):
        rng = np.random.default_rng(92)
        R = rng.uniform(-5.0, 5.0, (120, 2))
        R[::4, 1] = R[::4, 0]                                            # double
        R[1::4, 1] = R[1::4, 0] + 10.0 ** rng.uniform(-9.0, -4.0, 30)   # near pair
        rows = np.array([hp.from_roots(r).coeffs for r in R])
        rows[::8, 1] += 1e-12  # a complex pair inside the tol-ball
        assert (rows[:, 0] ** 2 - 4.0 * rows[:, 1] < 0.0).sum() >= 10
        values, fell_back = hp.roots_batch(rows)
        assert_fallbacks_match_roots(rows, values, fell_back)
        rows[100] = [0.0, 1.0]  # x^2 + 1
        with pytest.raises(NotHyperbolic) as info:
            hp.roots_batch(rows)
        assert info.value.index == 100

    @pytest.mark.parametrize("first, second", [(NotHyperbolic, RootSolveFailed),
                                               (RootSolveFailed, NotHyperbolic)])
    def test_the_first_failing_row_raises(self, first, second):
        failing = {NotHyperbolic: COMPLEX_ROW, RootSolveFailed: TestBackwardCheck.ROW}
        rows = clustered_block()
        rows[250], rows[280] = failing[first], failing[second]
        with pytest.raises(first) as info:
            hp.roots_batch(rows)
        assert info.value.index == 250


class TestLargeCoefficients:
    """Once its coefficients pass 1e13, a recentred polynomial's leading 1
    sits below 1e-13 of its largest coefficient; the rebuild must still
    solve it at its full degree."""

    @pytest.mark.parametrize("exact", [[-7500.0, 2500.0, 2500.0, 2500.0], [0.0025, 1e4, 1e4, 1e4]])
    def test_triple_root_beside_a_simple_one(self, exact):
        # the second is the squares polynomial of the B:4 point (100, 100, 100, 0.05)
        p = hp.from_roots(exact)
        got = hp.roots(p).values
        allow = 10.0 * (np.finfo(float).eps * (1.0 + np.max(np.abs(p.coeffs)))) ** (1.0 / 3.0)
        assert np.max(np.abs(got - exact)) <= allow
        assert abs(got[0] - exact[0]) <= delta(exact[0])

    def test_one_double_root_among_simple_ones_at_scale(self):
        # scales 10 .. 1e4 give coefficients up to 1e32
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 9))
            scale = 10.0 ** rng.uniform(1.0, 4.0)
            r = rng.uniform(-1.0, 1.0, n - 1) * scale
            exact = np.sort(np.append(r, r[0]))
            got = hp.roots(hp.from_roots(exact)).values
            assert np.max(np.abs(got - exact)) <= 1e-6 * scale, exact


class TestOverflow:
    """A solve answers with finite roots or refuses the row: a discriminant
    that overflows is solved in scaled form, and a polynomial whose
    recentred coefficients overflow is refused as NotFinite, not read as a
    complex pair."""

    @pytest.mark.parametrize("coeffs, want", [
        ([1e300, 1e300], [1.0, 1e300]),
        ([1.7e308, -1.7e308], [-1.0, 1.7e308]),
        ([-1.7976931348623157e308, 1.7976931348623157e308], [-1.7976931348623157e308, -1.0]),
        ([1e200, 1e300], [1e100, 1e200]),
    ])
    def test_quadratic_whose_discriminant_overflows(self, coeffs, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hp.roots(hp.MonicHyperbolic(coeffs)).values
        assert got.tolist() == want

    def test_overflow_rows_leave_the_other_rows_bits(self):
        rng = np.random.default_rng(5)
        rows = np.array([hp.from_roots(rng.uniform(-5.0, 5.0, 2)).coeffs for _ in range(30)])
        rows[[3, 17]] = [[0.0, 1e-12], [7.0, 12.25]]  # a tol-ball pair and a double root
        alone, _ = hp.roots_batch(rows)
        mixed = rows.copy()
        mixed[[5, 20]] = [[1e300, 1e300], [0.0, 1.7e308]]
        with pytest.raises(NotHyperbolic) as info:
            hp.roots_batch(mixed)
        assert info.value.index == 20
        mixed[20] = [1.7e308, -1.7e308]
        got, _ = hp.roots_batch(mixed)
        keep = np.setdiff1d(np.arange(30), [5, 20])
        assert got[keep].tobytes() == alone[keep].tobytes()
        assert got[5].tolist() == [1.0, 1e300] and got[20].tolist() == [-1.0, 1.7e308]

    @pytest.mark.parametrize("coeffs", [[1e300, 1e300, 1.0], [1e300, 1e300, 1.0, 0.0]])
    def test_recentred_overflow_is_not_finite(self, coeffs):
        # roots near 1e-300, 1 and 1e300 (and an exact 0, deflated first):
        # the shift by a1/3 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFinite) as info:
                hp.roots(hp.MonicHyperbolic(coeffs))
        assert info.value.index == 0

    def test_a_shift_that_stays_finite_is_solved(self):
        # the triple root 1e102: its shift noise bound overflows, its shift does not
        got = hp.roots(hp.from_roots([1e102, 1e102, 1e102])).values
        assert np.max(np.abs(got - 1e102)) <= 1e-12 * 1e102

    def test_recentred_overflow_in_a_block(self):
        rows = np.array([hp.from_roots([1.0, 2.0, 3.0]).coeffs, [1e300, 1e300, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(NotFinite) as info:
            hp.roots_batch(rows)
        assert info.value.index == 1


class TestBackwardCheck:
    """A rebuilt answer must give back its coefficients.  This degree-8
    polynomial (four roots within 0.02 of -329.45, two near -322 and a
    double root at 4099) is rebuilt into roots that miss its a_8 = 2.06e22
    by 2.05e22."""

    ROW = hp.from_roots([
        -329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
        -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927,
    ]).coeffs

    def test_roots_raises(self):
        with pytest.raises(RootSolveFailed) as info:
            hp.roots(hp.MonicHyperbolic(self.ROW))
        assert info.value.index == 0

    def test_roots_batch_tags_the_row(self):
        rows = np.array([hp.from_roots(np.arange(1.0, 9.0)).coeffs, self.ROW])
        with pytest.raises(RootSolveFailed) as info:
            hp.roots_batch(rows)
        assert info.value.index == 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the tol-ball tests of the rebuild and "
                       "the backward-check bound are absolute, so at scale 1e-2 every critical value "
                       "reads as zero and seven roots 0.008 pass the check")
    def test_two_triple_roots_at_small_scale_are_found(self):
        # roots {-0.004, 0.0094 x3, 0.0106 x3}; scaled by 100 they solve
        # within 1.3e-13, scaled by 3 the backward check refuses them
        row = [0.056, 0.00125892, 1.396112e-05, 6.952518880000002e-08, -1.7217791999999753e-12,
               -1.3935122706560001e-12, -3.956955333376e-15]
        exact = np.array([-0.004] + [0.0094] * 3 + [0.0106] * 3)
        got = hp.roots(hp.MonicHyperbolic(row)).values
        assert np.max(np.abs(got - exact)) <= 1e-3 * np.max(np.abs(exact))
