import numpy as np
import pytest

from orbitlift import invariants as inv
from orbitlift.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotFinite,
    NotInImage,
    RootSolveFailed,
    ToleranceViolation,
    UnsupportedParameter,
)


def as_point_set(points, decimals=7):
    return sorted(tuple(np.round(p, decimals)) for p in points)


class TestMakeGroup:
    @pytest.mark.parametrize(
        "kind,param,order,dim",
        [("A", 2, 6, 3), ("B", 2, 8, 2), ("I2", 5, 10, 2), ("D", 3, 24, 3), ("A", 1, 2, 2)],
    )
    def test_orders(self, kind, param, order, dim):
        g = inv.make_group(kind, param)
        assert g.order == order
        assert g.dim == dim
        assert len(g.elements()) == order  # closure enumeration check

    def test_generators_orthogonal(self):
        for spec in ["A:3", "B:3", "D:4", "I2:7"]:
            g = inv.parse_group(spec)
            for gen in g.generators:
                assert np.max(np.abs(gen.T @ gen - np.eye(g.dim))) < 1e-12

    @pytest.mark.parametrize("kind,param", [("A", 0), ("B", 1), ("D", 2), ("I2", 1), ("X", 3)])
    def test_unsupported(self, kind, param):
        with pytest.raises(UnsupportedParameter):
            inv.make_group(kind, param)

    def test_enumeration_limit(self):
        g = inv.make_group("B", 6)  # order 46080
        with pytest.raises(EnumerationTooLarge):
            g.elements()

    def test_parse_group(self):
        assert inv.parse_group("I2:4").label == "I2:4"
        with pytest.raises(UnsupportedParameter):
            inv.parse_group("A2")


class TestSigma:
    def test_a2_elementary_symmetric(self):
        m = inv.orbit_map(inv.make_group("A", 2))
        assert np.allclose(inv.sigma(m, [1, 2, 3]), [6, 11, 6])

    def test_b2_squares(self):
        m = inv.orbit_map(inv.make_group("B", 2))
        assert np.allclose(inv.sigma(m, [1, -1]), [2, 1])

    def test_i2_4(self):
        m = inv.orbit_map(inv.make_group("I2", 4))
        assert np.allclose(inv.sigma(m, [1, 0]), [1, 1])

    def test_d3_product_invariant(self):
        m = inv.orbit_map(inv.make_group("D", 3))
        v = np.array([1.0, 2.0, 3.0])
        out = inv.sigma(m, v)
        assert out[-1] == pytest.approx(6.0)
        assert np.allclose(out[:2], [14.0, 49.0])  # e1(v^2), e2(v^2)

    def test_degrees(self):
        assert inv.orbit_map(inv.make_group("A", 2)).degrees == (1, 2, 3)
        assert inv.orbit_map(inv.make_group("B", 3)).degrees == (2, 4, 6)
        assert inv.orbit_map(inv.make_group("D", 4)).degrees == (2, 4, 6, 4)
        assert inv.orbit_map(inv.make_group("I2", 7)).degrees == (2, 7)

    def test_invariance_random(self):
        rng = np.random.default_rng(11)
        for spec in ["A:2", "B:3", "D:3", "I2:5"]:
            g = inv.parse_group(spec)
            m = inv.orbit_map(g)
            for _ in range(25):
                v = rng.standard_normal(g.dim)
                sv = inv.sigma(m, v)
                for gen in g.generators:
                    assert np.max(np.abs(inv.sigma(m, gen @ v) - sv)) < 1e-10

    def test_exact_invariance_for_signed_permutations(self):
        # signed permutation matrices are exact, so sigma matches bitwise
        rng = np.random.default_rng(12)
        for spec in ["A:2", "B:2", "D:3"]:
            g = inv.parse_group(spec)
            m = inv.orbit_map(g)
            v = rng.standard_normal(g.dim)
            sv = inv.sigma(m, v)
            for el in g.elements():
                assert inv.sigma(m, el @ v).tobytes() == sv.tobytes()

    def test_dimension_mismatch(self):
        m = inv.orbit_map(inv.make_group("B", 2))
        with pytest.raises(DimensionMismatch):
            inv.sigma(m, [1.0, 2.0, 3.0])


class TestOrbit:
    def test_a2_full_orbit(self):
        g = inv.make_group("A", 2)
        orb = inv.orbit(g, [1, 2, 3])
        assert len(orb) == 6

    def test_b2_axis(self):
        g = inv.make_group("B", 2)
        orb = inv.orbit(g, [1, 0])
        assert as_point_set(orb) == as_point_set([[1, 0], [-1, 0], [0, 1], [0, -1]])

    def test_zero_fixed(self):
        g = inv.make_group("D", 3)
        assert len(inv.orbit(g, [0, 0, 0])) == 1


# every catalog group of order <= 10^4, with (d, k)
K_DATA = (
    [(f"A:{p}", p + 1, p + 1) for p in range(1, 7)]
    + [(f"B:{n}", 2 * n, 2 * n) for n in range(2, 6)]
    + [("D:3", 4, 4), ("D:4", 6, 8), ("D:5", 8, 10)]
    + [(f"I2:{m}", m, m) for m in range(2, 13)]
)


class TestComputeK:
    @pytest.mark.parametrize("spec,d,k", K_DATA)
    def test_catalog_values(self, spec, d, k):
        g = inv.parse_group(spec)
        kd = inv.compute_k(g)
        assert kd.d_value == d
        assert kd.k_value == k

    def test_a2_records(self):
        kd = inv.compute_k(inv.make_group("A", 2))
        # trivial summand: stabilizer = all of S3; standard summand: S2
        stats = sorted((r.dim, r.isotropy_order, r.orbit_size) for r in kd.records)
        assert stats == [(1, 6, 1), (2, 2, 3)]

    def test_k_formula_consistency(self):
        for spec in ["A:2", "B:2", "D:3", "I2:6"]:
            kd = inv.compute_k(inv.parse_group(spec))
            assert kd.k_value == max([kd.d_value] + [r.orbit_size for r in kd.records])
            assert all(r.isotropy_order * r.orbit_size == kd.group_order for r in kd.records)

    @staticmethod
    def _stabilizer_orders(elements, points):
        """Stabilizer order of each row of points, counted over every element."""
        moved = np.einsum("wij,cj->wci", elements, points)
        tol = 1e-9 * (1.0 + np.max(np.abs(points), axis=1))
        return np.sum(np.max(np.abs(moved - points), axis=2) <= tol, axis=0)

    def test_certified_against_exhaustive_enumeration(self):
        # the stabilizer order of v recounted over every element, and no
        # larger one among the summand's projections of the axes, the
        # diagonal, the axis sums and differences, and random points; the
        # summand is the span of v's orbit
        rng = np.random.default_rng(5)
        for spec, _, _ in K_DATA:
            g = inv.parse_group(spec)
            els = np.array(g.elements())
            eye = np.eye(g.dim)
            pairs = [eye[i] + sign * eye[j] for i in range(g.dim)
                     for j in range(i + 1, g.dim) for sign in (1.0, -1.0)]
            directions = np.vstack([eye, np.ones(g.dim)] + pairs
                                   + list(rng.standard_normal((16, g.dim))))
            kd = inv.compute_k(g)
            assert sum(r.dim for r in kd.records) == g.dim, spec
            for rec in kd.records:
                assert abs(np.linalg.norm(rec.v) - 1.0) < 1e-14, spec
                assert self._stabilizer_orders(els, rec.v[None, :])[0] == rec.isotropy_order, spec
                assert rec.isotropy_order * rec.orbit_size == g.order, spec
                _, sv, vt = np.linalg.svd(els @ rec.v)
                basis = vt[sv > 1e-9 * sv[0]]
                assert len(basis) == rec.dim, spec
                cands = directions @ basis.T @ basis
                cands = cands[np.linalg.norm(cands, axis=1) > 1e-8]
                cands /= np.linalg.norm(cands, axis=1, keepdims=True)
                assert self._stabilizer_orders(els, cands).max() <= rec.isotropy_order, spec

    def test_deterministic_reruns(self):
        a = inv.compute_k(inv.make_group("D", 3))
        b = inv.compute_k(inv.make_group("D", 3))
        assert a.k_value == b.k_value
        assert all(x.v.tobytes() == y.v.tobytes() for x, y in zip(a.records, b.records))


class TestFiber:
    def test_a1_pair(self):
        m = inv.orbit_map(inv.make_group("A", 1))
        f = inv.fiber(m, [0.0, -1.0])
        assert as_point_set(f) == as_point_set([[-1, 1], [1, -1]])

    def test_a1_empty_for_complex(self):
        m = inv.orbit_map(inv.make_group("A", 1))
        assert inv.fiber(m, [0.0, 1.0]) == []

    def test_b2_double(self):
        m = inv.orbit_map(inv.make_group("B", 2))
        f = inv.fiber(m, [2.0, 1.0])
        assert as_point_set(f) == as_point_set([[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def test_near_miss_raises(self):
        m = inv.orbit_map(inv.make_group("A", 1))
        # x^2 + eps with eps in (tol, 10 tol]: ill-posed at this tolerance
        with pytest.raises(ToleranceViolation):
            inv.fiber(m, [0.0, 5e-10], 1e-10)

    @pytest.mark.parametrize(
        "spec", ["A:1", "A:2", "A:3", "B:2", "B:3", "D:3", "D:4", "I2:3", "I2:4", "I2:5", "I2:6"]
    )
    def test_fiber_equals_orbit(self, spec):
        import zlib

        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        for _ in range(25):
            v = rng.uniform(-2, 2, g.dim)
            orb = inv.orbit(g, v)
            fib = inv.fiber(m, inv.sigma(m, v), 1e-10)
            assert len(orb) == len(fib)
            for a, b in zip(as_point_set(orb), as_point_set(fib)):
                assert np.allclose(a, b, atol=1e-7)

    def test_fiber_soundness_and_group_closure(self):
        rng = np.random.default_rng(2)
        for spec in ["B:2", "D:3", "I2:5"]:
            g = inv.parse_group(spec)
            m = inv.orbit_map(g)
            v = rng.uniform(-2, 2, g.dim)
            y = inv.sigma(m, v)
            fib = inv.fiber(m, y, 1e-10)
            keys = set(as_point_set(fib))
            for w in fib:
                assert np.max(np.abs(inv.sigma(m, w) - y)) < 1e-9
                for gen in g.generators:
                    moved = tuple(np.round(gen @ w, 7))
                    assert moved in keys


def test_failed_backward_check_is_not_outside_the_image():
    """y = sigma of an A:7 point whose root solve fails its backward check:
    a solve that cannot give back y must say so, and not report a point of
    the image as outside it."""
    m = inv.orbit_map(inv.parse_group("A:7"))
    x = [
        -329.45042372721525, -329.45042372721525, -329.4682812195976, -329.4500942348529,
        -324.316343471285, -320.7466372923879, 4099.102688577927, 4099.102688577927,
    ]
    with pytest.raises(RootSolveFailed):
        inv.orbit_at(m, inv.sigma(m, x))


def test_small_modulus_beside_a_triple_one():
    """The B:4 point (100, 100, 100, 0.05): its squares polynomial has the
    simple root 0.0025 beside the triple root 1e4, and its recentred form
    has coefficients near 1.2e14."""
    m = inv.orbit_map(inv.parse_group("B:4"))
    orbit = inv.orbit_at(m, inv.sigma(m, [100.0, 100.0, 100.0, 0.05]))
    assert orbit.size == 64
    assert np.max(np.abs(orbit.spectrum - [0.05, 100.0, 100.0, 100.0])) <= 1e-8 * 100.0


class TestSmallModuli:
    """B/D moduli near 0: a root of the squares-polynomial within rounding
    noise of 0 gives an exact 0, a resolved small root keeps its value."""

    @staticmethod
    def _fiber(spec, v):
        m = inv.orbit_map(inv.parse_group(spec))
        y = inv.sigma(m, v)
        fib = np.array(inv.fiber(m, y))
        worst = max(float(np.max(np.abs(inv.sigma(m, w) - y))) for w in fib)
        assert worst <= 1e-10 * (1.0 + float(np.max(np.abs(y))))
        return fib

    @pytest.mark.parametrize(
        "spec,v",
        [("B:4", [100.0, 60.0, 30.0, 0.01]), ("B:5", [3.0, 2.9, 3.1, 2.8, 5e-6])],
    )
    def test_small_modulus_beside_large_ones(self, spec, v):
        # the coefficients reach 3e10 (B:4) and 6e3 (B:5), so a zero test
        # at their scale would take these roots (1e-4, 2.5e-11) for noise
        fib = self._fiber(spec, v)
        assert len(fib) == inv.parse_group(spec).order
        assert np.allclose(np.min(np.abs(fib), axis=1), v[-1], rtol=1e-4, atol=0)

    @pytest.mark.parametrize("spec,size", [("B:3", 24), ("D:3", 24)])
    def test_zero_coordinate_beside_large_one(self, spec, size):
        # the least root comes out 1.3e-11, above the noise at the largest
        # root's scale; the product of the roots is exactly 0
        fib = self._fiber(spec, [0.0, 0.25, 16.0])
        assert len(fib) == size
        assert np.all(np.sum(fib == 0.0, axis=1) == 1)

    def test_two_zero_coordinates(self):
        # both least roots come out 4.7e-12; the two trailing coefficients are 0
        fib = self._fiber("B:4", [0.0, 0.0, 3.0, 18.0])
        assert len(fib) == 48
        assert np.all(np.sum(fib == 0.0, axis=1) == 2)

    def test_every_point_with_two_zero_coordinates_has_its_orbit(self):
        # the squares-polynomial has an exact double root at 0 beside p^2
        # and q^2; each of the 741 points has 4!/2! * 2^2 = 48 orbit points
        m = inv.orbit_map(inv.parse_group("B:4"))
        for p in range(1, 40):
            for q in range(p + 1, 40):
                orbit = inv.orbit_at(m, inv.sigma(m, [0.0, 0.0, float(p), float(q)]))
                assert orbit is not None and orbit.size == 48, (p, q)

    def test_collapsed_cluster_stays_whole(self):
        # the solver gives the squares 0 and 1e-6 as a double root 5e-7;
        # zeroing one of its copies would move sigma_1 by 5e-7
        fib = self._fiber("B:4", [0.0, 0.001, 1.3, 0.7])
        least = np.sort(np.abs(fib), axis=1)[:, :2]
        assert np.all(least[:, 0] == least[:, 1]) and np.all(least > 0.0)


def _min_pairwise(f: np.ndarray) -> float:
    """Least distance between two of the points f, over all pairs (the
    enumeration-based oracle for Orbit.min_distance), 64 rows at a time."""
    n = f.shape[0]
    best = np.inf
    for i in range(0, n - 1, 64):
        rows = np.arange(i, min(i + 64, n - 1))
        d = np.linalg.norm(f[rows, None, :] - f[None, i + 1 :, :], axis=2)
        best = min(best, float(np.min(d[rows[:, None] < np.arange(i + 1, n)[None, :]])))
    return best


def _nearest_by_enumeration(pts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The first of pts at the least exact distance from p: floats preselect
    the near-ties, integers (every double times 2^1074) decide them."""

    def exact(x):
        num, den = float(x).as_integer_ratio()  # den is a power of two
        return num * (2**1074 // den)

    d2 = np.sum((pts - p) ** 2, axis=1)
    close = np.flatnonzero(d2 <= d2.min() * (1.0 + 1e-9) + 1e-300)
    q = [exact(b) for b in p]
    dist = [sum((exact(a) - b) ** 2 for a, b in zip(pts[k], q)) for k in close]
    return pts[close[min(range(len(close)), key=lambda j: (dist[j], j))]]


ORACLE_GROUPS = (
    [f"A:{n}" for n in range(1, 7)] + [f"B:{n}" for n in range(2, 6)]
    + [f"D:{n}" for n in range(3, 6)] + [f"I2:{m}" for m in range(2, 9)]
)


class TestOrbitClosedForms:
    """Orbit's closed forms against enumeration, on every catalog group of
    order <= 10^4."""

    @staticmethod
    def _bases(g, rng):
        out = [rng.uniform(-2.0, 2.0, g.dim) for _ in range(3 if g.order <= 1000 else 1)]
        if g.kind != "I2":
            tied = rng.uniform(-2.0, 2.0, g.dim)
            tied[1] = tied[0]
            tied[-1] = -tied[0]
            zero = rng.uniform(-2.0, 2.0, g.dim)
            zero[0] = 0.0
            out += [tied, zero]
        return out

    @staticmethod
    def _queries(g, rng, orbit_pts):
        out = [rng.uniform(-2.0, 2.0, g.dim) for _ in range(4)]
        if g.kind == "I2":
            return out
        w = orbit_pts[int(rng.integers(len(orbit_pts)))]
        flipped = w.copy()
        flipped[int(rng.integers(g.dim))] *= -1.0  # for D: the wrong sign parity
        tied = rng.uniform(-2.0, 2.0, g.dim)
        tied[1] = tied[0]
        signs = rng.uniform(-2.0, 2.0, g.dim)
        signs[1] = -signs[0]
        zero = rng.uniform(-2.0, 2.0, g.dim)
        zero[[0, -1]] = 0.0
        return out + [w, flipped, flipped + 0.01 * rng.standard_normal(g.dim), tied, signs,
                      zero, np.zeros(g.dim)]

    @pytest.mark.parametrize("spec", ORACLE_GROUPS)
    def test_against_enumeration(self, spec):
        import zlib

        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        for v in self._bases(g, rng):
            y = inv.sigma(m, v)
            orb = inv.orbit_at(m, y)
            fib = np.array(inv.fiber(m, y))
            # A, B, D: the orbit through the chamber point itself, so that
            # the nearest point must match exactly; I2 enumerates its fiber
            pts = np.array(inv.orbit(g, orb.first if g.kind != "I2" else v))
            assert orb.size == len(fib) == len(pts)
            assert np.array_equal(orb.first, fib[0])
            want = _min_pairwise(fib)
            assert abs(orb.min_distance - want) <= 1e-12 * want
            for p in self._queries(g, rng, pts):
                got = orb.nearest(p)
                if g.kind == "I2":
                    assert np.allclose(got, _nearest_by_enumeration(pts, p), rtol=0, atol=1e-9)
                else:
                    assert np.array_equal(got, _nearest_by_enumeration(pts, p)), (v, p)
                    same = fib[(fib == got).all(axis=1)]
                    assert np.array_equal(np.signbit(same), np.signbit(got[None, :]))  # zeros' signs too
            batch = np.array(self._queries(g, rng, pts))
            assert np.array_equal(orb.nearest(batch), np.array([orb.nearest(p) for p in batch]))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_i2_on_and_near_mirrors(self, m):
        """On a mirror, 1e-13, 1e-8 or 1e-3 rad off it, and mid-chamber, the
        fiber is an orbit: m or 2m points (2m off the mirror band), each next
        to a point of the enumerated orbit, with sigma within the tol-ball of
        y.  The radii include one with r^m < tol, where the mirror band must
        not grow to a whole chamber (for m = 2 such radii are the origin)."""
        g = inv.parse_group(f"I2:{m}")
        mp = inv.orbit_map(g)
        tol = 1e-10
        small = (0.5 * tol ** (1.0 / m),) if m > 2 else ()
        for r in (0.3, 1.0, 2.7) + small:
            for j in range(2 * m):  # the rays of the m mirrors
                for off in (0.0, 1e-13, -1e-13, 1e-8, -1e-8, 1e-3, -1e-3, np.pi / (2 * m)):
                    v = r * np.array([np.cos(np.pi * j / m + off), np.sin(np.pi * j / m + off)])
                    y = inv.sigma(mp, v)
                    size = inv.orbit_at(mp, y, tol).size
                    assert size in (1, m, 2 * m), (r, j, off)
                    assert size == 2 * m or abs(off) < 1e-3, (r, j, off)
                    pts = np.array(inv.orbit(g, v))
                    for p in inv.fiber(mp, y, tol):
                        assert np.min(np.linalg.norm(pts - p, axis=1)) <= 1e-6 * r
                        assert np.max(np.abs(inv.sigma(mp, p) - y)) <= tol * (1.0 + np.max(np.abs(y)))

    def test_enumeration_limit(self):
        g = inv.parse_group("B:6")
        m = inv.orbit_map(g)
        orb = inv.orbit_at(m, inv.sigma(m, [0.3, 0.7, 1.1, 1.5, 1.9, 2.3]))
        assert orb.size == 2**6 * 720
        assert np.allclose(orb.nearest(np.arange(1.0, 7.0)), [0.3, 0.7, 1.1, 1.5, 1.9, 2.3])
        with pytest.raises(EnumerationTooLarge):
            inv.fiber(m, orb)


BLOCK_GROUPS = [f"A:{n}" for n in range(1, 7)] + [f"B:{n}" for n in range(2, 6)] + [
    f"D:{n}" for n in range(3, 6)]


def _hard_points(g, rng, count):
    """count seeded points of g's space, most of them on or near the places
    where an orbit degenerates: zero and near-zero coordinates, coordinates
    equal within 1e-10 rounding, mirrors, and both signs of D's product."""
    pts = rng.uniform(-3.0, 3.0, (count, g.dim))
    kinds = rng.integers(0, 8, count)
    for v, kind in zip(pts, kinds):
        i, j = rng.choice(g.dim, 2, replace=False)
        if kind == 1:
            v[i] = 0.0
        elif kind == 2:
            v[i] = 10.0 ** rng.uniform(-12.0, -5.0) * rng.choice([-1.0, 1.0])
        elif kind == 3:
            v[i] = v[j] + rng.uniform(-3e-11, 3e-11)  # one value after rounding to 1e-10
        elif kind == 4:
            v[i] = v[j]  # a mirror of A
        elif kind == 5:
            v[i] = -v[j]  # a mirror of B and D
        elif kind == 6:
            v[:] = 0.0
            v[: g.dim // 2] = 1.5
        elif kind == 7:
            v[i] = -v[i]  # for D: the other parity of a neighbour's product
    if g.label == "B:4":
        pts[0] = [100.0, 100.0, 100.0, 0.05]
    return pts


class TestBlockSigma:
    @pytest.mark.parametrize("spec", BLOCK_GROUPS + ["I2:2", "I2:3", "I2:5", "I2:8"])
    def test_rows_match_the_point(self, spec):
        import zlib

        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        pts = _hard_points(g, rng, 200)
        if g.kind == "D":
            assert (np.prod(pts, axis=1) < 0.0).any() and (np.prod(pts, axis=1) == 0.0).any()
        block = m.evaluate(pts)
        assert block.shape == (len(pts), m.n_invariants)
        for v, row in zip(pts, block):
            assert row.tobytes() == m.evaluate(v).tobytes(), v

    def test_block_dimension_mismatch(self):
        m = inv.orbit_map(inv.make_group("B", 2))
        with pytest.raises(DimensionMismatch):
            m.evaluate(np.zeros((4, 3)))


class TestOrbitsAt:
    """A block's orbits against the one-row solve of each of its rows, on
    blocks large enough for the root engine's array kernels."""

    @pytest.mark.parametrize("spec", BLOCK_GROUPS + ["I2:3", "I2:4", "I2:8"])
    def test_rows_match_the_one_row_solve(self, spec):
        import zlib

        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        rng = np.random.default_rng(zlib.crc32(spec.encode()) + 1)
        rows = m.evaluate(_hard_points(g, rng, 160))
        block = inv.orbits_at(m, rows)
        assert len(block) == len(rows)
        if g.kind == "D":
            assert {-1.0, 0.0, 1.0} <= set(block.parity.tolist())
        for i, y in enumerate(rows):
            one = inv.orbit_at(m, y)
            orb = block[i]
            assert orb.spectrum.tobytes() == one.spectrum.tobytes(), y
            assert orb.parity == one.parity
            assert orb.size == one.size
            assert orb.min_distance == one.min_distance
        # a slice is a block of the same rows
        part = block[5:9]
        assert len(part) == 4 and part[0].spectrum.tobytes() == block[5].spectrum.tobytes()

    def test_first_failing_row_raises_with_its_index(self):
        m = inv.orbit_map(inv.parse_group("B:2"))
        good, band, outside = [2.0, 1.0], [1.0 - 3e-10, -3e-10], [0.0, 1.0]
        with pytest.raises(ToleranceViolation) as exc:
            inv.orbits_at(m, np.array([good, good, band, outside]))
        assert exc.value.index == 2
        with pytest.raises(NotInImage) as exc:
            inv.orbits_at(m, np.array([good, outside, band]))
        assert exc.value.index == 1
        assert inv.orbit_at(m, outside) is None

    @pytest.mark.parametrize("spec,good,huge", [
        ("D:3", [3.0, 3.0, 1.0], [3.0, 3.0, 1e200]),  # y_3^2 overflows
        ("I2:4", [1.0, 0.0], [1e200, 0.0]),  # r^4 overflows
        ("B:2", [2.0, 1.0], [np.nan, 1.0]),
        ("I2:3", [1.0, 0.0], [1.0, np.inf]),
    ])
    def test_non_finite_row_raises_with_its_index(self, spec, good, huge):
        m = inv.orbit_map(inv.parse_group(spec))
        with pytest.raises(NotFinite) as exc:
            inv.orbits_at(m, np.array([good, good, huge, good]))
        assert exc.value.index == 2


class TestDihedralBlock:
    """I2 orbits solved as one block against the enumerated orbit, at the
    rows where the closed form snaps or deduplicates."""

    @pytest.mark.parametrize("m,r,angle,size", [
        (4, 0.0, 0.0, 1),  # the origin
        (5, 3e-6, 0.4, 1),  # within sqrt(tol) of the origin: snapped to it
        (3, 1.0, 1e-13, 3),  # the mirror band: one point per rotation
        (6, 2.7, -1e-12, 6),
        (8, 1.0, 0.3, 16),
        # r near sqrt(tol), just outside the mirror band: points and their
        # reflections 2 r angle apart round to one key (12 of 16, 7 of 10)
        (8, 2e-5, 2e-6, 12),
        (5, 1.2e-5, 3e-6, 7),
    ])
    def test_edge_rows_match_the_orbit(self, m, r, angle, size):
        g = inv.parse_group(f"I2:{m}")
        mp = inv.orbit_map(g)
        v = r * np.array([np.cos(angle), np.sin(angle)])
        rows = mp.evaluate(np.array([[0.6, -1.3], v, [0.0, 2.0], v]))
        block = inv.orbits_at(mp, rows, 1e-10)
        orb = block[1]
        pts = np.array(inv.orbit(g, v))
        assert orb.size == size == len(orb.spectrum)
        assert [tuple(p) for p in np.round(orb.spectrum, 10)] == sorted(
            tuple(p) for p in np.round(orb.spectrum, 10))
        # the orbit's distinct points, or the origin within sqrt(tol)
        if size == 1:
            assert orb.spectrum.tolist() == [[0.0, 0.0]] and np.max(np.abs(pts)) <= 1e-5
        else:
            assert len(pts) == size
            for a, b in ((orb.spectrum, pts), (pts, orb.spectrum)):
                assert max(np.min(np.linalg.norm(b - p, axis=1)) for p in a) <= 1e-10 * (1.0 + r)
        # pairwise norms, not a closed form, and the same row in any block
        want = _min_pairwise(orb.spectrum) if size > 1 else np.inf
        assert orb.min_distance == want and block[3].min_distance == want
        assert block.max_abs[1] == np.max(np.abs(orb.spectrum))
        assert block[3].spectrum.tobytes() == orb.spectrum.tobytes()


RANK_GROUPS = [f"A:{n}" for n in range(1, 6)] + [f"B:{n}" for n in range(2, 6)] + [
    f"D:{n}" for n in range(3, 6)]


class TestRanks:
    @pytest.mark.parametrize("spec", RANK_GROUPS)
    def test_rank_is_the_index_in_the_listing(self, spec):
        """Orbit.ranks in closed form against the enumeration, on orbits
        with repeated values, zero moduli and both D parities."""
        import zlib

        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        rng = np.random.default_rng(zlib.crc32(spec.encode()) + 2)
        bases = list(_hard_points(g, rng, 10))
        repeated = rng.integers(1, 3, g.dim).astype(float)
        bases += [repeated, -repeated, np.zeros(g.dim)]
        seen = set()
        for v in bases:
            orb = inv.orbit_at(m, m.evaluate(v))
            fib = np.array(inv.fiber(m, orb))
            assert orb.ranks(fib) == list(range(len(fib))), v
            # the points the lift holds come from nearest: same ranks
            for p in rng.uniform(-3.0, 3.0, (4, g.dim)):
                x = orb.nearest(p)
                at = np.flatnonzero((np.round(fib, 10) == np.round(x, 10)).all(axis=1))
                assert orb.ranks(x[None, :]) == at.tolist()
            seen.add(orb.parity)
            seen.add("zero" if (orb.spectrum == 0.0).any() else "nonzero")
            seen.add("repeated" if orb.size < len(g.elements()) else "free")
        assert {"zero", "repeated"} <= seen
        if g.kind == "D":
            assert {-1.0, 0.0, 1.0} <= seen

    @pytest.mark.parametrize("spec", ["A:3", "B:3", "D:4"])
    def test_neighbours_are_the_reflection_images(self, spec):
        g = inv.parse_group(spec)
        m = inv.orbit_map(g)
        v = np.array([0.3, -1.1, 1.7, 2.3][: g.dim])
        orb = inv.orbit_at(m, m.evaluate(v))
        x = orb.nearest(v)
        got = as_point_set(orb.neighbours(x[None, :]))
        # the reflections: involutions with a single eigenvalue -1
        refl = [el for el in g.elements()
                if np.allclose(el @ el, np.eye(g.dim)) and np.isclose(np.trace(el), g.dim - 2)]
        assert got == as_point_set([el @ x for el in refl])
