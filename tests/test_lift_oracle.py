"""Seeded lifts checked against the group itself.

The inputs are lines gamma(t) = c + v t through V, built here from a seed:
for every catalog family, lines that cross one reflecting hyperplane at an
interior sample of a level-5 or level-6 grid and stay clear of the others;
for B and D, lines on which one coordinate passes within 10^-k of 0 at a
sample, k = 3..9.  Each curve is sigma(gamma), written as t-polynomials
from the invariants' definitions.  A lift passes when sigma of its values,
also computed from the definitions, meets the curve, and when between its
unresolved windows it is w.gamma for one group element w, within the bound
a sample's distance from the hyperplanes allows.  No answer of the code
under test is used as a reference: the elements come from the group's
generators (`enumeration.elements`).

The seeds are `--lift-oracle-seeds FIRST-LAST` (tests/conftest.py), 1-3
unless given; each test runs every seed.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from enumeration import elements
from orbitlift import curvedsl as cd
from orbitlift import invariants as inv
from orbitlift import lifting as lf

TOL = 1e-10
EPS = float(np.finfo(float).eps)
SIDE = 8  # samples the lift fits on each side of a window
GROUPS = ["A:2", "A:3", "A:4", "B:2", "B:3", "B:4", "D:3", "D:4", "I2:3", "I2:4", "I2:5", "I2:6"]


def normals(g) -> np.ndarray:
    """Unit normals of the reflecting hyperplanes of g."""
    if g.kind == "I2":
        m = g.param
        return np.array([[-math.sin(math.pi * k / m), math.cos(math.pi * k / m)] for k in range(m)])
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for s in (1.0,) if g.kind == "A" else (1.0, -1.0):
                v = np.zeros(g.dim)
                v[i], v[j] = 1.0, -s
                out.append(v / math.sqrt(2.0))
        if g.kind == "B":
            out.append(np.eye(g.dim)[i])
    return np.array(out)


def sigma_polys(g, c, v) -> list[np.ndarray]:
    """sigma(c + v t) as ascending t-polynomials: e_j of the coordinates (A),
    of their squares (B, D; D's last invariant is their product), and
    |z|^2, Re z^m (I2)."""
    lines = [np.array([ci, vi]) for ci, vi in zip(c, v)]

    def elementary(polys):
        e = [np.array([1.0])] + [np.array([0.0])] * len(polys)
        for k, r in enumerate(polys, start=1):
            for j in range(k, 0, -1):
                e[j] = P.polyadd(e[j], P.polymul(r, e[j - 1]))
        return e[1:]

    if g.kind == "A":
        return elementary(lines)
    if g.kind == "I2":
        x, y = lines
        re, im = np.array([1.0]), np.array([0.0])
        for _ in range(g.param):
            re, im = P.polysub(P.polymul(re, x), P.polymul(im, y)), P.polyadd(P.polymul(re, y), P.polymul(im, x))
        return [P.polyadd(P.polymul(x, x), P.polymul(y, y)), re]
    comps = elementary([P.polymul(r, r) for r in lines])
    if g.kind == "D":
        comps[-1] = np.array([1.0])
        for r in lines:
            comps[-1] = P.polymul(comps[-1], r)
    return comps


def sigma_of_points(g, pts: np.ndarray) -> np.ndarray:
    """sigma at each row of pts, from the invariants' definitions."""
    if g.kind == "I2":
        z = pts[:, 0] + 1j * pts[:, 1]
        return np.stack([np.abs(z) ** 2, (z**g.param).real], axis=1)
    base = pts if g.kind == "A" else pts * pts
    out = np.stack([np.poly(row)[1:] * (-1.0) ** np.arange(1, g.dim + 1) for row in base])
    if g.kind == "D":
        out[:, -1] = np.prod(pts, axis=1)
    return out


def lift_bounds(g, gamma: np.ndarray) -> np.ndarray:
    """The allowed distance of the lift from w.gamma at each sample: 1e-8
    times the scale where the coordinates are simple roots; near a
    hyperplane at distance d the roots are near-double, with an error that
    grows like eps scale^2 / d up to sqrt(eps scale) scale; within the
    collapse width a pair may come back merged, sqrt(tol) scale (I2:
    sqrt(1e-8) scale)."""
    scale = 1.0 + np.max(np.abs(gamma))
    d = np.min(np.abs(gamma @ normals(g).T), axis=1)
    with np.errstate(divide="ignore"):
        near = np.minimum(EPS * scale * scale / d, math.sqrt(EPS * scale) * scale)
    collapse = math.sqrt(1e-8 if g.kind == "I2" else TOL) * scale
    merged = np.where(d < 2.0 * collapse, collapse, 0.0)
    return 1e-8 * scale + 64.0 * near + merged


def wall_line(g, rng, level):
    """A line c + v t, |v| = 1, that meets one reflecting hyperplane at an
    interior sample with normal speed in [0.6, 0.8], and stays 0.1 away from
    the others on [-1, 1] (I2: also 0.4 away from the origin)."""
    nrm = normals(g)
    t = cd.Grid.dyadic(-1, 1, level).points
    while True:
        i = int(rng.integers(SIDE + 2, t.size - SIDE - 1))
        k = int(rng.integers(len(nrm)))
        v = rng.normal(size=g.dim)
        v /= np.linalg.norm(v)
        if not 0.6 <= abs(float(nrm[k] @ v)) <= 0.8:
            continue
        p = rng.uniform(-3.0, 3.0, g.dim)
        c = p - (nrm[k] @ p) * nrm[k] - t[i] * v  # gamma(t_i) is p projected onto the hyperplane
        # the same sign at both ends means no crossing; along a line the
        # least distance is at an end
        ends = np.stack([c - v, c + v]) @ np.delete(nrm, k, axis=0).T
        if np.any(np.abs(ends) < 0.1) or np.any(np.sign(ends[0]) != np.sign(ends[1])):
            continue
        if g.kind == "I2" and np.min(np.linalg.norm(c + t[:, None] * v, axis=1)) < 0.4:
            continue
        return c, v


def near_zero_line(g, rng, level, k):
    """A line c + v t, |v| = 1, whose coordinate j is +-10^-k at an interior
    sample and passes 0 next to it, and that stays 0.1 away from the
    hyperplanes not normal to e_j."""
    nrm = normals(g)
    t = cd.Grid.dyadic(-1, 1, level).points
    while True:
        i = int(rng.integers(SIDE + 2, t.size - SIDE - 1))
        j = int(rng.integers(g.dim))
        v = rng.normal(size=g.dim)
        v /= np.linalg.norm(v)
        if abs(v[j]) < 0.3:
            continue
        c = rng.uniform(-3.0, 3.0, g.dim) - t[i] * v
        c[j] = rng.choice([-1.0, 1.0]) * 10.0**-k - t[i] * v[j]
        others = nrm[np.abs(nrm @ np.eye(g.dim)[j]) < 1.0]
        ends = np.stack([c - v, c + v]) @ others.T
        if np.any(np.abs(ends) < 0.1) or np.any(np.sign(ends[0]) != np.sign(ends[1])):
            continue
        return c, v


def check_lift(g, c, v, level):
    """Lift sigma(c + v t) on the level's grid over [-1, 1] and check it."""
    m = inv.orbit_map(g)
    comps = sigma_polys(g, c, v)
    curve = cd.CoeffCurve(lambda t: np.stack([P.polyval(t, cf) for cf in comps], axis=-1), len(comps))
    grid = cd.Grid.dyadic(-1, 1, level)
    lift = lf.lift_curve(g, m, curve, grid, TOL)
    t = grid.points
    target = curve.evaluate(t)
    scale = 1.0 + float(np.max(np.abs(target)))
    resid = np.max(np.abs(sigma_of_points(g, lift.values) - target), axis=1)
    assert np.all(resid <= 1e-8 * scale), f"sigma(lift) misses the curve by {resid.max():.3g}"
    gamma = c + t[:, None] * v
    bound = lift_bounds(g, gamma)
    inside = np.zeros(t.size, dtype=bool)
    for lo, hi in lift.unresolved:
        inside |= (t >= lo) & (t <= hi)
    group = elements(g)
    # the runs of samples between unresolved windows
    for seg in np.split(np.arange(t.size), np.flatnonzero(np.diff(inside.astype(int)) != 0) + 1):
        if inside[seg[0]]:
            continue
        moved = np.einsum("wij,nj->wni", group, gamma[seg])
        dev = np.max(np.abs(moved - lift.values[seg]), axis=2) / bound[seg]
        worst = np.max(dev, axis=1)
        assert np.min(worst) <= 1.0, (
            f"no w gives lift = w.gamma on [{t[seg[0]]}, {t[seg[-1]]}]: the best is off by {worst.min():.3g} bounds")


@pytest.mark.parametrize("spec", GROUPS)
def test_lines_through_one_wall(spec, oracle_seeds):
    g = inv.parse_group(spec)
    for seed in oracle_seeds:
        rng = np.random.default_rng([seed, GROUPS.index(spec), 16])
        for level in (5, 6):
            c, v = wall_line(g, rng, level)
            check_lift(g, c, v, level)


# the least root of the squares polynomial, 1e-14, lies below the solve's
# zero rule, 2 gamma (1 + largest root): a zero modulus frees D's parity,
# so the lift takes points of either parity there, off w.gamma by 1e-7 and
# with sigma missing the product, although y_n != 0 (ROADMAP item 15)
ZEROED = pytest.mark.xfail(strict=True, reason="ROADMAP item 15: a modulus of 1e-7 is zeroed and frees D's parity")


@pytest.mark.parametrize("spec,k", [
    pytest.param(spec, k, marks=ZEROED if spec[0] == "D" and k == 7 else ())
    for spec in ("B:2", "B:3", "B:4", "D:3", "D:4") for k in range(3, 10)
])
def test_a_coordinate_near_zero(spec, k, oracle_seeds):
    g = inv.parse_group(spec)
    level = 5 + k % 2
    for seed in oracle_seeds:
        rng = np.random.default_rng([seed, GROUPS.index(spec), k, 15])
        c, v = near_zero_line(g, rng, level, k)
        check_lift(g, c, v, level)


def two_wall_line(g, rng, level):
    """A line c + v t, |v| = 1, that meets one reflecting hyperplane at an
    interior sample i and another at sample i + j, j = 1..3, each with
    normal speed in [0.3, 0.9], and stays 0.1 away from every hyperplane
    whose normal is not in the span of those two.  The hyperplanes whose
    normals are in it meet where those two meet, and the line crosses them
    wherever it does (on I2, every hyperplane)."""
    nrm = normals(g)
    t = cd.Grid.dyadic(-1, 1, level).points
    while True:
        i = int(rng.integers(SIDE + 2, t.size - SIDE - 4))
        j = int(rng.integers(1, 4))
        pair = rng.choice(len(nrm), 2, replace=False)
        n2 = nrm[pair]
        v = rng.normal(size=g.dim)
        v /= np.linalg.norm(v)
        speed = np.abs(n2 @ v)
        if np.any(speed < 0.3) or np.any(speed > 0.9):
            continue
        # q = gamma(t_i) on the first hyperplane, and gamma(t_(i+j)) on the second
        p = rng.uniform(-3.0, 3.0, g.dim)
        target = np.array([0.0, -(n2[1] @ v) * (t[i + j] - t[i])])
        q = p - n2.T @ np.linalg.solve(n2 @ n2.T, n2 @ p - target)
        c = q - t[i] * v
        proj = nrm - (nrm @ n2.T) @ np.linalg.solve(n2 @ n2.T, n2)
        others = nrm[np.linalg.norm(proj, axis=1) > 1e-9]
        ends = np.stack([c - v, c + v]) @ others.T
        if np.any(np.abs(ends) < 0.1) or np.any(np.sign(ends[0]) != np.sign(ends[1])):
            continue
        return c, v


# two crossings two or three samples apart, with the hyperplanes through
# their meeting crossed between samples, give a lift that is w.gamma before
# them and w'.gamma after, w' != w, and no unresolved window; one sample
# apart, about a third of the lines do too (ROADMAP item 16).  Every group
# fails at seeds 1-3 and over 1-200; a single seed may pass a group
TWO_WALLS = pytest.mark.xfail(strict=True, reason="ROADMAP item 16: two walls within three samples fold the lift")


@TWO_WALLS
@pytest.mark.parametrize("spec", GROUPS)
def test_lines_through_two_walls_within_three_samples(spec, oracle_seeds):
    g = inv.parse_group(spec)
    for seed in oracle_seeds:
        rng = np.random.default_rng([seed, GROUPS.index(spec), 2, 16])
        for level in (5, 6):
            c, v = two_wall_line(g, rng, level)
            check_lift(g, c, v, level)


# the squares polynomial's roots {t^2, 0, ...} collapse near t = 0, which
# moves its coefficients by up to tol^(2/3) (ROADMAP item 1)
COLLAPSED = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the collapse width is absolute near the origin")


@pytest.mark.parametrize("spec,level", [
    pytest.param(spec, level, marks=COLLAPSED if spec in ("B:4", "D:4") and level == 6 else ())
    for spec in ("A:1", "A:2", "A:3", "B:2", "B:3", "B:4", "D:4", "I2:3", "I2:4") for level in (5, 6)
])
def test_a_line_through_the_origin_along_a_mirror(spec, level):
    # sigma(t v), v the maximal-isotropy vector of the last summand: the
    # curve reaches the point of largest isotropy, the origin, at t = 0
    g = inv.parse_group(spec)
    check_lift(g, np.zeros(g.dim), inv._summands(g)[-1][1], level)
