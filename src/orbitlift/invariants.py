"""Finite reflection groups: catalog, invariant maps, orbits, fibers, k-data.

Catalog families and their invariant maps sigma : V -> R^n:

  A(n-1)  permutations of R^n        sigma_j = e_j(v),            degrees 1..n
  B(n)    signed permutations        sigma_j = e_j(v_1^2,...),    degrees 2,4,..,2n
  D(n)    even-sign permutations     e_j(v^2) for j < n, e_n(v),  degrees 2,..,2n-2, n
  I2(m)   dihedral on R^2            (x^2+y^2, Re((x+iy)^m)),     degrees 2, m

Elementary symmetric functions are evaluated on canonically sorted inputs,
so sigma is bitwise invariant under any exactly-represented group element
(signed permutation matrices are exact in floating point).

A fiber sigma^{-1}(y) is one orbit: A, B and D solve for it through
hyperpoly; I2(m) inverts (|z|^2, Re z^m) in closed form,
z = r exp(i(+-theta + 2 pi k / m)) with m theta = arccos(y_2 / r^m).

The k-data come in closed form, without enumerating the group.  A point's
stabilizer is the parabolic subgroup of the walls through it (Steinberg's
theorem), so the least orbit of a nonzero point in an irreducible summand is
n for A(n-1) (on its sum-zero summand), 2n for B(n), min(2n, 2^(n-1)) for
D(n) and m for I2(m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hyperpoly
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotHyperbolic,
    ToleranceViolation,
    UnsupportedParameter,
)

ENUM_LIMIT = 10_000

_DEDUP_DECIMALS = 10


@dataclass(frozen=True, eq=False)
class ReflectionGroup:
    kind: str  # "A", "B", "D", "I2"
    param: int
    dim: int
    order: int
    generators: tuple[np.ndarray, ...]
    _elements: list = field(default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.param}"

    def elements(self) -> list[np.ndarray]:
        """All group elements by closure enumeration (cached)."""
        if self._elements is None:
            if self.order > ENUM_LIMIT:
                raise EnumerationTooLarge(
                    f"{self.label} has order {self.order} > {ENUM_LIMIT}"
                )
            object.__setattr__(self, "_elements", _closure(self.generators, self.dim))
        return self._elements


def _mat_key(m: np.ndarray) -> tuple:
    r = np.round(m, _DEDUP_DECIMALS)
    r[r == 0.0] = 0.0  # normalize -0.0
    return tuple(r.ravel())


def _closure(generators, dim) -> list[np.ndarray]:
    seen = {}
    frontier = [np.eye(dim)]
    seen[_mat_key(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = g @ m
                key = _mat_key(prod)
                if key not in seen:
                    if len(seen) >= ENUM_LIMIT:
                        raise EnumerationTooLarge("closure exceeded enumeration limit")
                    seen[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return [seen[k] for k in sorted(seen.keys())]


def _transposition(dim: int, i: int) -> np.ndarray:
    m = np.eye(dim)
    m[[i, i + 1]] = m[[i + 1, i]]
    return m


def make_group(kind: str, param: int) -> ReflectionGroup:
    """Catalog constructor; orders are n!, 2^n n!, 2^(n-1) n!, 2m."""
    kind = kind.strip()
    if kind == "A":
        if param < 1:
            raise UnsupportedParameter("A needs parameter >= 1")
        dim = param + 1
        gens = [_transposition(dim, i) for i in range(param)]
        return ReflectionGroup("A", param, dim, math.factorial(dim), tuple(gens))
    if kind == "B":
        if param < 2:
            raise UnsupportedParameter("B needs parameter >= 2")
        dim = param
        gens = [_transposition(dim, i) for i in range(dim - 1)]
        flip = np.eye(dim)
        flip[-1, -1] = -1.0
        gens.append(flip)
        return ReflectionGroup("B", param, dim, 2**dim * math.factorial(dim), tuple(gens))
    if kind == "D":
        if param < 3:
            raise UnsupportedParameter("D needs parameter >= 3")
        dim = param
        gens = [_transposition(dim, i) for i in range(dim - 1)]
        dflip = np.eye(dim)
        dflip[dim - 2 : dim, dim - 2 : dim] = [[0.0, -1.0], [-1.0, 0.0]]
        gens.append(dflip)
        return ReflectionGroup(
            "D", param, dim, 2 ** (dim - 1) * math.factorial(dim), tuple(gens)
        )
    if kind == "I2":
        if param < 2:
            raise UnsupportedParameter("I2 needs parameter >= 2")
        theta = 2.0 * np.pi / param
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        # trig of rational angles lands a few ulp off exactly representable
        # values (cos(pi/2) = 6.1e-17); snap so those generators stay exact
        for exact in (0.0, 0.5, -0.5, 1.0, -1.0):
            rot[np.abs(rot - exact) < 4e-16] = exact
        ref = np.array([[1.0, 0.0], [0.0, -1.0]])
        return ReflectionGroup("I2", param, 2, 2 * param, (rot, ref))
    raise UnsupportedParameter(f"unknown family {kind!r} (expected A, B, D, I2)")


def parse_group(spec: str) -> ReflectionGroup:
    """Parse catalog labels like "A:2", "B:3", "I2:5"."""
    try:
        kind, param = spec.split(":")
        return make_group(kind, int(param))
    except ValueError as exc:
        raise UnsupportedParameter(f"bad group spec {spec!r}") from exc


# -- invariant map -------------------------------------------------------------

def _signed_product(values: np.ndarray) -> float:
    """prod(values) evaluated in canonical order (sign times sorted-|.| product)."""
    sign = 1.0
    for x in values:
        if x < 0:
            sign = -sign
        elif x == 0:
            return 0.0
    out = 1.0
    for m in np.sort(np.abs(values)):
        out *= m
    return sign * out


def _re_complex_power(x: float, y: float, m: int) -> float:
    """Re((x + iy)^m) by binary powering; no trig, deterministic."""
    rr, ri = 1.0, 0.0
    bx, by = float(x), float(y)
    e = m
    while e:
        if e & 1:
            rr, ri = rr * bx - ri * by, rr * by + ri * bx
        e >>= 1
        if e:
            bx, by = bx * bx - by * by, 2.0 * bx * by
    return rr


@dataclass(frozen=True, eq=False)
class OrbitMapSigma:
    group: ReflectionGroup
    n_invariants: int
    degrees: tuple[int, ...]

    @property
    def d_value(self) -> int:
        """Maximal invariant degree."""
        return max(self.degrees)

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.size != self.group.dim:
            raise DimensionMismatch(
                f"point has dim {v.size}, {self.group.label} acts on R^{self.group.dim}"
            )
        kind = self.group.kind
        if kind == "I2":
            x, y = v
            return np.array([x * x + y * y, _re_complex_power(x, y, self.group.param)])
        e = np.array(hyperpoly._elementary(np.sort(v if kind == "A" else v * v).tolist()))
        if kind == "D":
            e[-1] = _signed_product(v)
        return e


def orbit_map(group: ReflectionGroup) -> OrbitMapSigma:
    n = group.dim
    if group.kind == "A":
        degrees = tuple(range(1, n + 1))
    elif group.kind == "B":
        degrees = tuple(2 * j for j in range(1, n + 1))
    elif group.kind == "D":
        degrees = tuple(2 * j for j in range(1, n)) + (n,)
    else:
        degrees = (2, group.param)
    return OrbitMapSigma(group, len(degrees), degrees)


def sigma(map_: OrbitMapSigma, v) -> np.ndarray:
    return map_.evaluate(v)


# -- orbits -----------------------------------------------------------------------

def _point_key(p: np.ndarray) -> tuple:
    r = np.round(p, _DEDUP_DECIMALS)
    r[r == 0.0] = 0.0
    return tuple(r)


def orbit(group: ReflectionGroup, v) -> list[np.ndarray]:
    """{g.v}, deduplicated to 1e-10, sorted lexicographically."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != group.dim:
        raise DimensionMismatch(f"point has dim {v.size}, expected {group.dim}")
    pts = {}
    for g in group.elements():
        p = g @ v
        pts.setdefault(_point_key(p), p)
    return [pts[k] for k in sorted(pts.keys())]


# -- k(rho): maximal isotropy per irreducible summand ------------------------------

@dataclass(frozen=True)
class IrreducibleRecord:
    dim: int
    v: np.ndarray      # unit vector with maximal isotropy in the summand
    isotropy_order: int
    orbit_size: int


@dataclass(frozen=True)
class KData:
    group_label: str
    group_order: int
    d_value: int
    k_value: int
    records: tuple[IrreducibleRecord, ...]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _summands(group: ReflectionGroup) -> list[tuple[int, np.ndarray, int]]:
    """(dimension, maximal-isotropy unit vector, its orbit size) per
    irreducible summand of V."""
    n = group.dim
    e0 = np.eye(n)[0]
    if group.kind == "A":
        return [(1, _unit(np.ones(n)), 1), (n - 1, _unit(e0 - 1.0 / n), n)]
    if group.kind == "I2":
        if group.param == 2:
            return [(1, np.array([0.0, 1.0]), 2), (1, e0, 2)]
        return [(2, e0, group.param)]
    if group.kind == "D" and n == 3:
        return [(3, _unit(np.ones(3)), 4)]
    return [(n, e0, 2 * n)]


def compute_k(group: ReflectionGroup, map_: OrbitMapSigma | None = None) -> KData:
    """k = max(d, least orbit size of a nonzero point per irreducible summand).

    A point's stabilizer is the parabolic subgroup generated by the
    reflections in the walls through it (Steinberg's theorem; Humphreys,
    Reflection Groups and Coxeter Groups, 1.12), so a summand's largest
    isotropy belongs to a point on the most walls, in closed form:

      A(n-1)  the diagonal (orbit 1) and, in the sum-zero summand, the
              projection of e_1 (stabilizer S_(n-1), orbit n)
      B(n)    e_1, orbit 2n
      D(n)    e_1, orbit 2n, or the diagonal, orbit 2^(n-1): the diagonal
              for D(3), e_1 from D(4) on (a tie of 8 at D(4))
      I2(m)   a mirror direction, orbit m; I2(2) splits into its two axes
    """
    if map_ is None:
        map_ = orbit_map(group)
    records = tuple(
        IrreducibleRecord(dim, v, group.order // size, size)
        for dim, v, size in _summands(group)
    )
    k = max([map_.d_value] + [r.orbit_size for r in records])
    return KData(group.label, group.order, map_.d_value, k, records)


# -- fibers -----------------------------------------------------------------------

def _roots_in_band(coeffs_a: np.ndarray, tol: float) -> tuple[np.ndarray | None, bool]:
    """Roots of the monic polynomial with the given a-vector.

    Returns (roots, near_miss): near_miss marks success only in the widened
    (tol, 10*tol] band."""
    poly = hyperpoly.MonicHyperbolic(coeffs_a)
    try:
        return hyperpoly.roots(poly, tol).values, False
    except NotHyperbolic:
        pass
    try:
        return hyperpoly.roots(poly, 10.0 * tol).values, True
    except NotHyperbolic:
        return None, False


@dataclass(frozen=True, eq=False)
class Orbit:
    """One orbit sigma^{-1}(y), held by its point in the closed fundamental
    chamber, which is a fundamental domain (Humphreys, Reflection Groups and
    Coxeter Groups, ch. 1): A keeps the sorted roots, B and D the sorted
    moduli.  The nearest point, the orbit size and the least distance
    between two orbit points follow from that point without enumerating the
    orbit.  I2 keeps its at most 2m points instead, which its closed form
    gives directly.

    Coordinates equal after rounding to 1e-10 count as one value, as in the
    enumeration `points()`, which is what `fiber` returns."""

    group: ReflectionGroup
    spectrum: np.ndarray  # A: sorted roots; B, D: sorted moduli; I2: every point
    parity: float = 0.0   # D: sign the product of the coordinates must have; 0: either

    @cached_property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sizes of the runs of equal rounded spectrum values, and the gaps
        between neighbouring runs."""
        keys = np.round(self.spectrum, _DEDUP_DECIMALS)
        new_run = np.flatnonzero(np.diff(keys))
        sizes = np.diff(np.concatenate([[0], new_run + 1, [keys.size]]))
        return sizes, np.diff(self.spectrum)[new_run]

    @cached_property
    def _nonzero(self) -> np.ndarray:
        """Moduli that do not round to 0, whose sign tells orbit points apart."""
        return self.spectrum[np.round(self.spectrum, _DEDUP_DECIMALS) != 0.0]

    @cached_property
    def size(self) -> int:
        if self.group.kind == "I2":
            return len(self.spectrum)
        sizes, _ = self._classes
        count = math.factorial(self.spectrum.size)
        for m in sizes:
            count //= math.factorial(int(m))
        if self.group.kind == "A":
            return count
        return count * 2 ** self._nonzero.size // (2 if self.parity else 1)

    @cached_property
    def min_distance(self) -> float:
        """Least distance between two orbit points (inf for a single point):
        sqrt(2) * the least gap, 2 * the least nonzero modulus for B, and
        sqrt(2) * (s_1 + s_2) for D."""
        if self.group.kind == "I2":
            pts = self.spectrum
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            return float(np.min(d[np.triu_indices(len(pts), 1)])) if len(pts) > 1 else np.inf
        _, gaps = self._classes
        out = math.sqrt(2.0) * float(gaps.min()) if gaps.size else np.inf
        if self.group.kind != "A" and self.parity:
            out = min(out, math.sqrt(2.0) * float(self.spectrum[0] + self.spectrum[1]))
        elif self.group.kind != "A" and self._nonzero.size:
            out = min(out, 2.0 * float(self._nonzero[0]))
        return out

    @property
    def max_abs(self) -> float:
        """Largest |coordinate| of an orbit point."""
        return float(np.max(np.abs(self.spectrum)))

    @property
    def first(self) -> np.ndarray:
        """The lexicographically first orbit point, `points()[0]`."""
        if self.group.kind == "I2":
            return self.spectrum[0]
        return self.nearest(np.zeros(self.group.dim))

    def nearest(self, p: np.ndarray) -> np.ndarray:
        """The orbit point nearest p, for each row of p (shape (dim,) or
        (k, dim)); an exact tie goes to the lexicographically first point.

        A puts the sorted roots in p's rank order (the rearrangement
        inequality); B puts the sorted moduli in the rank order of |p| with
        p's signs; D then flips, if the sign parity is wrong, the coordinate
        with the least |v_i p_i|."""
        p = np.asarray(p, dtype=float)
        rows = np.atleast_2d(p)
        if self.group.kind == "I2":
            d = np.linalg.norm(self.spectrum[None, :, :] - rows[:, None, :], axis=2)
            return self.spectrum[np.argmin(d, axis=1)].reshape(p.shape)
        spectrum = np.broadcast_to(self.spectrum, rows.shape)
        v = np.empty_like(rows)
        if self.group.kind == "A":
            np.put_along_axis(v, np.argsort(rows, axis=1, kind="stable"), spectrum, axis=1)
            return v.reshape(p.shape)
        # within a tie of |p|, positive coordinates take the smallest moduli
        # in index order and the others the largest: the lexicographic first
        n = self.group.dim
        idx = np.broadcast_to(np.arange(n), rows.shape)
        a = np.abs(rows)
        neg = ~(rows > 0.0)
        order = np.lexsort((np.where(neg, -idx, idx), neg, a), axis=1)
        np.put_along_axis(v, order, spectrum, axis=1)
        v = np.where(neg, -v, v) + 0.0  # + 0.0 turns -0.0 into 0.0
        if self.parity:
            wrong = np.flatnonzero((np.count_nonzero(v < 0.0, axis=1) % 2 == 1) != (self.parity < 0.0))
            if wrong.size:
                # the least |v_i p_i| sits at the least |p_i|, on its least
                # modulus; a tie flips its first positive p_i, else its last
                av, aw = np.abs(v[wrong]), a[wrong]
                cand = aw == aw.min(axis=1, keepdims=True)
                cand &= av == np.where(cand, av, np.inf).min(axis=1, keepdims=True)
                pos = cand & (rows[wrong] > 0.0)
                j = np.where(pos.any(axis=1), pos.argmax(axis=1), n - 1 - cand[:, ::-1].argmax(axis=1))
                v[wrong, j] = -v[wrong, j]
        return v.reshape(p.shape)

    def points(self) -> list[np.ndarray]:
        """Every orbit point, deduplicated to 1e-10 and sorted
        lexicographically; EnumerationTooLarge past ENUM_LIMIT points."""
        if self.group.kind == "I2":
            return [p.copy() for p in self.spectrum]
        if self.size > ENUM_LIMIT:
            raise EnumerationTooLarge(f"{self.group.label} orbit has {self.size} points > {ENUM_LIMIT}")
        if self.group.kind == "A":
            return _dedup_points(itertools.permutations(self.spectrum))
        pts = []
        for perm in set(itertools.permutations(self.spectrum)):
            pv = np.array(perm)
            for signs in itertools.product((1.0, -1.0), repeat=pv.size):
                v = np.array(signs) * pv
                if not self.parity or _signed_product(v) * self.parity > 0.0:
                    pts.append(v)
        return _dedup_points(pts)


def orbit_at(map_: OrbitMapSigma, y, tol: float = 1e-10) -> Orbit | None:
    """The orbit sigma^{-1}(y), or None when y is not in the image.  Raises
    ToleranceViolation when y only fits within the widened (tol, 10*tol]
    band: the input is ill-posed at this tolerance."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != map_.n_invariants:
        raise DimensionMismatch(
            f"value has dim {y.size}, sigma has {map_.n_invariants} components"
        )
    group = map_.group
    if group.kind == "I2":
        pts = _fiber_dihedral(map_, y, tol)
        return Orbit(group, np.array(pts)) if pts else None
    n = group.dim
    if group.kind == "A":
        s, near = _roots_in_band(y, tol)
    else:
        a = y if group.kind == "B" else np.concatenate([y[: n - 1], [y[n - 1] ** 2]])
        s, near = _sqrt_spectrum(a, tol)
    if s is None:
        return None
    if near:
        raise ToleranceViolation("orbit-space point within (tol, 10*tol] of the image")
    # D keeps the sign patterns whose product has the sign of y_n; with a
    # zero coordinate both signs reach the same points
    keep_all = group.kind != "D" or bool(np.min(s) <= (tol * (1.0 + float(np.max(np.abs(y))))) ** 0.5)
    return Orbit(group, s, 0.0 if keep_all else float(np.sign(y[n - 1])))


def fiber(map_: OrbitMapSigma, y, tol: float = 1e-10) -> list[np.ndarray]:
    """Full preimage sigma^{-1}(y) (a single orbit), or [] when y is not in
    the image: the enumeration of `orbit_at(map_, y, tol)`.  y may also be
    an Orbit already solved for.  Raises ToleranceViolation as orbit_at."""
    orb = y if isinstance(y, Orbit) else orbit_at(map_, y, tol)
    return [] if orb is None else orb.points()


def _sqrt_spectrum(coeffs_a: np.ndarray, tol: float) -> tuple[np.ndarray | None, bool]:
    """Nonnegative square roots of the roots of the squares-polynomial."""
    vals, near = _roots_in_band(coeffs_a, tol)
    if vals is None:
        return None, False
    scale = 1.0 + float(np.max(np.abs(coeffs_a)))
    lo = float(vals.min())
    if lo < -10.0 * tol * scale:
        return None, False
    # a root within rounding noise of 0 is 0, as its square root would be
    # sqrt(noise), far above the noise itself: a root below that noise at
    # the scale of the largest root (not of the coefficients, which grow
    # like its n-th power), and the least roots, one at a time, while the
    # constant term of the polynomial with the zero roots divided out is
    # within its Horner noise at the next root; a cluster the solver gives
    # as one repeated value is zero as a whole or not at all
    n = vals.size
    gamma = 2.0 * (n + 1) * np.finfo(float).eps
    zero = vals <= 2.0 * gamma * (1.0 + max(float(vals[-1]), 0.0))
    c = np.abs(np.concatenate([[1.0], coeffs_a]))
    k = 0
    while k < n and c[n - k] <= gamma * np.polyval(c[: n - k + 1], abs(float(vals[k]))):
        k += 1
    if k < n:
        k = int(np.searchsorted(vals, vals[k]))
    zero[:k] = True
    return np.sqrt(np.where(zero, 0.0, vals)), near or lo < -tol * scale


def _fiber_dihedral(map_: OrbitMapSigma, y, tol: float) -> list[np.ndarray]:
    """sigma^{-1}(y) for I2(m) in closed form: the points
    r (cos, sin)(+-theta + 2 pi k / m) with r^2 = y_1 and
    r^m cos(m theta) = y_2.  Within tol r^m below the mirror value
    |y_2| = r^m (or the tol-ball above it) the point is on a mirror."""
    m = map_.group.param
    scale = 1.0 + float(np.max(np.abs(y)))
    r2, target = float(y[0]), float(y[1])
    if r2 < -10.0 * tol * scale:
        return []
    if r2 < -tol * scale:
        raise ToleranceViolation("radius^2 within (tol, 10*tol] below zero")
    r = math.sqrt(max(r2, 0.0))
    if r <= (tol * scale) ** 0.5:
        if abs(target) > 10.0 * tol * scale:
            return []
        return [np.zeros(2)]
    rm = r**m
    excess = abs(target) - rm
    if excess > 10.0 * tol * scale:
        return []
    if excess > tol * scale:
        raise ToleranceViolation("cos(m*theta) target within (tol, 10*tol] above 1")
    # snap to the mirror: arccos turns a (relative) rounding error e in
    # cos(m theta) near +-1 into an angle sqrt(2 e) / m off it
    on_mirror = excess >= -tol * rm
    theta = math.acos(math.copysign(1.0, target) if on_mirror else target / rm) / m
    angles = theta + 2.0 * math.pi * np.arange(m) / m
    pts = r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # trig of multiples of pi/2 lands a few ulp off the axes (sin(pi) =
    # 1.2e-16); snap, so that a point on an axis has an exact zero
    pts[np.abs(pts) <= 1e-15 * r] = 0.0
    if not on_mirror:
        pts = np.concatenate([pts, pts * [1.0, -1.0]])
    return _dedup_points(pts)


def _dedup_points(points) -> list[np.ndarray]:
    out = {}
    for p in points:
        arr = np.asarray(p, dtype=float)
        out.setdefault(_point_key(arr), arr)
    if len(out) > ENUM_LIMIT:
        raise EnumerationTooLarge("fiber exceeds enumeration limit")
    return [out[k] for k in sorted(out.keys())]
