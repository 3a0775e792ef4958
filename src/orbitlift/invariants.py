"""Finite reflection groups: catalog, invariant maps, orbits, fibers, k-data.

Catalog families and their invariant maps sigma : V -> R^n:

  A(n-1)  permutations of R^n        sigma_j = e_j(v),            degrees 1..n
  B(n)    signed permutations        sigma_j = e_j(v_1^2,...),    degrees 2,4,..,2n
  D(n)    even-sign permutations     e_j(v^2) for j < n, e_n(v),  degrees 2,..,2n-2, n
  I2(m)   dihedral on R^2            (x^2+y^2, Re((x+iy)^m)),     degrees 2, m

Elementary symmetric functions are evaluated on canonically sorted inputs,
so sigma is bitwise invariant under any exactly-represented group element
(signed permutation matrices are exact in floating point).

A fiber sigma^{-1}(y) is one orbit.  The orbits of a block of values y,
such as the samples of a curve, are solved as one block (orbits_at): A, B
and D by one hyperpoly.roots_batch call on the whole block, I2(m) by
inverting (|z|^2, Re z^m) in closed form on the whole block,
z = r exp(i(+-theta + 2 pi k / m)) with m theta = arccos(y_2 / r^m).  The
block holds each orbit by its chamber point and computes the orbit sizes
and least distances over all its rows; an Orbit is a view of one row, and
orbit_at is the one-row case of orbits_at.  An Orbit answers the nearest
point, the reflection images of a point and the rank of a point in the
lexicographic listing of the orbit, all without listing it.

The k-data come in closed form, without enumerating the group.  A point's
stabilizer is the parabolic subgroup of the walls through it (Steinberg's
theorem), so the least orbit of a nonzero point in an irreducible summand is
n for A(n-1) (on its sum-zero summand), 2n for B(n), min(2n, 2^(n-1)) for
D(n) and m for I2(m).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperpoly
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NotFinite,
    NotHyperbolic,
    NotInImage,
    RootSolveFailed,
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


def _re_complex_power(x, y, m: int):
    """Re((x + iy)^m) by binary powering, for floats or arrays; no trig,
    deterministic."""
    rr, ri = 1.0, 0.0
    bx, by = x, y
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
        """sigma(v) of a point v, shape (n,), or of each row of an (N, dim)
        block, shape (N, n).  The block runs the float operations of the
        point on arrays, in the same order, so a row gets the bits of its
        point."""
        v = np.asarray(v, dtype=float)
        size = v.shape[1] if v.ndim == 2 else v.size
        if size != self.group.dim:
            raise DimensionMismatch(
                f"point has dim {size}, {self.group.label} acts on R^{self.group.dim}"
            )
        if v.ndim == 2:
            return self._evaluate_rows(v)
        v = v.reshape(-1)
        kind = self.group.kind
        if kind == "I2":
            x, y = float(v[0]), float(v[1])
            return np.array([x * x + y * y, _re_complex_power(x, y, self.group.param)])
        e = np.array(hyperpoly._elementary(np.sort(v if kind == "A" else v * v).tolist()))
        if kind == "D":
            e[-1] = _signed_product(v)
        return e

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        kind = self.group.kind
        if kind == "I2":
            x, y = rows[:, 0], rows[:, 1]
            return np.stack([x * x + y * y, _re_complex_power(x, y, self.group.param)], axis=1)
        cols = np.sort(rows if kind == "A" else rows * rows, axis=1).T
        e = np.stack(hyperpoly._elementary(list(cols)), axis=1)
        if kind == "D":
            # _signed_product of every row
            out = 1.0
            for m in np.sort(np.abs(rows), axis=1).T:
                out = out * m
            odd = np.count_nonzero(rows < 0.0, axis=1) % 2 == 1
            e[:, -1] = np.where((rows == 0.0).any(axis=1), 0.0, np.where(odd, -out, out))
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

_BAND = "orbit-space point within (tol, 10*tol] of the image"


@dataclass(frozen=True, eq=False)
class OrbitBlock:
    """The orbits sigma^{-1}(y) of the rows y of a block, such as the
    samples of a curve.  Each is held by its point in the closed fundamental
    chamber, which is a fundamental domain (Humphreys, Reflection Groups and
    Coxeter Groups, ch. 1): A keeps the sorted roots, B and D the sorted
    moduli, one row of `spectra` per orbit.  The orbit sizes and the least
    distances between two orbit points follow from those rows without
    enumerating an orbit, and are computed over the whole block.  I2 keeps
    each orbit's at most 2m points instead, which its closed form gives
    for the whole block at once.

    Coordinates equal after rounding to 1e-10 count as one value, as in the
    enumeration `Orbit.points()` (`fiber`), which the tests hold the closed
    forms to.  Indexing gives an `Orbit`, a view of one row; slicing gives a
    block of rows."""

    group: ReflectionGroup
    spectra: np.ndarray | list  # (N, n); I2: a list of N point arrays
    parity: np.ndarray          # D: sign the product of the coordinates must have; 0: either
    sizes: np.ndarray           # exact orbit sizes, as Python ints
    min_distance: np.ndarray    # least distance between two orbit points; inf for one point
    max_abs: np.ndarray         # largest |coordinate| of an orbit point

    def __len__(self) -> int:
        return len(self.parity)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OrbitBlock(self.group, self.spectra[i], self.parity[i], self.sizes[i],
                              self.min_distance[i], self.max_abs[i])
        return Orbit(self.group, self.spectra[i], float(self.parity[i]), self.sizes[i],
                     float(self.min_distance[i]))


def _chamber_block(group: ReflectionGroup, spectra: np.ndarray, parity: np.ndarray) -> OrbitBlock:
    """The block of the A, B or D orbits with these chamber points.

    A run of L equal rounded values divides the orbit size by L!, and B and
    D double it for every value that does not round to 0, D halving it
    again when the parity is fixed.  The least distance is sqrt(2) times the
    least gap between runs, and for B also 2 times the least nonzero
    modulus, for D with a fixed parity sqrt(2) (s_1 + s_2)."""
    n = spectra.shape[1]
    keys = np.round(spectra, _DEDUP_DECIMALS)
    new_run = keys[:, 1:] != keys[:, :-1]
    # each value's place in its run: the places of a run of L multiply to L!
    place = np.ones(spectra.shape, dtype=np.int64)
    for j in range(1, n):
        place[:, j] = np.where(new_run[:, j - 1], 1, place[:, j - 1] + 1)
    dist = math.sqrt(2.0) * np.where(new_run, np.diff(spectra, axis=1), np.inf).min(axis=1)
    traits = [place]
    if group.kind != "A":
        nonzero = keys != 0.0
        fixed = parity != 0.0
        least = np.where(nonzero, spectra, np.inf).min(axis=1)
        paired = math.sqrt(2.0) * (spectra[:, 0] + spectra[:, 1])
        dist = np.minimum(dist, np.where(fixed, paired, 2.0 * least))
        traits += [np.count_nonzero(nonzero, axis=1)[:, None], fixed[:, None]]
    # the sizes as Python ints, computed once per distinct row of traits
    distinct, inverse = np.unique(np.concatenate(traits, axis=1), axis=0, return_inverse=True)
    sizes = []
    for row in distinct.tolist():
        size = math.factorial(n) // math.prod(row[:n])
        if group.kind != "A":
            size = size * 2 ** row[n] // (2 if row[n + 1] else 1)
        sizes.append(size)
    sizes = np.array(sizes, dtype=object)[inverse.reshape(-1)]
    return OrbitBlock(group, spectra, parity, sizes, dist, np.max(np.abs(spectra), axis=1))


@dataclass(frozen=True, eq=False)
class Orbit:
    """One orbit of an OrbitBlock, a view of its row, which answers the
    nearest point, a point's reflection images and its rank without
    enumerating the orbit."""

    group: ReflectionGroup
    spectrum: np.ndarray  # A: sorted roots; B, D: sorted moduli; I2: every point
    parity: float         # as OrbitBlock.parity
    size: int
    min_distance: float

    @property
    def first(self) -> np.ndarray:
        """The lexicographically first orbit point, `points()[0]`."""
        if self.group.kind == "I2":
            return self.spectrum[0]
        return self.nearest(np.zeros(self.group.dim))

    def nearest(self, p: np.ndarray) -> np.ndarray:
        """The orbit point nearest p, for one point (shape (dim,)) or for
        each row of p (shape (k, dim)); an exact tie goes to the
        lexicographically first point.

        A puts the sorted roots in p's rank order (the rearrangement
        inequality); B puts the sorted moduli in the rank order of |p| with
        p's signs; D then flips, if the sign parity is wrong, the coordinate
        with the least |v_i p_i|.  These only permute and flip signs, so a
        point gets the same bits alone as in a block."""
        p = np.asarray(p, dtype=float)
        if self.group.kind == "I2":
            d = np.linalg.norm(self.spectrum[None, :, :] - np.atleast_2d(p)[:, None, :], axis=2)
            return self.spectrum[np.argmin(d, axis=1)].reshape(p.shape)
        if p.ndim == 2:
            return self._nearest_rows(p)
        n = p.size
        v = np.empty(n)
        if self.group.kind == "A":
            v[np.argsort(p, kind="stable")] = self.spectrum
            return v
        # within a tie of |p|, positive coordinates take the smallest moduli
        # in index order and the others the largest: the lexicographic first
        a, neg, idx = np.abs(p), ~(p > 0.0), np.arange(n)
        v[np.lexsort((np.where(neg, -idx, idx), neg, a))] = self.spectrum
        v = np.where(neg, -v, v) + 0.0  # + 0.0 turns -0.0 into 0.0
        parity = self.parity
        if parity and (np.count_nonzero(v < 0.0) % 2 == 1) != (parity < 0.0):
            # the least |v_i p_i| sits at the least |p_i|, on its least
            # modulus; a tie flips its first positive p_i, else its last
            av = np.abs(v)
            cand = a == a.min()
            cand &= av == av[cand].min()
            pos = cand & (p > 0.0)
            j = pos.argmax() if pos.any() else n - 1 - cand[::-1].argmax()
            v[j] = -v[j]
        return v

    def _nearest_rows(self, rows: np.ndarray) -> np.ndarray:
        """nearest for each row of rows at once, by the same rule."""
        spectrum = np.broadcast_to(self.spectrum, rows.shape)
        v = np.empty_like(rows)
        if self.group.kind == "A":
            np.put_along_axis(v, np.argsort(rows, axis=1, kind="stable"), spectrum, axis=1)
            return v
        n = self.group.dim
        idx = np.broadcast_to(np.arange(n), rows.shape)
        a = np.abs(rows)
        neg = ~(rows > 0.0)
        order = np.lexsort((np.where(neg, -idx, idx), neg, a), axis=1)
        np.put_along_axis(v, order, spectrum, axis=1)
        v = np.where(neg, -v, v) + 0.0
        if self.parity:
            wrong = np.flatnonzero((np.count_nonzero(v < 0.0, axis=1) % 2 == 1) != (self.parity < 0.0))
            if wrong.size:
                av, aw = np.abs(v[wrong]), a[wrong]
                cand = aw == aw.min(axis=1, keepdims=True)
                cand &= av == np.where(cand, av, np.inf).min(axis=1, keepdims=True)
                pos = cand & (rows[wrong] > 0.0)
                j = np.where(pos.any(axis=1), pos.argmax(axis=1), n - 1 - cand[:, ::-1].argmax(axis=1))
                v[wrong, j] = -v[wrong, j]
        return v

    def neighbours(self, pts: np.ndarray) -> np.ndarray:
        """Orbit points that include every point joined to a row of pts by
        an edge of the orbit's convex hull: for A, B and D the images of the
        rows under the group's reflections, (k * reflections, dim); for I2
        every orbit point.  A D orbit whose parity is free (a modulus near
        0) is listed with every sign pattern, so it takes B's reflections."""
        if self.group.kind == "I2":
            return self.spectrum
        kind = "B" if self.group.kind == "D" and not self.parity else self.group.kind
        index, sign = _reflections(self.group.dim, kind)
        return (pts[:, index] * sign).reshape(-1, self.group.dim)

    def ranks(self, pts: np.ndarray) -> list[int]:
        """The index in `points()` of each orbit point of pts, (k, dim),
        without listing the orbit: its lexicographic rank among the orbit
        points, with coordinates rounded to 1e-10 as there.  Each coordinate
        adds the points that agree with it before it and are smaller there:
        the arrangements of the values left (a multiset permutation count),
        times their sign patterns for B and D, half of them for D with a
        fixed parity.  I2 gives the index of the listed point nearest each."""
        if self.group.kind == "I2":
            d = np.linalg.norm(self.spectrum[None, :, :] - pts[:, None, :], axis=2)
            return np.argmin(d, axis=1).tolist()
        mods = np.round(self.spectrum, _DEDUP_DECIMALS).tolist()
        values = sorted(set(mods))
        signed = self.group.kind != "A"
        fixed = signed and bool(self.parity)
        # the values a coordinate can take, ascending, with their moduli
        options = sorted(
            (w, j) for j, v in enumerate(values) for w in ((-v, v) if signed and v else (v,)))
        start = [mods.count(v) for v in values]
        perms0 = math.factorial(len(mods)) // math.prod(math.factorial(c) for c in start)
        out = []
        for x in np.round(pts, _DEDUP_DECIMALS).tolist():
            count = start.copy()
            left, nonzero, negative = len(mods), len(mods) - mods.count(0.0), 0
            perms = perms0
            rank = 0
            for s in x:
                for w, j in options:
                    if w >= s:
                        break
                    if not count[j]:
                        continue
                    rest = perms * count[j] // left  # arrangements after placing w
                    if not signed:
                        rank += rest
                    elif not fixed:
                        rank += rest << (nonzero - (w != 0.0))
                    elif left > 1:
                        rank += rest << (left - 2)
                    elif (negative + (w < 0.0)) % 2 == (self.parity < 0.0):
                        rank += rest
                j = values.index(abs(s) if signed else s)
                perms = perms * count[j] // left
                count[j] -= 1
                left -= 1
                nonzero -= values[j] != 0.0
                negative += s < 0.0
            out.append(rank)
        return out

    def points(self) -> list[np.ndarray]:
        """Every orbit point, deduplicated to 1e-10 and sorted
        lexicographically; EnumerationTooLarge past ENUM_LIMIT points.
        Nothing in the package lists an orbit: this is the tests' oracle
        for the closed forms."""
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


@functools.lru_cache(maxsize=None)
def _reflections(dim: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The reflections of A(dim-1), B(dim) or D(dim) as index and sign
    tables: reflection k maps x to sign[k] * x[index[k]].  A swaps two
    coordinates; D also swaps them with both signs flipped; B also flips
    one sign."""
    index, sign = [], []
    for i in range(dim):
        for j in range(i + 1, dim):
            swap = list(range(dim))
            swap[i], swap[j] = j, i
            index.append(swap)
            sign.append([1.0] * dim)
            if kind != "A":
                index.append(swap)
                sign.append([-1.0 if k in (i, j) else 1.0 for k in range(dim)])
        if kind == "B":
            index.append(list(range(dim)))
            sign.append([-1.0 if k == i else 1.0 for k in range(dim)])
    return np.array(index), np.array(sign)


def orbits_at(map_: OrbitMapSigma, rows, tol: float = 1e-10) -> OrbitBlock:
    """The orbits sigma^{-1}(y) of the rows y of an (N, n) block, solved as
    a block.  A, B and D take one hyperpoly.roots_batch call on the rows'
    polynomials: A's rows as given, B's squares polynomial (its roots are
    the squared coordinates), D's with y_n^2 as its last coefficient.  I2
    inverts each row in closed form.

    The first row that has no orbit raises, with its row as `index`:
    NotInImage when it is not in the image, ToleranceViolation when it
    only fits within the widened (tol, 10*tol] band (the input is ill-posed
    at this tolerance), NotFinite when it is not finite or its polynomial
    overflows, or RootSolveFailed from the root solve.  A row the
    block solve refuses is retried alone at 10*tol, after the rows before
    it are checked."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be an (N, n) array")
    if rows.shape[1] != map_.n_invariants:
        raise DimensionMismatch(
            f"value has dim {rows.shape[1]}, sigma has {map_.n_invariants} components"
        )
    group = map_.group
    if group.kind == "I2":
        return _dihedral_block(map_, rows, tol)
    a = rows
    if group.kind == "D":
        # y_n^2 by pow on each scalar: numpy squares an array by a product,
        # which can differ in the last bit; one that overflows is refused below
        with np.errstate(over="ignore"):
            a = np.column_stack([rows[:, :-1], [y**2 for y in rows[:, -1]]])
    # a row that is not finite (y_n^2 can overflow) ends the block solve
    finite = np.isfinite(a).all(axis=1)
    stop = a.shape[0] if finite.all() else int(np.argmin(finite))
    failed = None
    try:
        vals = hyperpoly.roots_batch(a[:stop], tol)[0]
    except (NotHyperbolic, RootSolveFailed) as exc:
        stop, failed = exc.index, exc
    if failed is not None:
        vals = hyperpoly.roots_batch(a[:stop], tol)[0]
    spectra = vals if group.kind == "A" else _sqrt_spectra(a[:stop], vals, tol)
    if stop < a.shape[0]:
        _refused_row(group, a, stop, failed, tol)
    parity = np.zeros(stop)
    if group.kind == "D":
        # D keeps the sign patterns whose product has the sign of y_n; with
        # a zero coordinate both signs reach the same points (the floor by
        # pow on floats: np.sqrt can differ in the last bit)
        floor = [(tol * (1.0 + m)) ** 0.5 for m in np.max(np.abs(rows), axis=1).tolist()]
        parity = np.where(spectra.min(axis=1) <= floor, 0.0, np.sign(rows[:, -1]))
    return _chamber_block(group, spectra, parity)


def _refused_row(group: ReflectionGroup, a: np.ndarray, k: int, failed, tol: float):
    """Raise the error of row k of the polynomial block a, which the block
    solve refused (failed: its error, None for a row that is not finite),
    as the row alone gives it: a row found hyperbolic only at 10*tol is in
    the widened band, or outside the image if a B/D square lies below it."""
    if failed is None:
        raise NotFinite("the polynomial of the orbit-space point is not finite", index=k)
    if isinstance(failed, RootSolveFailed):
        raise failed
    try:
        vals = hyperpoly.roots_batch(a[k : k + 1], 10.0 * tol)[0]
    except NotHyperbolic:
        raise NotInImage("not in the orbit-map image", index=k) from None
    except RootSolveFailed as exc:
        exc.index = k
        raise
    if group.kind != "A":
        try:
            _sqrt_spectra(a[k : k + 1], vals, tol)
        except (NotInImage, ToleranceViolation) as exc:
            exc.index = k
            raise
    raise ToleranceViolation(_BAND, index=k)


def orbit_at(map_: OrbitMapSigma, y, tol: float = 1e-10) -> Orbit | None:
    """The orbit sigma^{-1}(y), or None when y is not in the image: the
    one-row case of orbits_at.  Raises ToleranceViolation when y only fits
    within the widened (tol, 10*tol] band: the input is ill-posed at this
    tolerance."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != map_.n_invariants:
        raise DimensionMismatch(
            f"value has dim {y.size}, sigma has {map_.n_invariants} components"
        )
    try:
        return orbits_at(map_, y[None, :], tol)[0]
    except NotInImage:
        return None


def fiber(map_: OrbitMapSigma, y, tol: float = 1e-10) -> list[np.ndarray]:
    """Full preimage sigma^{-1}(y) (a single orbit), or [] when y is not in
    the image: the enumeration of `orbit_at(map_, y, tol)`.  y may also be
    an Orbit already solved for.  Raises ToleranceViolation as orbit_at.
    The package itself lists no orbit; this is the tests' enumeration
    oracle for the closed forms of Orbit and OrbitBlock."""
    orb = y if isinstance(y, Orbit) else orbit_at(map_, y, tol)
    return [] if orb is None else orb.points()


def _sqrt_spectra(a: np.ndarray, vals: np.ndarray, tol: float) -> np.ndarray:
    """Nonnegative square roots of the roots vals of each row's
    squares-polynomial (coefficients a).  The first row whose least root
    lies below -tol*scale raises, with its row as `index`: NotInImage below
    -10*tol*scale, ToleranceViolation above it."""
    scale = 1.0 + np.max(np.abs(a), axis=1)
    lo = np.min(vals, axis=1)
    below = np.flatnonzero(lo < -tol * scale)
    if below.size:
        k = int(below[0])
        if lo[k] < -10.0 * tol * scale[k]:
            raise NotInImage("not in the orbit-map image", index=k)
        raise ToleranceViolation(_BAND, index=k)
    # a root within rounding noise of 0 is 0, as its square root would be
    # sqrt(noise), far above the noise itself: a root below that noise at
    # the scale of the largest root (not of the coefficients, which grow
    # like its n-th power), and the least roots, one at a time, while the
    # constant term of the polynomial with the zero roots divided out is
    # within its Horner noise at the next root; a cluster the solver gives
    # as one repeated value is zero as a whole or not at all
    m, n = vals.shape
    gamma = 2.0 * (n + 1) * np.finfo(float).eps
    zero = vals <= (2.0 * gamma * (1.0 + np.maximum(vals[:, -1], 0.0)))[:, None]
    c = np.abs(np.concatenate([np.ones((m, 1)), a], axis=1))
    k = np.zeros(m, dtype=int)
    live = np.arange(m)
    for j in range(n):
        x = np.abs(vals[live, j])
        horner = np.zeros(live.size)  # np.polyval's operations
        for col in range(n - j + 1):
            horner = horner * x + c[live, col]
        live = live[c[live, n - j] <= gamma * horner]
        if not live.size:
            break
        k[live] = j + 1
    # the whole run of values equal to the first nonzero one stays nonzero
    at = np.take_along_axis(vals, np.minimum(k, n - 1)[:, None], axis=1)
    k = np.where(k < n, np.count_nonzero(vals < at, axis=1), k)
    zero |= np.arange(n) < k[:, None]
    return np.sqrt(np.where(zero, 0.0, vals))


def _dihedral_block(map_: OrbitMapSigma, rows: np.ndarray, tol: float) -> OrbitBlock:
    """The I2(m) orbits of the rows in closed form, as one block: the points
    r (cos, sin)(+-theta + 2 pi k / m) with r^2 = y_1 and
    r^m cos(m theta) = y_2.  Within tol r^m below the mirror value
    |y_2| = r^m (or the tol-ball above it) the point is on a mirror, and
    within sqrt(tol) of 0 it is the origin.  Each row's points are
    deduplicated to 1e-10 and sorted lexicographically, as `orbit` does.

    The first row that has no orbit raises as in orbits_at.  pow and acos
    run on each row's floats: numpy's array versions can differ from them
    in the last bit."""
    m = map_.group.param
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    r2, target = rows[:, 0], rows[:, 1]
    r = np.sqrt(np.maximum(r2, 0.0))
    origin = r <= np.array([(tol * s) ** 0.5 for s in scale.tolist()])
    rm = np.array([_pow(x, m) for x in r.tolist()])
    excess = np.abs(target) - rm
    finite = np.isfinite(rows).all(axis=1) & np.isfinite(rm)
    outside = r2 < -10.0 * tol * scale
    below = ~outside & (r2 < -tol * scale)
    far = np.where(origin, np.abs(target), excess) > 10.0 * tol * scale
    near = ~origin & (excess > tol * scale)
    bad = np.flatnonzero(~finite | outside | below | far | near)
    if bad.size:
        i = int(bad[0])
        if not finite[i]:
            raise NotFinite("orbit-space point not finite, or its r^m overflows", index=i)
        if below[i]:
            raise ToleranceViolation("radius^2 within (tol, 10*tol] below zero", index=i)
        if outside[i] or far[i]:
            raise NotInImage("not in the orbit-map image", index=i)
        raise ToleranceViolation("cos(m*theta) target within (tol, 10*tol] above 1", index=i)
    # snap to the mirror: arccos turns a (relative) rounding error e in
    # cos(m theta) near +-1 into an angle sqrt(2 e) / m off it
    on_mirror = origin | (excess >= -tol * rm)
    cosine = np.where(on_mirror, np.copysign(1.0, target), target / np.where(on_mirror, 1.0, rm))
    theta = np.array([math.acos(c) for c in cosine.tolist()]) / m
    angles = theta[:, None] + 2.0 * math.pi * np.arange(m) / m
    pts = r[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=2)
    # trig of multiples of pi/2 lands a few ulp off the axes (sin(pi) =
    # 1.2e-16); snap, so that a point on an axis has an exact zero
    pts[np.abs(pts) <= 1e-15 * r[:, None, None]] = 0.0
    pts[origin] = 0.0
    pts = np.concatenate([pts, pts * [1.0, -1.0]], axis=1)
    # a mirror row keeps its m rotations, the origin its first point; the
    # rest are padding, which sorts last
    count = np.where(origin, 1, np.where(on_mirror, m, 2 * m))
    live = np.arange(2 * m) < count[:, None]
    keys = np.where(live[:, :, None], np.round(pts, _DEDUP_DECIMALS), np.inf)
    order = np.lexsort((keys[:, :, 1], keys[:, :, 0]), axis=1)
    keys = np.take_along_axis(keys, order[:, :, None], axis=1)
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    # of the points with one key the first one listed stays, as in _dedup_points
    live = np.take_along_axis(live, order, axis=1)
    live[:, 1:] &= (keys[:, 1:] != keys[:, :-1]).any(axis=2)
    pts = np.take_along_axis(pts, np.argsort(~live, axis=1, kind="stable")[:, :, None], axis=1)
    sizes = live.sum(axis=1)
    pts[np.arange(2 * m) >= sizes[:, None]] = np.nan
    # the least distance over the pairs (j, j + shift), by the norm's own
    # operations; O(N m) memory for any m
    least = np.full(len(rows), np.inf)
    for shift in range(1, 2 * m):
        d = pts - np.roll(pts, -shift, axis=1)
        norms = np.sqrt(d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1])
        least = np.fmin(least, np.fmin.reduce(norms, axis=1))
    return OrbitBlock(
        map_.group, [p[:k] for p, k in zip(pts, sizes.tolist())], np.zeros(len(rows)),
        np.array(sizes.tolist(), dtype=object), least, np.nanmax(np.abs(pts), axis=(1, 2)),
    )


def _pow(x: float, e: int) -> float:
    """x**e by Python's pow, inf where it overflows."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def _dedup_points(points) -> list[np.ndarray]:
    out = {}
    for p in points:
        arr = np.asarray(p, dtype=float)
        out.setdefault(_point_key(arr), arr)
    if len(out) > ENUM_LIMIT:
        raise EnumerationTooLarge("fiber exceeds enumeration limit")
    return [out[k] for k in sorted(out.keys())]
