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
block holds each orbit in one array, A, B and D by its chamber point and
I2 by its at most 2m points, and computes the orbit sizes and least
distances over all its rows; an Orbit is a view of one row, and orbit_at
is the one-row case of orbits_at.  An Orbit answers the nearest point, the
points joined to a point by an edge of the orbit's convex hull and the rank
of a point in the lexicographic listing of the orbit, all without listing
it.  A block answers the nearest point of each of its orbits at once; a
point and a block go through one kernel, `_nearest` for A, B and D and
`_listed_nearest` for I2, a point being a one-row call.

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
    RowError,
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

def _signed_product(values) -> float:
    """prod(values) evaluated in canonical order (sign times sorted-|.| product)."""
    sign = 1.0
    for x in values:
        if x < 0:
            sign = -sign
        elif x == 0:
            return 0.0
    out = 1.0
    for m in hyperpoly._sorted([abs(x) for x in values]):
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
        block, shape (N, n).  A point runs as Python floats (one tolist() of
        a 1-D float64 array); the block runs the float operations of the
        point on arrays, in the same order, so a row gets its point's bits."""
        if type(v) is not np.ndarray or v.ndim != 1 or v.dtype != float:
            v = np.asarray(v, dtype=float)
            if v.ndim == 2:
                return self._evaluate_rows(v)
            v = v.ravel()
        x = v.tolist()
        if len(x) != self.group.dim:
            raise DimensionMismatch(f"point has dim {len(x)}, {self.group.label} acts on R^{self.group.dim}")
        kind = self.group.kind
        if kind == "I2":
            return np.array([x[0] * x[0] + x[1] * x[1], _re_complex_power(x[0], x[1], self.group.param)])
        e = hyperpoly._elementary(hyperpoly._sorted(x if kind == "A" else [a * a for a in x]))
        if kind == "D":
            e[-1] = _signed_product(x)
        return np.array(e)

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] != self.group.dim:
            raise DimensionMismatch(f"point has dim {rows.shape[1]}, {self.group.label} acts on R^{self.group.dim}")
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
    each orbit's at most 2m points instead, listed as `Orbit.points()` lists
    them and padded with NaN to 2m, which its closed form gives for the
    whole block at once.

    Coordinates equal after rounding to 1e-10 count as one value, as in the
    enumeration `Orbit.points()` (`fiber`), which the tests hold the closed
    forms to.  Indexing gives an `Orbit`, a view of one row (an I2 row
    trimmed to its size); slicing gives a block of rows."""

    group: ReflectionGroup
    spectra: np.ndarray         # (N, n); I2: (N, 2m, 2), NaN past each row's size
    parity: np.ndarray          # D: sign the product of the coordinates must have; 0: a coordinate is 0
    sizes: np.ndarray           # exact orbit sizes, as Python ints
    min_distance: np.ndarray    # least distance between two orbit points; inf for one point
    max_abs: np.ndarray         # largest |coordinate| of an orbit point

    def __len__(self) -> int:
        return len(self.parity)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OrbitBlock(self.group, self.spectra[i], self.parity[i], self.sizes[i],
                              self.min_distance[i], self.max_abs[i])
        spectrum = self.spectra[i]
        if self.group.kind == "I2":
            spectrum = spectrum[: self.sizes[i]]
        return Orbit(self.group, spectrum, float(self.parity[i]), self.sizes[i],
                     float(self.min_distance[i]))

    def joined(self, other: "OrbitBlock", take: np.ndarray) -> "OrbitBlock":
        """The block of the rows take of this block's rows followed by other's."""
        return OrbitBlock(self.group, *(
            np.concatenate([getattr(self, f), getattr(other, f)])[take]
            for f in ("spectra", "parity", "sizes", "min_distance", "max_abs")
        ))

    def nearest(self, p: np.ndarray) -> np.ndarray:
        """For each orbit k, the point of it nearest p[k], where p[k] is one
        point or several (p of shape (len, dim) or (len, s, dim)), by one
        call for the block: `_nearest` for A, B and D, `_listed_nearest`
        for I2.  Several points an orbit repeat its A, B or D row for each;
        one point an orbit takes the rows as they are."""
        p = np.asarray(p, dtype=float)
        if self.group.kind == "I2":
            at = _listed_nearest(self.spectra, p.reshape(len(self), -1, 2))
            return self.spectra[np.arange(len(self))[:, None], at].reshape(p.shape)
        spectra, parity = self.spectra, self.parity
        if p.ndim == 3 and p.shape[1] > 1:  # several points an orbit
            spectra, parity = spectra.repeat(p.shape[1], axis=0), parity.repeat(p.shape[1])
        return _nearest(self.group.kind, spectra, parity, p.reshape(spectra.shape)).reshape(p.shape)


def _chamber_block(group: ReflectionGroup, spectra: np.ndarray, parity: np.ndarray) -> OrbitBlock:
    """The block of the A, B or D orbits with these chamber points.

    A run of L equal rounded values divides the orbit size by L!, and B and
    D double it for every value that does not round to 0, D halving it
    again when the parity is fixed.  The least distance is sqrt(2) times the
    least gap between runs, and for B also 2 times the least nonzero
    modulus, for D with a fixed parity sqrt(2) (s_1 + s_2).  The sizes are
    Python ints, computed once per distinct row of traits (where the runs
    start; for B and D also which values are nonzero, and the fixed parity),
    each trait row keyed by its bytes."""
    n = spectra.shape[1]
    with np.errstate(over="ignore"):  # a value too large to scale by 10^_DEDUP_DECIMALS rounds to inf
        keys = np.round(spectra, _DEDUP_DECIMALS)
    new_run = keys[:, 1:] != keys[:, :-1]
    dist = math.sqrt(2.0) * np.where(new_run, spectra[:, 1:] - spectra[:, :-1], np.inf).min(axis=1)
    traits = new_run
    if group.kind != "A":
        nonzero = keys != 0.0
        fixed = parity != 0.0
        least = np.where(nonzero, spectra, np.inf).min(axis=1)
        paired = math.sqrt(2.0) * (spectra[:, 0] + spectra[:, 1])
        dist = np.minimum(dist, np.where(fixed, paired, 2.0 * least))
        traits = np.concatenate([new_run, nonzero, fixed[:, None]], axis=1)
    codes = traits.view(np.dtype((np.void, traits.shape[1]))).ravel().tolist()
    size_of = dict(zip(codes, range(len(codes))))  # a row of each distinct code
    for code, i in size_of.items():
        row = traits[i].tolist()
        # the places of a run of L values multiply to L!
        place = perms = 1
        for starts in row[: n - 1]:
            place = 1 if starts else place + 1
            perms *= place
        size = math.factorial(n) // perms
        if group.kind != "A":
            size = size * 2 ** sum(row[n - 1 : 2 * n - 1]) // (2 if row[-1] else 1)
        size_of[code] = size
    sizes = np.array(list(map(size_of.__getitem__, codes)), dtype=object)
    return OrbitBlock(group, spectra, parity, sizes, dist, np.max(np.abs(spectra), axis=1))


def _nearest(kind: str, spectra: np.ndarray, parity, rows: np.ndarray) -> np.ndarray:
    """The point nearest rows[k] of the A, B or D orbit held by spectra[k]
    and parity[k] (as OrbitBlock holds them), for every k at once; an exact
    tie goes to the lexicographically first point.  spectra may be one row
    and parity one number, shared by all rows.

    A puts the sorted roots in the row's rank order (the rearrangement
    inequality); B puts the sorted moduli in the rank order of |row| with
    the row's signs; D then flips, if the sign parity is wrong, the
    coordinate with the least |v_i p_i|.  These only permute and flip
    signs, so a row gets the same bits whatever block it is solved in."""
    m, n = rows.shape
    at = np.arange(m)[:, None]
    v = np.empty_like(rows)
    if kind == "A":
        v[at, np.argsort(rows, axis=1, kind="stable")] = spectra
        return v
    # within a tie of |p|, positive coordinates take the smallest moduli in
    # index order and the others the largest: the lexicographic first, as
    # one tie key, the index for positive p_i and 2n - 1 minus it for the rest
    idx = np.arange(n)
    neg = ~(rows > 0.0)
    order = np.lexsort((np.where(neg, 2 * n - 1 - idx, idx), np.abs(rows)), axis=1)
    v[at, order] = spectra
    np.negative(v, out=v, where=neg)
    v += 0.0  # turns -0.0 into 0.0
    if kind == "D":
        # the least |v_i p_i| sits at the least |p_i| on the least modulus,
        # the first of the order, which among ties is the first positive
        # p_i, else the last p_i: the flip that keeps the lexicographic first
        odd = np.logical_xor.reduce(v < 0.0, axis=1)
        wrong = np.flatnonzero(np.where(odd, parity > 0.0, parity < 0.0))
        if wrong.size:
            j = order[wrong, 0]
            v[wrong, j] = -v[wrong, j]
    return v


def _listed_nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The index of the listed I2 point nearest each query, for the points
    of orbit k, points[k] (as OrbitBlock lists them, NaN past the orbit's
    size), and its queries queries[k], (N, s, 2): the first listed point
    wins an exact tie, and padding is never chosen."""
    diff = points[:, None, :, :] - queries[:, :, None, :]
    diff *= diff
    # fmin turns the padding's NaN distances into inf
    return np.argmin(np.fmin(np.sqrt(diff[..., 0] + diff[..., 1]), np.inf), axis=2)


@dataclass(frozen=True, eq=False)
class Orbit:
    """One orbit of an OrbitBlock, a view of its row, which answers the
    nearest point, the points joined to a point by a hull edge and its rank
    without enumerating the orbit."""

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
        each row of p (shape (k, dim)), by `_nearest` (I2: `_listed_nearest`)."""
        p = np.asarray(p, dtype=float)
        if self.group.kind == "I2":
            at = _listed_nearest(self.spectrum[None], p.reshape(1, -1, 2))[0]
            return self.spectrum[at].reshape(p.shape)
        rows = p.reshape(-1, p.shape[-1])
        return _nearest(self.group.kind, self.spectrum, self.parity, rows).reshape(p.shape)

    def neighbours(self, pts: np.ndarray) -> np.ndarray:
        """Orbit points that include every point joined to a row of pts by
        an edge of the orbit's convex hull: for A, B and D the images of the
        rows under the group's reflections, (k * reflections, dim); for I2,
        whose orbit points lie on a circle, each row's two neighbours in
        angle, (k * 2, dim).  A D orbit whose parity is free (a coordinate
        is 0) is listed with every sign pattern, so it takes B's reflections."""
        if self.group.kind == "I2":
            order = np.argsort(np.arctan2(self.spectrum[:, 1], self.spectrum[:, 0]), kind="stable")
            at = np.argsort(order)[self.ranks(pts)][:, None] + [-1, 1]
            return self.spectrum[order[at % order.size]].reshape(-1, 2)
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
        fixed parity.  I2 gives the index of the listed point nearest each
        (`_listed_nearest`)."""
        if self.group.kind == "I2":
            return _listed_nearest(self.spectrum[None], pts[None])[0].tolist()
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
    try:
        vals = hyperpoly.roots_batch(a, tol)[0]
        failed = None
    except RowError as exc:
        # the rows before the first refused one are checked first
        failed = exc
        vals = hyperpoly.roots_batch(a[: exc.index], tol)[0]
    stop = len(vals)
    spectra = vals if group.kind == "A" else _sqrt_spectra(a[:stop], vals, tol)
    if failed is not None:
        _refused_row(group, a, stop, failed, tol)
    parity = np.zeros(stop)
    if group.kind == "D":
        # D keeps the sign patterns whose product has the sign of y_n; with
        # a zero coordinate, one _sqrt_spectra wrote as 0 (the least, as
        # spectra are sorted), both signs reach the same points
        parity = np.where(spectra[:, 0] == 0.0, 0.0, np.sign(rows[:, -1]))
    return _chamber_block(group, spectra, parity)


def _refused_row(group: ReflectionGroup, a: np.ndarray, k: int, failed: RowError, tol: float):
    """Raise the error of row k of the polynomial block a, which the block
    solve refused with `failed`, as the row alone gives it: a row with no
    real roots at tol that has them at 10*tol is in the widened band, or
    outside the image if a B/D square lies below it."""
    if not np.isfinite(a[k]).all():
        raise NotFinite("the polynomial of the orbit-space point is not finite", index=k)
    if not isinstance(failed, NotHyperbolic):
        raise failed
    try:
        vals = hyperpoly.roots_batch(a[k : k + 1], 10.0 * tol)[0]
        if group.kind != "A":
            _sqrt_spectra(a[k : k + 1], vals, tol)
    except NotHyperbolic:
        raise NotInImage("not in the orbit-map image", index=k) from None
    except RowError as exc:
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
    lo = vals[:, 0]  # the roots are sorted
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
        with np.errstate(over="ignore"):  # a bound that overflows holds any constant term
            for col in range(n - j + 1):
                horner = horner * x + c[live, col]
        live = live[c[live, n - j] <= gamma * horner]
        if not live.size:
            break
        k[live] = j + 1
    # the whole run of values equal to the first nonzero one stays nonzero
    at = vals[np.arange(m), np.minimum(k, n - 1)][:, None]
    k = np.where(k < n, (vals < at).sum(axis=1), k)
    zero |= np.arange(n) < k[:, None]
    # a least root far below the next one is known to the rounding noise of
    # the largest roots alone; the constant term, their product (Vieta),
    # gives it to its own relative accuracy
    small = np.flatnonzero(~zero[:, 0] & (vals[:, 0] < 1e-4 * vals[:, 1]))
    if small.size:
        with np.errstate(all="ignore"):  # a product past float range gives no root
            least = a[small, -1] / np.prod(vals[small, 1:], axis=1)
        keep = (least > 0.0) & (least < vals[small, 1])
        vals = vals.copy()
        vals[small[keep], 0] = least[keep]
    return np.sqrt(np.where(zero, 0.0, vals))


def _dihedral_block(map_: OrbitMapSigma, rows: np.ndarray, tol: float) -> OrbitBlock:
    """The I2(m) orbits of the rows in closed form, as one block: the points
    r (cos, sin)(+-theta + 2 pi k / m) with r^2 = y_1 and
    r^m cos(m theta) = y_2.  Within tol r^m below the mirror value
    |y_2| = r^m (or the tol-ball above it) the point is on a mirror, and
    within sqrt(tol) of 0, with y_2 in the widened tol-ball, it is the
    origin.  Each row's points are deduplicated to 1e-10 and sorted
    lexicographically, as `Orbit.points()` lists them, and padded with NaN
    to 2m.

    The first row that has no orbit raises as in orbits_at.  pow and acos
    run on each row's floats: numpy's array versions can differ from them
    in the last bit."""
    m = map_.group.param
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    r2, target = rows[:, 0], rows[:, 1]
    r = np.sqrt(np.maximum(r2, 0.0))
    # |y_2| reaches r^m, so the radius sqrt(tol (1 + max|y|)) grows like
    # r^(m/2): a large y_2 is not the origin's
    origin = r <= np.array([(tol * s) ** 0.5 for s in scale.tolist()])
    origin &= np.abs(target) <= 10.0 * tol * scale
    rm = np.array([_pow(x, m) for x in r.tolist()])
    excess = np.abs(target) - rm
    finite = np.isfinite(rows).all(axis=1) & np.isfinite(rm)
    outside = r2 < -10.0 * tol * scale
    below = ~outside & (r2 < -tol * scale)
    far = ~origin & (excess > 10.0 * tol * scale)
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
    angles = theta[:, None] + _turns(m)
    k = 2 * m
    pts = np.empty((len(rows), k, 2))
    np.cos(angles, out=pts[:, :m, 0])
    np.sin(angles, out=pts[:, :m, 1])
    pts[:, :m] *= r[:, None, None]
    # trig of multiples of pi/2 lands a few ulp off the axes (sin(pi) =
    # 1.2e-16); snap, so that a point on an axis has an exact zero
    half = pts[:, :m]
    half[np.abs(half) <= 1e-15 * r[:, None, None]] = 0.0
    half[origin] = 0.0
    # the mirror images (x, -y)
    pts[:, m:, 0] = half[:, :, 0]
    np.negative(half[:, :, 1], out=pts[:, m:, 1])
    # a mirror row keeps its m rotations, the origin its first point; the
    # rest are padding, which sorts last.  Each point's key is its rounded
    # (x, y) as one complex number, which sorts by x, then by y
    count = np.where(origin, 1, np.where(on_mirror, m, k))
    live = np.arange(k) < count[:, None]
    keys = np.where(live[:, :, None], np.round(pts, _DEDUP_DECIMALS), np.inf).view(complex)[:, :, 0]
    # gathers along each row, as indices into the flattened rows
    base = (np.arange(len(rows)) * k)[:, None]
    at = (np.argsort(keys, axis=1, kind="stable") + base).ravel()
    keys, pts, live = keys.ravel()[at].reshape(-1, k), pts.reshape(-1, 2)[at], live.ravel()[at].reshape(-1, k)
    # of the points with one key the first one listed stays, as in _dedup_points
    live[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    pts = pts[(np.argsort(~live, axis=1, kind="stable") + base).ravel()].reshape(-1, k, 2)
    sizes = live.sum(axis=1)
    pts[np.arange(k) >= sizes[:, None]] = np.nan
    # the points lie on a circle, so the least distance is between two
    # neighbours in angle: each point's to its successor, wrapping within
    # the row's size (NaN padding sorts last)
    ring = (np.argsort(np.arctan2(pts[:, :, 1], pts[:, :, 0]), axis=1) + base).ravel()
    after = ring[(np.arange(1, k + 1) % sizes[:, None] + base).ravel()]
    flat = pts.reshape(-1, 2)
    d = flat[ring] - flat[after]
    least = np.fmin.reduce(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).reshape(-1, k), axis=1)
    least[sizes == 1] = np.inf
    return OrbitBlock(map_.group, pts, np.zeros(len(rows)), np.array(sizes.tolist(), dtype=object),
                      least, np.fmax.reduce(np.abs(pts).reshape(len(rows), -1), axis=1))


@functools.lru_cache(maxsize=None)
def _turns(m: int) -> np.ndarray:
    """The angles 2 pi k / m, k < m, of the rotations of I2(m)."""
    turns = 2.0 * math.pi * np.arange(m) / m
    turns.flags.writeable = False
    return turns


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
        out.setdefault(tuple(np.round(arr, _DEDUP_DECIMALS) + 0.0), arr)  # + 0.0: -0.0 keys as 0.0
    if len(out) > ENUM_LIMIT:
        raise EnumerationTooLarge("fiber exceeds enumeration limit")
    return [out[k] for k in sorted(out.keys())]
