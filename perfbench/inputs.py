"""Seeded inputs for every workload, each paired with its analytic answer.

Nothing here imports orbitlift: the program receives only the expression
strings and group labels built below, and the checks compare its output with
the root functions and curves kept here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

TOL = 1e-10
SELECT_LEVEL = 8       # base grid of every selection (257 samples)
LIFT_LEVEL = 5         # base grid of the lifts (33 samples)
HARNESS_LEVEL = 9
HARNESS_PROBES = 7
DOMAIN = (-1.0, 1.0)
SIDE = 8               # samples the program fits on each side of a cluster


def grid_points(level: int, domain=DOMAIN) -> np.ndarray:
    t0, t1 = domain
    n = 2**level
    return t0 + (t1 - t0) * np.arange(n + 1) / n


def horner_expr(coeffs) -> str:
    """Expression in t for the ascending coefficients, in Horner form."""
    coeffs = [float(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    text = repr(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        text = f"{c!r}+t*({text})"
    return text


def elementary(polys) -> list[np.ndarray]:
    """e_1..e_n of the given t-polynomials, as t-polynomials."""
    e = [np.array([1.0])] + [np.array([0.0]) for _ in polys]
    for k, r in enumerate(polys, start=1):
        for j in range(k, 0, -1):
            e[j] = P.polyadd(e[j], P.polymul(r, e[j - 1]))
    return e[1:]


# -- root-branch curves ------------------------------------------------------------

@dataclass(frozen=True)
class SelectCase:
    """A curve of monic polynomials and the root functions it was built from.

    `root_fns` are continuous root functions whose values at every t form
    the root multiset; `alternatives` adds further continuous root functions
    a branch may legitimately follow (the other continuation at a cusp).
    """

    name: str
    components: tuple[str, ...]
    level: int
    root_fns: tuple[Callable[[np.ndarray], np.ndarray], ...]
    alternatives: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
    expected_verdict: str | None = None   # catalog entries only
    at_least: bool = False

    def roots_at(self, t: np.ndarray) -> np.ndarray:
        """(len(t), n) analytic root values; column k is root function k."""
        return np.stack([np.broadcast_to(f(t), t.shape) for f in self.root_fns], axis=1)

    def candidate_fns(self):
        return self.root_fns + self.alternatives


def _poly_fn(c: np.ndarray):
    return lambda t: P.polyval(t, c)


def _case_from_root_polys(name: str, polys, level: int) -> SelectCase:
    coeffs = elementary(polys)
    return SelectCase(
        name=name,
        components=tuple(horner_expr(c) for c in coeffs),
        level=level,
        root_fns=tuple(_poly_fn(np.asarray(r, dtype=float)) for r in polys),
    )


def _shifted_quadratic(c: float, q: float, k: float, tau: float) -> np.ndarray:
    """Ascending t-coefficients of c + q (t - tau) + k (t - tau)^2."""
    return np.array([c - q * tau + k * tau * tau, q - 2.0 * k * tau, k])


def _crossing_samples(rng, count: int, level: int) -> list[int]:
    """Interior base-grid indices, far from the ends and from each other."""
    n = 2**level
    lo, hi = n // 8, n - n // 8
    gap = 3 * SIDE
    while True:
        idx = sorted(int(i) for i in rng.integers(lo, hi + 1, size=count))
        if all(b - a >= gap for a, b in zip(idx, idx[1:])):
            return idx


_LANE = 7.0  # lane spacing; every lane's roots stay within 3.1 of its centre


def separated_case(rng, degree: int, pairs: int) -> SelectCase:
    """`pairs` crossing pairs and single roots, each in a lane of its own.

    A pair crosses transversally (slope gap 1.6) at an interior base-grid
    sample, so every crossing opens a collision window; roots of different
    lanes never come closer than about 0.9.
    """
    # a fixed lane order, pairs and singles alternating from a pair: which
    # roots neighbour which changes the cost of every root solve
    singles = degree - 2 * pairs
    lanes = []
    for i in range(max(pairs, singles)):
        lanes += (["pair"] if i < pairs else []) + (["single"] if i < singles else [])
    centres = (np.arange(len(lanes)) - 0.5 * (len(lanes) - 1)) * _LANE
    pts = grid_points(SELECT_LEVEL)
    crossings = iter(_crossing_samples(rng, pairs, SELECT_LEVEL))
    polys = []
    for kind, centre in zip(lanes, centres):
        if kind == "single":
            polys.append(_shifted_quadratic(centre + rng.uniform(-0.5, 0.5),
                                            rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3), 0.0))
            continue
        tau = float(pts[next(crossings)])
        c = centre + rng.uniform(-0.3, 0.3)
        # slopes and bends vary little: they set how many samples sit near
        # the crossing and how deep its window is refined, so they would
        # change the work from seed to seed
        base_q = rng.uniform(-0.1, 0.1)
        for q in (base_q + 0.8, base_q - 0.8):
            polys.append(_shifted_quadratic(c, q, rng.choice([-0.2, 0.2]), tau))
    return _case_from_root_polys(f"separated-{degree}", polys, SELECT_LEVEL)


def clustered_cases(rng) -> list[SelectCase]:
    """Roots that stay clustered: permanent double and triple roots,
    permanent near-collisions with gaps in [1e-6, 1e-3], a tangential contact.

    A permanent cluster makes the program treat the whole domain as one
    collision run, so curves holding one carry no crossing elsewhere.
    """
    pts = grid_points(SELECT_LEVEL)

    def smooth(centre):
        return _shifted_quadratic(centre + rng.uniform(-0.3, 0.3), rng.uniform(-0.6, 0.6),
                                  rng.uniform(-0.3, 0.3), 0.0)

    def gap(lo):
        # each near-collision keeps to its own half decade of [1e-6, 1e-3],
        # so a case's work is alike from seed to seed
        return float(10.0 ** rng.uniform(lo, lo + 0.5))

    cases = []
    f, g = smooth(-3.5), smooth(3.5)
    cases.append(_case_from_root_polys("double-3", [f, f, g], SELECT_LEVEL))
    f, g = smooth(-3.5), smooth(3.5)
    cases.append(_case_from_root_polys("triple-4", [f, f, f, g], SELECT_LEVEL))
    f, g = smooth(-3.5), smooth(3.5)
    cases.append(_case_from_root_polys(
        "near-pairs-4", [f, P.polyadd(f, [gap(-6.0)]), g, P.polyadd(g, [gap(-4.0)])],
        SELECT_LEVEL))
    f, g, h = smooth(-7.0), smooth(0.0), smooth(7.0)
    g1, g2 = gap(-5.0), gap(-3.5)
    cases.append(_case_from_root_polys(
        "near-triple-5", [f, g, P.polyadd(g, [g1]), P.polyadd(g, [g1 + g2]), h], SELECT_LEVEL))
    f, g, h, k = smooth(-10.5), smooth(-3.5), smooth(3.5), smooth(10.5)
    cases.append(_case_from_root_polys(
        "double-near-6", [f, f, g, P.polyadd(g, [gap(-4.5)]), h, k], SELECT_LEVEL))
    # a tangential contact: both roots bend the same way (contacts that bend
    # apart, and contacts inside higher-degree curves, are left out; see
    # CHANGES.md)
    tau = float(pts[_crossing_samples(rng, 1, SELECT_LEVEL)[0]])
    base = _shifted_quadratic(rng.uniform(-0.3, 0.3), rng.uniform(-0.6, 0.6), 0.0, tau)
    k = 0.6 * rng.choice([-1.0, 1.0])
    cases.append(_case_from_root_polys(
        "tangent-2", [P.polyadd(base, _shifted_quadratic(0.0, 0.0, k, tau)),
                      P.polyadd(base, _shifted_quadratic(0.0, 0.0, 2.0 * k, tau))],
        SELECT_LEVEL))
    return cases


# (degree, crossing pairs) of the seeded separated-root curves
SEPARATED = ((3, 1), (4, 2), (5, 2), (6, 2))


def select_cases(seed: int) -> list[SelectCase]:
    rng = np.random.default_rng([seed, 1])
    return [separated_case(rng, degree, pairs) for degree, pairs in SEPARATED]


def clustered_select_cases(seed: int) -> list[SelectCase]:
    return clustered_cases(np.random.default_rng([seed, 2]))


def _cusp(p: float):
    """+-|t|^p: the even and the odd continuation of each sign."""
    even = lambda t: np.abs(t) ** p
    odd = lambda t: np.sign(t) * np.abs(t) ** p
    return (odd, lambda t: -odd(t)), (even, lambda t: -even(t))


def catalog_cases() -> list[SelectCase]:
    """The six catalog entries with roots worked out by hand.

    The components and expected verdicts are those the catalog lists; the
    root functions are independent of the program.
    """
    out = []
    three = [2.0 * math.cos(2.0 * math.pi * k / 9.0) for k in (1, 4, 7)]  # x^3 - 3x + 1
    table = [
        ("crossing-lines", ("0", "-t^2"), ((lambda t: t), (lambda t: -t)), (),
         "C1", True),
        ("double-root-line", ("2*t", "t^2"), ((lambda t: t), (lambda t: t)), (),
         "twice-differentiable", False),
        ("constant-cubic", ("0", "-3", "-1"),
         tuple((lambda t, v=v: np.full(np.shape(t), v)) for v in three), (),
         "twice-differentiable", False),
        ("cusp-3-2", ("0", "-powabs(t,3)"), *_cusp(1.5), "C1", True),
        ("sqrt-cusp", ("0", "-powabs(t,1)"), *_cusp(0.5),
         "unbounded-derivative-detected", False),
        ("cusp-5-2", ("0", "-powabs(t,5)"), *_cusp(2.5), "C1", True),
    ]
    for name, comps, fns, alts, verdict, at_least in table:
        out.append(SelectCase(name, comps, SELECT_LEVEL, fns, alts, verdict, at_least))
    return out


# -- reflection groups and lifts ---------------------------------------------------

@dataclass(frozen=True)
class Group:
    """A catalog reflection group built without the program: its elements
    and the unit normals of its reflecting hyperplanes."""

    label: str
    kind: str
    param: int
    dim: int
    elements: np.ndarray  # (|W|, dim, dim)
    normals: np.ndarray   # (reflections, dim)

    @property
    def degrees(self) -> tuple[int, ...]:
        n = self.dim
        if self.kind == "A":
            return tuple(range(1, n + 1))
        if self.kind == "B":
            return tuple(2 * j for j in range(1, n + 1))
        if self.kind == "D":
            return tuple(2 * j for j in range(1, n)) + (n,)
        return (2, self.param)


def _signed_perms(dim: int, parity: int | None) -> np.ndarray:
    mats = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1.0, -1.0), repeat=dim):
            if parity is not None and sum(s < 0 for s in signs) % 2 != parity:
                continue
            m = np.zeros((dim, dim))
            m[np.arange(dim), perm] = signs
            mats.append(m)
    return np.array(mats)


def make_group(label: str) -> Group:
    kind, param = label.split(":")
    param = int(param)
    if kind == "I2":
        m = param
        rots = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                for a in (2.0 * math.pi * k / m for k in range(m))]
        flip = np.diag([1.0, -1.0])
        elements = np.array(rots + [r @ flip for r in rots])
        normals = np.array([[-math.sin(math.pi * k / m), math.cos(math.pi * k / m)]
                            for k in range(m)])
        return Group(label, kind, m, 2, elements, normals)
    dim = param + 1 if kind == "A" else param
    if kind == "A":
        elements = np.array([m for m in _signed_perms(dim, None) if np.all(m >= 0)])
    else:
        elements = _signed_perms(dim, 0 if kind == "D" else None)
    normals = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for s in ((1.0,) if kind == "A" else (1.0, -1.0)):
                v = np.zeros(dim)
                v[i], v[j] = 1.0, -s
                normals.append(v / math.sqrt(2.0))
        if kind == "B":
            normals.append(np.eye(dim)[i])
    return Group(label, kind, param, dim, elements, np.array(normals))


def sigma_polys(group: Group, gamma_polys) -> list[np.ndarray]:
    """The orbit-space curve sigma(gamma) as t-polynomials, from the
    invariants' definitions (e_j of the point, e_j of its squares, the
    product for D's last invariant, |z|^2 and Re z^m for I2)."""
    if group.kind == "A":
        return elementary(gamma_polys)
    if group.kind in ("B", "D"):
        squares = elementary([P.polymul(g, g) for g in gamma_polys])
        if group.kind == "B":
            return squares
        prod = np.array([1.0])
        for g in gamma_polys:
            prod = P.polymul(prod, g)
        return squares[:-1] + [prod]
    x, y = gamma_polys
    re, im = np.array([1.0]), np.array([0.0])
    for _ in range(group.param):
        re, im = P.polysub(P.polymul(re, x), P.polymul(im, y)), P.polyadd(P.polymul(re, y), P.polymul(im, x))
    return [P.polyadd(P.polymul(x, x), P.polymul(y, y)), re]


@dataclass(frozen=True)
class LiftCase:
    group: Group
    gamma_polys: tuple[np.ndarray, ...]   # ascending t-coefficients per coordinate
    components: tuple[str, ...]
    level: int

    def gamma(self, t: np.ndarray) -> np.ndarray:
        return np.stack([P.polyval(t, g) for g in self.gamma_polys], axis=1)


LIFT_GROUPS = ("I2:3", "I2:4", "I2:5", "I2:6", "A:2", "A:3", "A:4",
               "B:2", "B:3", "B:4", "D:3", "D:4")


def lift_case(rng, label: str) -> LiftCase:
    """A straight line gamma(t) = c + v t through V, |v| = 1, that meets one
    reflecting hyperplane, at an interior base-grid sample with normal speed
    in [0.6, 0.8], and stays at least 0.1 away from every other hyperplane
    on [-1, 1] (for I2 also 0.4 away from the origin).

    A crossing at a sample always opens a collision window, and samples near
    a hyperplane take the root solver's slower paths, so fixing the speed
    and the clearance keeps the lift's work alike from seed to seed."""
    group = make_group(label)
    dim = group.dim
    pts = grid_points(LIFT_LEVEL)
    n = 2**LIFT_LEVEL
    while True:
        # far enough from both ends for the program's 8-sample side windows
        i = int(rng.integers(SIDE + 2, n - SIDE - 1))
        k = int(rng.integers(len(group.normals)))
        nrm = group.normals[k]
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if not 0.6 <= abs(float(nrm @ v)) <= 0.8:
            continue
        p = rng.uniform(-3.0, 3.0, dim)
        c = p - (nrm @ p) * nrm - pts[i] * v   # gamma(t_i) = p projected onto H
        # signed distances of both ends to the other hyperplanes: the same
        # sign means no crossing, and along a line the least distance is at an end
        ends = np.stack([c - v, c + v]) @ np.delete(group.normals, k, axis=0).T
        if np.any(np.abs(ends) < 0.1) or np.any(np.sign(ends[0]) != np.sign(ends[1])):
            continue
        if group.kind == "I2":
            if np.min(np.linalg.norm(c[None, :] + pts[:, None] * v[None, :], axis=1)) < 0.4:
                continue
        break
    gamma_polys = tuple(np.array([c[j], v[j]]) for j in range(dim))
    comps = tuple(horner_expr(p) for p in sigma_polys(group, gamma_polys))
    return LiftCase(group, gamma_polys, comps, LIFT_LEVEL)


def lift_cases(seed: int) -> list[LiftCase]:
    """Two lines per group: with one, which group's lift sits in the middle
    of a round changes with the seed, and so does the median lift time."""
    rng = np.random.default_rng([seed, 3])
    return [lift_case(rng, label) for label in LIFT_GROUPS for _ in range(2)]


@dataclass(frozen=True)
class HarnessCase:
    """g(u, v) = (a1 + b1 sin(u + p1), a2 + b2 cos(v + p2)) with
    0 < a1 + b1 < a2 - b2, so g stays inside one open Weyl chamber of B:2
    and the lift of sigma(g(probe)) is g(probe) up to one group element."""

    a: tuple[float, float]
    b: tuple[float, float]
    p: tuple[float, float]
    level: int
    probes: int

    @property
    def gmap(self) -> list[str]:
        (a1, a2), (b1, b2), (p1, p2) = self.a, self.b, self.p
        return [f"{a1!r}+{b1!r}*sin(u+{p1!r})", f"{a2!r}+{b2!r}*cos(v+{p2!r})"]

    def probe_curves(self):
        """Lines through the centre of [-1,1]^2 at angles pi*i/(probes-2),
        then the two parabolas; returns (name, gamma, gamma')."""
        h = 0.45 * 2.0
        n_lines = max(self.probes - 2, 1)
        out = []
        for i in range(n_lines):
            phi = math.pi * i / n_lines
            dx, dy = h * math.cos(phi), h * math.sin(phi)
            out.append((f"line-{i}",
                        lambda t, dx=dx, dy=dy: np.array([dx * t, dy * t]),
                        lambda t, dx=dx, dy=dy: np.array([dx + 0 * t, dy + 0 * t])))
        out.append(("parabola-x", lambda t: np.array([h * t, h * (t * t - 0.5)]),
                    lambda t: np.array([h + 0 * t, 2.0 * h * t])))
        out.append(("parabola-y", lambda t: np.array([h * (t * t - 0.5), h * t]),
                    lambda t: np.array([2.0 * h * t, h + 0 * t])))
        return out[: self.probes]

    def sup_speed(self, dgamma_fn, gamma_fn) -> float:
        """sup over t in [-1, 1] of |d/dt g(gamma(t))|, on a fine grid."""
        t = np.linspace(-1.0, 1.0, 200_001)
        u, v = gamma_fn(t)
        du, dv = dgamma_fn(t)
        gx = self.b[0] * np.cos(u + self.p[0]) * du
        gy = -self.b[1] * np.sin(v + self.p[1]) * dv
        return float(np.max(np.hypot(gx, gy)))


def harness_case(seed: int) -> HarnessCase:
    rng = np.random.default_rng([seed, 4])
    b1, b2 = rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)
    a1 = rng.uniform(0.8, 1.2)
    a2 = a1 + b1 + b2 + rng.uniform(0.5, 1.0)
    p1, p2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    return HarnessCase((round(a1, 6), round(a2, 6)), (round(b1, 6), round(b2, 6)),
                       (round(p1, 6), round(p2, 6)), HARNESS_LEVEL, HARNESS_PROBES)
