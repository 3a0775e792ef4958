"""Empirical regularity certification from dyadic difference quotients.

The certificate is explicitly empirical: a verdict of "C1" means the sampled
evidence is consistent with a C^1 function at the examined resolutions, never
a proof.  The decision procedure watches two signals across refinement levels:

  * growth of sup |first difference quotient|   (blow-up detection), and
  * Cauchy decay of the quotient functions between consecutive levels
    (convergence of the discrete derivative).

Square-root-type branch singularities blow up at a factor of sqrt(2) per
level, well separated from the bounded-growth regime of Lipschitz curves;
the decay thresholds sit between the 2^{-1/2} rate of half-integer-power
branch functions and the no-decay behaviour of corners.  The thresholds are
the module constants below; the report carries them and the raw evidence.
`certify_samples` certifies the columns of a block in one pass over every
level, each with the bits of its own call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .curvedsl import Grid
from .errors import GridTooCoarse, InvalidWindow
from .verdicts import C1, DIFFABLE, INCONCLUSIVE, LIPSCHITZ, TWICE, UNBOUNDED, VERDICT_RANK  # noqa: F401


# Decision thresholds; their values target the catalog's separation.
UNBOUNDED_GROWTH = math.sqrt(2.0)  # per-level sup|D1| growth => blow-up
GROWTH_RTOL = 1e-3                 # slack when comparing growth ratios
BOUNDED_GROWTH = 1.05              # max growth still counted as bounded
C1_DECAY = 0.75                    # Cauchy decay factor required for C1
DIFFABLE_DECAY = 0.95              # strict-decay bound for differentiable
CONVERGED_FLOOR = 1e-9             # relative floor treated as converged
WINDOW = 3                         # trailing ratios examined


@dataclass(frozen=True)
class LevelEvidence:
    level: int
    h: float
    sup_d1: float
    sup_d2: float
    cauchy_d1: float  # sup |D_k - interp(D_{k-1})|; nan on the first level
    cauchy_d2: float
    growth_d1: float  # sup_d1 ratio vs previous level; nan on the first level


@dataclass(frozen=True)
class RegularityReport:
    verdict: str
    levels: tuple[LevelEvidence, ...]
    witnesses: dict = field(compare=False)

    @property
    def sup_d1(self) -> np.ndarray:
        return np.array([lv.sup_d1 for lv in self.levels])

    @property
    def sup_d2(self) -> np.ndarray:
        return np.array([lv.sup_d2 for lv in self.levels])

    @property
    def growth_d1(self) -> np.ndarray:
        return np.array([lv.growth_d1 for lv in self.levels[1:]])

    def at_least(self, verdict: str) -> bool:
        return VERDICT_RANK[self.verdict] >= VERDICT_RANK[verdict]

    def to_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            "note: empirical certificate; verdicts mean consistent-with at the"
            " sampled resolution, not proof",
            f"levels: {len(self.levels)}",
            f"thresholds.unbounded_growth: {UNBOUNDED_GROWTH:.17g}",
            f"thresholds.bounded_growth: {BOUNDED_GROWTH:.17g}",
            f"thresholds.c1_decay: {C1_DECAY:.17g}",
            f"thresholds.diffable_decay: {DIFFABLE_DECAY:.17g}",
            f"thresholds.converged_floor: {CONVERGED_FLOOR:.17g}",
        ]
        for i, lv in enumerate(self.levels):
            lines.append(f"level[{i}].k: {lv.level}")
            lines.append(f"level[{i}].h: {lv.h:.17g}")
            lines.append(f"level[{i}].sup_d1: {lv.sup_d1:.17g}")
            lines.append(f"level[{i}].sup_d2: {lv.sup_d2:.17g}")
            lines.append(f"level[{i}].cauchy_d1: {lv.cauchy_d1:.17g}")
            lines.append(f"level[{i}].cauchy_d2: {lv.cauchy_d2:.17g}")
            lines.append(f"level[{i}].growth_d1: {lv.growth_d1:.17g}")
        for name in ("sup_d1", "sup_d2", "cauchy_d1", "cauchy_d2"):
            t, v = self.witnesses[name]
            lines.append(f"witness.{name}.t: {t:.17g}")
            lines.append(f"witness.{name}.value: {v:.17g}")
        return "\n".join(lines) + "\n"


def difference_quotients(samples: Sequence[float], step: float, order: int = 1) -> np.ndarray:
    """Difference quotients on a uniform grid along axis 0 of samples, an
    (N,) or (N, m) array, same shape as samples.

    Order 1: central (f(t+h) - f(t-h)) / (2h), one-sided at the ends.
    Order 2: (f(t+h) - 2 f(t) + f(t-h)) / h^2; the end entries replicate the
    adjacent interior value (the same formula anchored one node in, still
    exact on quadratics).
    """
    f = np.atleast_1d(np.asarray(samples, dtype=float))
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if len(f) < order + 1:
        raise GridTooCoarse(f"need at least {order + 1} samples, got {len(f)}")
    return _quotients(f.T, np.full(len(f), float(step)), np.array([0]), np.array([len(f) - 1]), order).T


def _quotients(f: np.ndarray, steps: np.ndarray, starts: np.ndarray, ends: np.ndarray, order: int) -> np.ndarray:
    """difference_quotients along the last axis of f, of its runs from each
    start to each end, on the step `steps` gives each sample's run."""
    out = np.empty_like(f)
    if order == 1:
        out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * steps[1:-1])
        out[..., starts] = (f[..., starts + 1] - f[..., starts]) / steps[starts]
        out[..., ends] = (f[..., ends] - f[..., ends - 1]) / steps[ends]
    else:
        out[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / (steps[1:-1] * steps[1:-1])
        out[..., starts] = out[..., starts + 1]
        out[..., ends] = out[..., ends - 1]
    return out


def certify(values: Callable[[np.ndarray], np.ndarray], domain: tuple[float, float],
            levels: int = 6, base_level: int = 4) -> RegularityReport:
    """Certify the regularity class of `values` on dyadic levels
    base_level .. base_level + levels - 1.

    `values` is called once, with the points of the finest level, and must
    return the sampled function (elementwise); the coarser levels are its
    subsamples, as in certify_samples.
    """
    if levels < 4:
        raise ValueError("levels must be >= 4")
    if base_level < 1:
        raise GridTooCoarse("second differences need base_level >= 1 (3 samples)")
    top = base_level + levels - 1
    return certify_samples(values(Grid.dyadic(*domain, top).points), domain, levels)


@np.errstate(all="ignore")  # an overflow, or a step of 0, is refused below
def certify_samples(samples, domain: tuple[float, float], levels: int = 6) -> RegularityReport | list[RegularityReport]:
    """Certify from dense dyadic samples (2^L + 1 rows) by exact subsampling
    of the coarser levels; no interpolation touches the data.  An (N,) row
    gives its report, an (N, m) block a list of m reports: each column gets
    the bits of its own call, and a block raises the InvalidWindow of its
    first column that would.  The levels lie end to end: one pass over
    every level and column, then a verdict per column."""
    f = np.atleast_2d(np.asarray(samples, dtype=float).T)  # a column of samples per row
    size = f.shape[-1]
    top = int(round(math.log2(size - 1))) if size > 1 else 0
    if size != 2**top + 1:
        raise GridTooCoarse(f"need 2^L + 1 samples, got {size}")
    levels = min(levels, top)
    if levels < 4:
        raise GridTooCoarse("need at least 4 dyadic levels of samples")
    h_min = (domain[1] - domain[0]) / 2**top
    too_short = f"domain [{domain[0]}, {domain[1]}] is too short for level {top}:"
    if h_min * h_min == 0.0:
        raise InvalidWindow(f"{too_short} its step {h_min!r} squares to 0")
    # quotients that never rise above evaluation-noise level carry no signal
    # and must not drive the verdict: order-1 noise scales like eps*V/h,
    # order-2 like eps*V/h^2 (exact lines recovered through a solver leave
    # last-ulp wiggles in the second differences)
    value_scale = np.max(np.abs(f), axis=1)  # the finest level holds every point
    flat_floor = 1e-12 * value_scale / h_min
    d2_noise_floor = 1e-12 * value_scale / (h_min * h_min)
    index, t, starts, ends, ks, hs, steps, interp = _levels(tuple(domain), top, levels)
    # rows of order-1 quotients, then rows of order 2, of every level's samples end to end
    laid = f.take(index, 1)
    d = np.concatenate([_quotients(laid, steps, starts, ends, order) for order in (1, 2)])
    abs_d = np.abs(d)
    # each point after the first level against the level before
    diff = np.abs(d[:, starts[1] :] - interp(d))
    sup1, sup2 = np.maximum.reduceat(abs_d, starts, axis=1).reshape(2, -1, levels).tolist()
    cauchy = np.full((len(d), levels), np.nan)  # the first level has no level before it
    cauchy[:, 1:] = np.maximum.reduceat(diff, starts[1:] - starts[1], axis=1)
    c1, c2 = cauchy.reshape(2, -1, levels).tolist()
    # the witnesses are the finest level's, the only ones reported
    finest = np.concatenate([abs_d[:, starts[-1] :], diff[:, starts[-1] - starts[1] :]])
    at = t[starts[-1] + np.argmax(finest, axis=1)].reshape(4, -1).T.tolist()
    reports = []
    for j, (scale, flat, noise) in enumerate(zip(value_scale.tolist(), flat_floor.tolist(), d2_noise_floor.tolist())):
        growth = [float("nan")] + [_ratio(b, a) for a, b in zip(sup1[j], sup1[j][1:])]
        rows = list(map(LevelEvidence, ks, hs, sup1[j], sup2[j], c1[j], c2[j], growth))
        values = (sup1[j][-1], sup2[j][-1], c1[j][-1], c2[j][-1])
        witnesses = dict(zip(("sup_d1", "sup_d2", "cauchy_d1", "cauchy_d2"), zip(at[j], values)))
        # an overflow leaves an inf or a nan in a floor, a sup or a Cauchy difference
        if not all(map(math.isfinite, [flat, noise, *sup1[j], *sup2[j], *c1[j][1:], *c2[j][1:]])):
            raise InvalidWindow(f"{too_short} the difference quotients of values up to {scale:g} overflow")
        verdict = TWICE if max(sup1[j]) <= flat else _decide(rows, noise)
        reports.append(RegularityReport(verdict, tuple(rows), witnesses))
    return reports if np.ndim(samples) == 2 else reports[0]


@functools.lru_cache(maxsize=16)
def _levels(domain: tuple[float, float], top: int, levels: int):
    """The dyadic levels top - levels + 1 .. top laid end to end: each point's
    index at the finest level and its time, each level's first and last
    place, each level and its step, each point's step, and `interp`.  A coarser level's
    points are the finest level's subsampled, bit for bit: (t1 - t0) * i *
    2^j / 2^top scales (t1 - t0) * i by a power of two."""
    ks = range(top - levels + 1, top + 1)
    idx = [np.arange(0, 2**top + 1, 2 ** (top - k)) for k in ks]
    ends = np.cumsum([i.size for i in idx]) - 1
    starts = np.concatenate([[0], ends[:-1] + 1])
    index = np.concatenate(idx)
    t = Grid.dyadic(*domain, top).points[index]
    h = t[starts + 1] - t[starts]
    # each point x after the first level, and the last point xp[j] <= x of the level before
    j = np.concatenate([np.searchsorted(t[s0 : e0 + 1], t[s1 : e1 + 1], "right") - 1 + s0
                        for s0, e0, s1, e1 in zip(starts, ends, starts[1:], ends[1:])])
    x, x0, x1 = t[starts[1] :], t[j], t[j + 1]
    exact = x == x0  # its value is taken as it is
    width = np.where(exact, 1.0, x1 - x0)

    def interp(d: np.ndarray) -> np.ndarray:
        """np.interp(x, xp, each row of d at xp) on arrays: each row gets its own call's bits."""
        y0, y1 = d.take(j, 1), d.take(j + 1, 1)
        slope = (y1 - y0) / width
        # a nan one way is tried the other way, then the flat value
        y = np.where(np.isnan(y := slope * (x - x0) + y0), slope * (x - x1) + y1, y)
        return np.where(exact, y0, np.where(np.isnan(y) & (y0 == y1), y0, y))

    return index, t, starts, ends, ks, h.tolist(), np.repeat(h, ends - starts + 1), interp


def _ratio(num: float, den: float) -> float:
    tiny = 1e-300
    if den <= tiny:
        return 1.0 if num <= tiny else float("inf")
    return num / den


def _decide(rows: list[LevelEvidence], d2_noise_floor: float = 0.0) -> str:
    growth = [r.growth_d1 for r in rows[1:]]
    tail = growth[-WINDOW:]
    if all(g >= UNBOUNDED_GROWTH * (1.0 - GROWTH_RTOL) for g in tail):
        return UNBOUNDED
    if any(g > BOUNDED_GROWTH * (1.0 + GROWTH_RTOL) for g in tail):
        return INCONCLUSIVE

    max_sup1 = max(r.sup_d1 for r in rows)
    max_sup2 = max(r.sup_d2 for r in rows)
    c1_ratios = _decay_ratios([r.cauchy_d1 for r in rows[1:]],
                              CONVERGED_FLOOR * max_sup1)
    tail1 = c1_ratios[-WINDOW:]
    if all(r <= C1_DECAY for r in tail1):
        if max_sup2 <= d2_noise_floor:
            return TWICE  # order-2 evidence is below evaluation noise
        c2_ratios = _decay_ratios([r.cauchy_d2 for r in rows[1:]],
                                  CONVERGED_FLOOR * max_sup2)
        tail2 = c2_ratios[-WINDOW:]
        if all(r <= C1_DECAY for r in tail2):
            return TWICE
        return C1
    if all(r <= DIFFABLE_DECAY for r in tail1):
        return DIFFABLE
    return LIPSCHITZ


def _decay_ratios(cauchy: list[float], floor: float) -> list[float]:
    ratios = []
    for prev, cur in zip(cauchy, cauchy[1:]):
        if cur <= floor:
            ratios.append(0.0)
        else:
            ratios.append(_ratio(cur, prev))
    return ratios
