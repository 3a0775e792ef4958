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
the module constants below, and the report always carries them and the raw
evidence.
"""

from __future__ import annotations

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
    h = float(step)
    if order == 1:
        out = np.empty_like(f)
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
        out[0] = (f[1] - f[0]) / h
        out[-1] = (f[-1] - f[-2]) / h
        return out
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = out[1]
    out[-1] = out[-2]
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


def certify_samples(samples: Sequence[float], domain: tuple[float, float],
                    levels: int = 6) -> RegularityReport:
    """Certify from one dense dyadic sample row (length 2^L + 1) by exact
    subsampling of the coarser levels; no interpolation touches the data."""
    f = np.asarray(samples, dtype=float)
    top = int(round(math.log2(f.size - 1))) if f.size > 1 else 0
    if f.size != 2**top + 1:
        raise GridTooCoarse(f"need 2^L + 1 samples, got {f.size}")
    levels = min(levels, top)
    if levels < 4:
        raise GridTooCoarse("need at least 4 dyadic levels of samples")
    ks = list(range(top - levels + 1, top + 1))
    # a coarser level's points are the finest level's subsampled, bit for
    # bit: (t1 - t0) * i * 2^j / 2^top scales (t1 - t0) * i by a power of two
    t = Grid.dyadic(*domain, top).points
    ts = [t[:: 2 ** (top - k)] for k in ks]
    fs = [f[:: 2 ** (top - k)] for k in ks]
    with np.errstate(over="ignore", invalid="ignore"):  # _certify_tables refuses an overflow
        return _certify_tables(ts, fs, ks, domain)


def _certify_tables(ts, fs, ks, domain) -> RegularityReport:
    rows = []
    value_scale = float(np.max(np.abs(fs[-1])))  # the finest row holds every coarser point
    h_min = (domain[1] - domain[0]) / 2 ** max(ks)
    too_short = f"domain [{domain[0]}, {domain[1]}] is too short for level {max(ks)}:"
    if h_min * h_min == 0.0:
        raise InvalidWindow(f"{too_short} its step {h_min!r} squares to 0")
    # quotients that never rise above evaluation-noise level carry no signal
    # and must not drive the verdict: order-1 noise scales like eps*V/h,
    # order-2 like eps*V/h^2 (exact lines recovered through a solver leave
    # last-ulp wiggles in the second differences)
    flat_floor = 1e-12 * value_scale / h_min
    d2_noise_floor = 1e-12 * value_scale / (h_min * h_min)
    prev = None
    for t, f, k in zip(ts, fs, ks):
        h = t[1] - t[0]
        d1 = difference_quotients(f, h, 1)
        d2 = difference_quotients(f, h, 2)
        abs1, abs2 = np.abs(d1), np.abs(d2)
        sup1, sup2 = float(abs1.max()), float(abs2.max())
        if prev is None:
            c1 = c2 = growth = float("nan")
        else:
            t_prev, d1_prev, d2_prev = prev
            diff1 = np.abs(d1 - np.interp(t, t_prev, d1_prev))
            diff2 = np.abs(d2 - np.interp(t, t_prev, d2_prev))
            c1, c2 = float(diff1.max()), float(diff2.max())
            growth = _ratio(sup1, rows[-1].sup_d1)
        rows.append(LevelEvidence(k, float(h), sup1, sup2, c1, c2, growth))
        prev = t, d1, d2
    # the witnesses are the finest level's, the only ones reported
    witnesses = {
        "sup_d1": (float(t[np.argmax(abs1)]), sup1),
        "sup_d2": (float(t[np.argmax(abs2)]), sup2),
        "cauchy_d1": (float(t[np.argmax(diff1)]), c1),
        "cauchy_d2": (float(t[np.argmax(diff2)]), c2),
    }
    # an overflow leaves an inf or a nan in a floor, a sup or a Cauchy difference
    first, *later = rows
    evidence = [flat_floor, d2_noise_floor, first.sup_d1, first.sup_d2]
    evidence += [v for r in later for v in (r.sup_d1, r.sup_d2, r.cauchy_d1, r.cauchy_d2)]
    if not all(map(math.isfinite, evidence)):
        raise InvalidWindow(f"{too_short} the difference quotients of values up to {value_scale:g} overflow")
    if max(r.sup_d1 for r in rows) <= flat_floor:
        verdict = TWICE
    else:
        verdict = _decide(rows, d2_noise_floor)
    return RegularityReport(verdict, tuple(rows), witnesses)


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
