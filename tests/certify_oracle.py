"""The tests' oracle for `orbitlift.regcheck.certify_samples`: one row at a
time, with `np.interp` for the Cauchy differences, the value scale over the
rows of every level, and the witnesses at every level, keeping the last.
The block pass, which certifies every column of a block at once, writes
`np.interp` on arrays and takes the scale and the witnesses from the finest
level alone, must give each column the same report text, bit for bit."""

import math

import numpy as np

from orbitlift import regcheck as rc
from orbitlift.curvedsl import Grid
from orbitlift.errors import InvalidWindow


def certify_row(samples, domain, levels=6) -> rc.RegularityReport:
    """The report of one dyadic row, levels as certify_samples takes them."""
    f = np.asarray(samples, dtype=float)
    top = int(round(math.log2(f.size - 1)))
    ks = list(range(top - min(levels, top) + 1, top + 1))
    t = Grid.dyadic(*domain, top).points
    with np.errstate(over="ignore", invalid="ignore"):
        return certify_tables([t[:: 2 ** (top - k)] for k in ks], [f[:: 2 ** (top - k)] for k in ks], ks, domain)


def certify_tables(ts, fs, ks, domain) -> rc.RegularityReport:
    """The report of the dyadic levels ks, with points ts and samples fs."""
    rows = []
    d1_prev = d2_prev = t_prev = None
    witnesses = {}
    value_scale = max(float(np.max(np.abs(f))) for f in fs)
    h_min = (domain[1] - domain[0]) / 2 ** max(ks)
    too_short = f"domain [{domain[0]}, {domain[1]}] is too short for level {max(ks)}:"
    if h_min * h_min == 0.0:
        raise InvalidWindow(f"{too_short} its step {h_min!r} squares to 0")
    flat_floor = 1e-12 * value_scale / h_min
    d2_noise_floor = 1e-12 * value_scale / (h_min * h_min)
    for t, f, k in zip(ts, fs, ks):
        h = t[1] - t[0]
        d1 = rc.difference_quotients(f, h, 1)
        d2 = rc.difference_quotients(f, h, 2)
        sup1 = float(np.max(np.abs(d1)))
        sup2 = float(np.max(np.abs(d2)))
        if d1_prev is None:
            c1 = c2 = growth = float("nan")
        else:
            diff1 = np.abs(d1 - np.interp(t, t_prev, d1_prev))
            diff2 = np.abs(d2 - np.interp(t, t_prev, d2_prev))
            c1 = float(np.max(diff1))
            c2 = float(np.max(diff2))
            prev_sup = rows[-1].sup_d1
            growth = rc._ratio(sup1, prev_sup)
            witnesses["cauchy_d1"] = (float(t[np.argmax(diff1)]), c1)
            witnesses["cauchy_d2"] = (float(t[np.argmax(diff2)]), c2)
        rows.append(rc.LevelEvidence(k, float(h), sup1, sup2, c1, c2, growth))
        witnesses["sup_d1"] = (float(t[np.argmax(np.abs(d1))]), sup1)
        witnesses["sup_d2"] = (float(t[np.argmax(np.abs(d2))]), sup2)
        d1_prev, d2_prev, t_prev = d1, d2, t
    first, *later = rows
    evidence = [flat_floor, d2_noise_floor, first.sup_d1, first.sup_d2]
    evidence += [v for r in later for v in (r.sup_d1, r.sup_d2, r.cauchy_d1, r.cauchy_d2)]
    if not all(map(math.isfinite, evidence)):
        raise InvalidWindow(f"{too_short} the difference quotients of values up to {value_scale:g} overflow")
    if max(r.sup_d1 for r in rows) <= flat_floor:
        verdict = rc.TWICE
    else:
        verdict = rc._decide(rows, d2_noise_floor)
    return rc.RegularityReport(verdict, tuple(rows), witnesses)
