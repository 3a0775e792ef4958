"""The tests' scalar oracles for the block kernels of `orbitlift.hyperpoly`:
the Horner noise bound, the multiple-root Newton, the bracket polish's step
count and the cluster collapse, one point and one row at a time on floats.
The block kernels must give every row these bits."""

import math

import numpy as np

from orbitlift import hyperpoly as hp


def eval_noise(c: list[float], x: float) -> float:
    """The Horner rounding-noise bound of c at the float x."""
    ax = abs(float(x))
    acc = abs(c[0])
    for coef in c[1:]:
        acc = acc * ax + abs(coef)
    return 2.0 * len(c) * float(np.finfo(float).eps) * acc


def polish_mult_root(c: np.ndarray, x: float, mult: int) -> float:
    """Newton on the (mult-1)-th derivative of the row c from x, for up to
    40 steps: it stops at a value within twice the Horner noise bound, at a
    derivative that is 0 or not finite, before a step of more than
    0.1 (1 + |x|), and after a step of at most 1e-16 max(1, |x|)."""
    d = c
    for _ in range(mult - 1):
        d = hp._deriv(d)
    d, dd = d.tolist(), hp._deriv(d).tolist()
    for _ in range(40):
        fx = hp._horner(d, x)
        if abs(fx) <= 2.0 * eval_noise(d, x):
            break
        dfx = hp._horner(dd, x)
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        if abs(step) > 0.1 * (1.0 + abs(x)):
            break
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def polish_steps(c: list[float], lo: float, hi: float) -> tuple[int, str]:
    """The number of values of c that the safeguarded Newton of
    hyperpoly._polish_simple takes from the midpoint of (lo, hi), and the
    exit it leaves by: "root" at c(x) = 0, "small" at a Newton step of at
    most 2 eps max(1, |x|), "flat" when no float lies between lo and hi."""
    dc = hp._deriv(c)
    neg = hp._horner(c, lo) < 0.0
    x, move, steps = 0.5 * (lo + hi), hi - lo, 0
    while True:
        steps += 1
        fx = hp._horner(c, x)
        if fx == 0.0:
            return steps, "root"
        lo, hi = (x, hi) if (fx < 0.0) == neg else (lo, x)
        dfx = hp._horner(dc, x)
        step = fx / dfx if dfx else math.inf
        if abs(step) <= 2.0 * float(np.finfo(float).eps) * max(1.0, abs(x)):
            return steps, "small"
        x_new = x - step
        if not (lo < x_new < hi and abs(step) <= 0.5 * abs(move)):
            x_new = 0.5 * (lo + hi)
            if x_new <= lo or x_new >= hi:
                return steps, "flat"
        move, x = x_new - x, x_new


def collapse_clusters(values: np.ndarray, tol: float, c: np.ndarray) -> np.ndarray:
    """The sorted root values of one row with each run narrower than
    tol^(1/size) merged at np.mean of its values, or at polish_mult_root
    from that mean when the cluster has a spread and the polished root stays
    within spread + tol^(1/size) of the mean."""
    out = values.copy()
    i = 0
    while i < out.size:
        j = i + 1
        while j < out.size and out[j] - out[i] < tol ** (1.0 / (j - i + 1)):
            j += 1
        if j - i > 1:
            spread = float(out[j - 1] - out[i])
            merged = float(np.mean(out[i:j]))
            if spread > 0.0:
                size = j - i
                polished = polish_mult_root(c, merged, size)
                if abs(polished - merged) <= spread + tol ** (1.0 / size):
                    merged = polished
            out[i:j] = merged
        i = j
    return out
