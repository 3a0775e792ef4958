"""Monic hyperbolic polynomials: hyperbolicity tests and real root extraction.

A monic real polynomial is stored through the alternating-sign coefficient
vector (a_1, ..., a_n):

    P(x) = x^n + sum_j (-1)^j a_j x^(n-j)

so that a_j equals the j-th elementary symmetric function of the roots.

Every solve runs one pipeline.  A companion-matrix eigensolve plus guarded
Newton steps proposes the roots, and they are accepted only when certified
by sign alternation: P changes sign between consecutive probes and across a
delta-enclosure of every root, each value standing clear of Horner's
rounding-error bound (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 5), with every gap wide enough that no cluster collapse
applies.  roots_batch runs the eigensolve of a whole block of polynomials
(a sampled curve) as one stacked call; roots runs it on one row.

A row the certificate refuses is rebuilt from critical-point interlacing:
between consecutive real critical points P is monotone, so a reliable sign
change there is exactly one simple root (Rolle), and a critical value lost
in rounding noise carries a multiple root.  Root clusters narrower than
tol^(1/multiplicity) are collapsed to a repeated root (at the cluster
centroid, computed from the matching derivative): collisions of real roots
are the expected regime here and must not surface as spurious complex
pairs.  Complex pairs within the tolerance ball are promoted to real
multiple roots; a pair outside it raises NotHyperbolic.

The scalar inner loops (Horner evaluation, noise bounds, bisection and
Newton steps) run on Python floats: each coefficient vector becomes a float
list once per loop, and numpy arrays appear only at the boundary
(MonicHyperbolic, RootMultiset, evaluate() on an array), and every float
operation keeps the order of the numpy kernel it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotHyperbolic, RootSolveFailed

_MAX_NEWTON = 60
_EPS = float(np.finfo(float).eps)
# roots_batch: Newton steps after the eigensolve, and the least certified
# adjacent gap in units of tol^(1/2), the narrowest width a cluster collapses
_BATCH_NEWTON = 3
_GAP_MARGIN = 2.0


@dataclass(frozen=True, eq=False)
class MonicHyperbolic:
    """Monic real polynomial in the alternating-sign coefficient convention."""

    coeffs: np.ndarray

    def __init__(self, coeffs: Sequence[float]):
        arr = np.array(coeffs, dtype=float).reshape(-1)
        if arr.size == 0:
            raise ValueError("polynomial must have degree >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def full_coeffs(self) -> np.ndarray:
        """Descending power-basis coefficients [1, -a1, +a2, ...]."""
        n = self.degree
        signs = (-1.0) ** np.arange(1, n + 1)
        return np.concatenate(([1.0], signs * self.coeffs))

    def __repr__(self) -> str:
        return f"MonicHyperbolic(degree={self.degree}, coeffs={self.coeffs.tolist()})"


@dataclass(frozen=True, eq=False)
class RootMultiset:
    """Nondecreasing real roots; multiplicity is implied by repeats."""

    values: np.ndarray

    def __init__(self, values: Sequence[float]):
        arr = np.sort(np.asarray(values, dtype=float).reshape(-1))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"RootMultiset({self.values.tolist()})"


def coeff_scale(poly: MonicHyperbolic) -> float:
    """Residual scale 1 + max |a_j|; keeps tolerances relative."""
    return 1.0 + float(np.max(np.abs(poly.coeffs))) if poly.degree else 1.0


def from_roots(root_values: Sequence[float]) -> MonicHyperbolic:
    """Polynomial with the given real roots (Vieta: a_j = e_j(roots))."""
    vals = np.sort(np.asarray(root_values, dtype=float).reshape(-1))
    if vals.size == 0:
        raise ValueError("at least one root required")
    if not np.all(np.isfinite(vals)):
        raise ValueError("roots must be finite")
    return MonicHyperbolic(_elementary(vals.tolist()))


def _elementary(roots: list[float]) -> list[float]:
    """e_1..e_n of the roots, accumulated in the order given."""
    e = [1.0] + [0.0] * len(roots)
    for k, r in enumerate(roots, start=1):
        for j in range(k, 0, -1):
            e[j] += r * e[j - 1]
    return e[1:]


def evaluate(poly: MonicHyperbolic, x):
    """Horner evaluation; accepts scalars or arrays."""
    return _horner(poly.full_coeffs(), x)


def roots(poly: MonicHyperbolic, tol: float = 1e-10) -> RootMultiset:
    """All n real roots, sorted, with multiplicity: the one-row case of
    roots_batch, so a certified eigensolve answer or else the closed forms
    or the interlacing rebuild, which counts the real roots between critical
    points, collapses clusters narrower than tol^(1/multiplicity), and
    promotes complex pairs inside the tol-ball to multiple roots.  Raises
    NotHyperbolic if a complex pair remains, RootSolveFailed if the rebuilt
    roots fail the backward check, both with `index` 0.  Output is
    deterministic for identical input.
    """
    return RootMultiset(roots_batch(poly.coeffs[None, :], tol)[0][0])


def roots_batch(rows, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of each row of an (N, n) block of coefficient vectors,
    and the (N,) mask of the rows the certificate refused.

    One stacked eigensolve of the companion matrices and _BATCH_NEWTON
    Newton steps give candidate roots r_0 < ... < r_(n-1) for every row.  A
    row keeps them only with a certificate, every value clear of twice the
    Horner noise bound:
    * each adjacent gap exceeds _GAP_MARGIN * tol^(1/2), so the tol-ball
      collapse cannot merge any two of them;
    * P has the sign (-1)^(n-k) at n+1 probes: below r_0, at the midpoint
      between r_(k-1) and r_k, and above r_(n-1), which makes n sign
      changes, so n simple real roots, one between adjacent probes;
    * P(r - d) P(r + d) < 0 with d = 1e-9 max(1, |r|), so each root lies
      within d of its r.
    Every other row, and every row of degree <= 2, takes the fallback
    (closed forms, else the interlacing rebuild) in index order.  A row the
    fallback rejects raises NotHyperbolic, or RootSolveFailed, carrying the
    row index as `index`.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be an (N, n) array")
    if rows.shape[1] >= 3:
        # a non-finite row is solved as zeros, which no certificate accepts
        finite = np.isfinite(rows).all(axis=1)
        values, good = _certified_roots(np.where(finite[:, None], rows, 0.0), tol)
        fell_back = ~(finite & good)
    else:
        values, fell_back = np.empty(rows.shape), np.ones(rows.shape[0], dtype=bool)
    for i in np.flatnonzero(fell_back).tolist():
        try:
            values[i] = _uncertified_roots(MonicHyperbolic(rows[i]), tol)
        except (NotHyperbolic, RootSolveFailed) as exc:
            exc.index = i
            raise
    return values, fell_back


def _uncertified_roots(poly: MonicHyperbolic, tol: float) -> np.ndarray:
    """Sorted roots of a polynomial the certificate refused (or of degree
    <= 2), from the closed forms or the interlacing rebuild.  Nothing ties a
    rebuilt answer to the coefficients as the closed forms' tol-ball rule
    does, so it must give them back to within 10 tol^(1/2) scale, or raise
    RootSolveFailed: roots are told apart only beyond the pair width
    tol^(1/2), and a collapsed cluster moves the coefficients by as much."""
    vals = _roots_with_fallback(poly, tol)
    if vals is None:
        raise NotHyperbolic(
            f"certified complex root pair (degree {poly.degree}, tol {tol:g})"
        )
    vals = np.sort(vals)
    if poly.degree >= 3:
        miss = max(abs(e - a) for e, a in zip(_elementary(vals.tolist()), poly.coeffs.tolist()))
        if not miss <= 10.0 * math.sqrt(tol) * coeff_scale(poly):
            raise RootSolveFailed(f"roots fail the backward check: they miss the coefficients"
                                  f" by {miss:.3g} (degree {poly.degree}, tol {tol:g})")
    return vals


# -- certified roots: one stacked eigensolve, checked by sign alternation ----

def _horner_rows(c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the polynomials c[i] (descending) at the points x[i, :],
    and their Horner rounding-noise bounds, as in _eval_noise."""
    out = np.repeat(c[:, :1], x.shape[1], axis=1)
    acc = np.abs(out)
    ax = np.abs(x)
    for j in range(1, c.shape[1]):
        out = out * x + c[:, j : j + 1]
        acc = acc * ax + np.abs(c[:, j : j + 1])
    return out, 2.0 * c.shape[1] * _EPS * acc


def _certified_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sorted roots of each row (degree n >= 3, finite) and the
    mask of the rows whose candidates carry the certificate described in
    roots_batch."""
    m, n = rows.shape
    c = np.ones((m, n + 1))
    c[:, 1:] = rows * (-1.0) ** np.arange(1, n + 1)
    dc = c[:, :-1] * np.arange(n, 0, -1)
    comp = np.zeros((m, n, n))
    comp[:, 0, :] = -c[:, 1:]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    with np.errstate(all="ignore"):
        x = np.sort(np.linalg.eigvals(comp).real, axis=1)
        # a Newton step counts only where it lowers |P|: within the Horner
        # noise a full step can move a root away
        fx = _horner_rows(c, x)[0]
        for _ in range(_BATCH_NEWTON):
            x_new = x - fx / _horner_rows(dc, x)[0]
            f_new = _horner_rows(c, x_new)[0]
            better = np.abs(f_new) < np.abs(fx)
            x, fx = np.where(better, x_new, x), np.where(better, f_new, fx)
        x.sort(axis=1)
        d = 1e-9 * np.maximum(1.0, np.abs(x))
        span = 1.0 + (x[:, -1:] - x[:, :1])
        probes = np.concatenate([x[:, :1] - span, 0.5 * (x[:, :-1] + x[:, 1:]), x[:, -1:] + span], axis=1)
        val, noise = _horner_rows(c, np.concatenate([probes, x - d, x + d], axis=1))
        sign = (-1.0) ** (n - np.arange(n + 1))  # P's sign between roots k-1 and k
        clear = val * np.concatenate([sign, sign[:-1], sign[1:]]) > 2.0 * noise
        good = (
            np.isfinite(x).all(axis=1)
            & (np.diff(x, axis=1) > _GAP_MARGIN * math.sqrt(tol)).all(axis=1)
            & clear.all(axis=1)
            & (probes[:, :-1] < x - d).all(axis=1)
            & (x + d < probes[:, 1:]).all(axis=1)
        )
    return x, good


# -- dense polynomial helpers (descending coefficients, c[0] = leading) -----

def _horner(c, x):
    """c(x) for an array or float list c.  A float x (np.float64 included)
    takes a plain float loop with the array path's operation order."""
    if isinstance(x, float):
        x = float(x)
        if not isinstance(c, list):
            c = c.tolist()
        out = c[0]
        for coef in c[1:]:
            out = out * x + coef
        return out
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, c[0], dtype=float)
    for coef in c[1:]:
        out = out * x + coef
    if out.shape == ():
        return float(out)
    return out


def _deg(c: np.ndarray) -> int:
    return c.size - 1


def _deriv(c: np.ndarray) -> np.ndarray:
    return c[:-1] * np.arange(_deg(c), 0, -1)


def _eval_noise(c: list[float], x: float) -> float:
    """Rounding-noise scale of Horner evaluation at x."""
    ax = abs(float(x))
    acc = abs(c[0])
    for coef in c[1:]:
        acc = acc * ax + abs(coef)
    return 2.0 * len(c) * _EPS * acc


def _root_bound(c: np.ndarray) -> float:
    """Fujiwara upper bound on |roots|."""
    lead = abs(c[0])
    n = _deg(c)
    best = 0.0
    for k in range(1, n + 1):
        ck = abs(c[k]) / lead
        if ck > 0:
            best = max(best, ck ** (1.0 / k))
    return 2.0 * best + 1.0


def _polish_simple(c: list[float], dc: list[float], lo: float, hi: float) -> float:
    """Bisection to a tight bracket, then safeguarded Newton on c."""
    flo = _horner(c, lo)
    fhi = _horner(c, hi)
    if flo * fhi < 0:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fm = _horner(c, mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-9 * max(1.0, abs(mid)):
                break
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_NEWTON):
        fx = _horner(c, x)
        dfx = _horner(dc, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (lo - 1e-8 <= x_new <= hi + 1e-8):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            x = x_new
            break
        x = x_new
    return x


def _polish_mult_root(c: np.ndarray, x: float, mult: int) -> float:
    """Best float estimate of an m-fold root: the simple root of the
    (m-1)-th derivative.  An m-fold root is ill-conditioned in c itself
    (cluster radius ~ eps^(1/m)); the derivative root is its centroid and
    moves only linearly with coefficient perturbations."""
    d = c
    for _ in range(mult - 1):
        d = _deriv(d)
    d, dd = d.tolist(), _deriv(d).tolist()
    for _ in range(40):
        fx = _horner(d, x)
        if abs(fx) <= 2.0 * _eval_noise(d, x):
            break  # below evaluation noise: the step would be noise/noise
        dfx = _horner(dd, x)
        if dfx == 0.0 or not math.isfinite(dfx):
            break
        step = fx / dfx
        if abs(step) > 0.1 * (1.0 + abs(x)):
            break  # wild step: x is not in this root's basin
        x -= step
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def _collapse_clusters(values: np.ndarray, tol: float, c: np.ndarray | None = None) -> np.ndarray:
    """Merge sorted root values into repeated cluster roots per the
    width < tol^(1/multiplicity) rule.

    The merged value starts from the cluster mean; when the full coefficient
    vector is available, the matching derivative root (the cluster centroid,
    well conditioned) replaces the mean unless it leaves the cluster."""
    out = values.copy()
    i = 0
    while i < out.size:
        j = i + 1
        while j < out.size:
            width = out[j] - out[i]
            size = j - i + 1
            if width < tol ** (1.0 / size):
                j += 1
            else:
                break
        if j - i > 1:
            spread = float(out[j - 1] - out[i])
            merged = float(np.mean(out[i:j]))
            if c is not None and spread > 0.0:
                size = j - i
                polished = _polish_mult_root(c, merged, size)
                if abs(polished - merged) <= spread + tol ** (1.0 / size):
                    merged = polished
            out[i:j] = merged
        i = j
    return out


def _taylor_shift(c: np.ndarray, mu: float) -> np.ndarray:
    """Coefficients of p(x + mu) by repeated synthetic division."""
    b = c.tolist()
    mu = float(mu)
    n = len(b)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            b[j] += mu * b[j - 1]
    return np.array(b)


def _promotion_violation(derivs: list[list[float]], scales, x: float, mult: int, tol: float) -> float:
    """How far x is from being a mult-fold root, in units of the tol-ball.

    Coefficient perturbations of size tol*scale(P) move P^(j) by about
    tol*scale_j, so a point within the tol-ball of an m-fold root has
    |P^(j)(x)| of that order for every j < m."""
    worst = 0.0
    for j in range(mult - 1):
        worst = max(worst, abs(_horner(derivs[j], x)) / (tol * scales[j]))
    return worst


def _robust_real_roots(c: np.ndarray, tol: float, noise_floor: float = 0.0) -> list[tuple[float, int]]:
    """Real roots with multiplicity, rebuilt from critical-point interlacing.
    c is the recentred monic polynomial or one of its derivatives: its
    leading coefficient is exact and nonzero, and its degree is >= 1.

    Between consecutive real critical points (and beyond the outermost ones,
    up to the Fujiwara bound) c is monotone, so a sign change there brackets
    exactly one simple root.  A critical value counts as zero, carrying a
    multiple root, only when it lies in the tol-ball and its sign is not
    reliable: within max(twice the Horner noise bound, floor), the test the
    certificate of roots_batch applies.  A run of zero values is one cluster
    whose multiplicity is the run length plus one (a k-fold critical point
    counts k times), raised by one when that disagrees with the parity of
    the signs around the run.  Every reliable sign is honoured, so a near
    pair splits into two simple roots and _collapse_clusters applies the
    width rule afterwards.  Missing real roots (complex pairs) are left to
    the caller.  Critical points come from the same rebuild, one degree
    down.  noise_floor is the absolute uncertainty of evaluated values
    inherited from upstream coefficient rounding (e.g. the recentering
    shift)."""
    n = _deg(c)
    if n == 1:
        return [(-c[1] / c[0], 1)]
    dc = _deriv(c)
    scale = 1.0 + float(np.max(np.abs(c)))
    floor = max(noise_floor, 4.0 * c.size * _EPS * scale)
    # differentiation amplifies inherited coefficient noise by at most n
    crit = _robust_real_roots(dc, tol, floor * n)
    crit = sorted(x for x, m in crit for _ in range(m))
    bound = _root_bound(c) + 1.0
    anchors = [-bound] + crit + [bound]
    cf, dcf = c.tolist(), dc.tolist()
    vals = [_horner(cf, a) for a in anchors]
    zero = [
        abs(v) <= tol * scale and abs(v) <= max(2.0 * _eval_noise(cf, a), floor)
        for a, v in zip(anchors, vals)
    ]
    pairs = []
    for i in range(len(anchors) - 1):
        if not (zero[i] or zero[i + 1]) and (vals[i] > 0) != (vals[i + 1] > 0):
            pairs.append((_polish_simple(cf, dcf, anchors[i], anchors[i + 1]), 1))
    i = 1
    while i < len(anchors) - 1:
        if not zero[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(anchors) - 1 and zero[j + 1]:
            j += 1
        mult = j - i + 2
        if ((vals[i - 1] > 0) != (vals[j + 1] > 0)) != (mult % 2 == 1):
            mult += 1
        mult = min(mult, n)
        pairs.append((_polish_mult_root(c, 0.5 * (anchors[i] + anchors[j]), mult), mult))
        i = j + 1
    pairs.sort(key=lambda p: p[0])
    return pairs


def _quadratic_roots(a1: float, a2: float, tol: float) -> np.ndarray | None:
    """Closed form for x^2 - a1 x + a2 with the same tolerance-ball rule:
    a negative discriminant within 4*tol*scale collapses to a double root
    (|P| at the vertex is |disc|/4, matching the promotion criterion)."""
    scale = 1.0 + max(abs(a1), abs(a2))
    disc = a1 * a1 - 4.0 * a2
    if disc <= 0.0:
        if -disc <= 4.0 * tol * scale:
            return np.array([0.5 * a1, 0.5 * a1])
        return None
    sq = np.sqrt(disc)
    r1 = 0.5 * (a1 + sq) if a1 >= 0.0 else 0.5 * (a1 - sq)
    r2 = a2 / r1 if r1 != 0.0 else 0.0
    vals = np.array(sorted((r1, r2)))
    return _collapse_clusters(vals, tol)


def _roots_with_fallback(poly: MonicHyperbolic, tol: float) -> np.ndarray | None:
    n = poly.degree
    if n == 1:
        return np.array([poly.coeffs[0]])
    if n == 2:
        return _quadratic_roots(float(poly.coeffs[0]), float(poly.coeffs[1]), tol)
    if poly.coeffs[-1] == 0.0:
        # an exact root at 0: deflate it, as the centroid shift below would
        # blur it into rounding noise
        rest = _roots_with_fallback(MonicHyperbolic(poly.coeffs[:-1]), tol)
        if rest is None:
            return None
        return _collapse_clusters(np.sort(np.append(rest, 0.0)), tol, poly.full_coeffs())
    # Recenter at the root centroid: clusters far from the origin are badly
    # conditioned in the raw coefficients, and the centroid is exact in a1.
    # The tol-ball stays anchored to the ORIGINAL coefficient scale, so the
    # effective tolerance in the shifted frame compensates for the rescaling.
    mu = poly.coeffs[0] / n
    c = _taylor_shift(poly.full_coeffs(), mu)
    scale_shift = 1.0 + float(np.max(np.abs(c)))
    tol_eff = tol * coeff_scale(poly) / scale_shift
    # rounding inside the shift leaves absolute coefficient noise at the
    # original scale; evaluated values inherit it
    shift_noise = 4.0 * (n + 1) * _EPS * coeff_scale(poly) * max(1.0, abs(mu))
    pairs = _robust_real_roots(c, tol_eff, noise_floor=shift_noise)
    total = sum(m for _, m in pairs)
    if total < n and (n - total) % 2 == 0:
        derivs = [c]
        for _ in range(n):
            derivs.append(_deriv(derivs[-1]))
        scales = [1.0 + float(np.max(np.abs(d))) for d in derivs]
        dfloats = [d.tolist() for d in derivs]
        # remaining deficit: complex pairs within the tol-ball coalesce into
        # higher multiplicities; rank candidate promotions by how cleanly the
        # lower derivatives vanish at the witness point
        crit = [x for x, _ in _robust_real_roots(derivs[1], tol_eff, noise_floor=shift_noise * n)]
        while total < n:
            best = None  # (violation, tiebreak, index-or-None, x, new_mult)
            for i, (r, m) in enumerate(pairs):
                if m + 2 > n:
                    continue
                x = _polish_mult_root(c, r, m + 2)
                if abs(x - r) > 0.5 * (1.0 + abs(r)):
                    continue  # Newton wandered off; not a local cluster
                viol = _promotion_violation(dfloats, scales, x, m + 2, tol_eff)
                cand = (viol, abs(x - r), i, x, m + 2)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            for x0 in crit:
                # a critical point inside an existing root's collapse radius
                # belongs to that cluster: let the promotion above absorb it
                if any(abs(x0 - r) < tol ** (1.0 / (m + 2)) for r, m in pairs):
                    continue
                viol = _promotion_violation(dfloats, scales, x0, 2, tol_eff)
                cand = (viol, 0.0, None, x0, 2)
                if best is None or cand[:2] < best[:2]:
                    best = cand
            if best is None or best[0] > 1.0:
                return None
            _, _, idx, x, new_m = best
            if idx is None:
                pairs.append((x, 2))
            else:
                pairs[idx] = (x, new_m)
            pairs.sort(key=lambda p: p[0])
            total += 2
    if total < n:
        return None
    vals = np.concatenate([np.full(m, r) for r, m in pairs])
    vals = np.sort(vals)[:n]
    return _collapse_clusters(vals, tol, c) + mu
