"""Checks of the program's answers against computations made apart from it.

Every check raises CheckFailed with the case name and the first offending
sample.  Error bounds follow conditioning: about 1e-8 * scale for simple
roots (more where the root is ill-conditioned), tol^(1/m) * scale for a
cluster of m roots (the program's documented collapse rule), and about
sqrt(eps * scale) where a lift passes through a reflecting hyperplane.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import TOL, Group, HarnessCase, LiftCase, SelectCase, make_group, sigma_polys
from numpy.polynomial import polynomial as P

EPS = float(np.finfo(float).eps)

VERDICT_ORDER = ("unbounded-derivative-detected", "inconclusive", "lipschitz",
                 "differentiable-bounded-derivative", "C1", "twice-differentiable")


class CheckFailed(AssertionError):
    pass


def _rank(verdict: str) -> int:
    if verdict not in VERDICT_ORDER:
        raise CheckFailed(f"unknown verdict {verdict!r}")
    return VERDICT_ORDER.index(verdict)


# -- roots ------------------------------------------------------------------------

def root_error_bounds(roots: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Allowed error of each computed root, given the exact sorted roots.

    roots has shape (N, n), one sorted multiset per row.  A root inside a
    run of m consecutive roots narrower than tol^(1/m) * scale may come back
    collapsed to the run's centroid; any other root is simple, and its
    error is bounded by 1e-8 * scale or, where larger, by a first-order
    perturbation bound: coefficient noise of size eps * e_j(|r|) moves the
    root by that noise over |P'(r)|.
    """
    roots = np.atleast_2d(roots)
    N, n = roots.shape
    scale = 1.0 + np.max(np.abs(roots), axis=1)
    bounds = np.empty_like(roots)
    absr = np.abs(roots)
    es = [np.ones(N)] + [np.zeros(N) for _ in range(n)]  # e_j(|r|), e_0 = 1
    for k in range(n):
        for j in range(k + 1, 0, -1):
            es[j] = es[j] + absr[:, k] * es[j - 1]
    for i in range(n):
        noise = sum(es[j] * absr[:, i] ** (n - j) for j in range(n + 1))
        deriv = np.ones(N)
        for k in range(n):
            if k != i:
                deriv = deriv * np.abs(roots[:, i] - roots[:, k])
        cond = np.full(N, np.inf)
        np.divide(1e3 * (n + 1) * EPS * noise, deriv, out=cond, where=deriv > 0)
        bounds[:, i] = np.maximum(1e-8 * scale, cond)
    for m in range(2, n + 1):
        width = tol ** (1.0 / m) * scale
        for k in range(n - m + 1):
            inside = roots[:, k + m - 1] - roots[:, k] < width
            for i in range(k, k + m):
                bounds[:, i] = np.where(inside, np.maximum(bounds[:, i], width), bounds[:, i])
    return bounds


def check_root_multiset(name: str, t: np.ndarray, got: np.ndarray, exact: np.ndarray,
                        tol: float = TOL) -> np.ndarray:
    """got and exact are (N, n) in any order per row; returns the bounds."""
    exact = np.sort(exact, axis=1)
    got = np.sort(got, axis=1)
    if got.shape != exact.shape:
        raise CheckFailed(f"{name}: {got.shape[1]} roots per sample, expected {exact.shape[1]}")
    bounds = root_error_bounds(exact, tol)
    excess = np.abs(got - exact) / bounds
    if not np.all(excess <= 1.0):
        i, k = np.unravel_index(int(np.argmax(excess)), excess.shape)
        raise CheckFailed(
            f"{name}: root {k} at t={t[i]!r} is {got[i, k]!r}, expected {exact[i, k]!r}"
            f" (bound {bounds[i, k]:.3g})")
    return bounds


def _segments(t: np.ndarray, windows) -> list[np.ndarray]:
    """Sample indices between consecutive reported unresolved windows."""
    inside = np.zeros(t.size, dtype=bool)
    for lo, hi in windows:
        inside |= (t >= lo) & (t <= hi)
    out, cur = [], []
    for i in range(t.size):
        if inside[i]:
            if cur:
                out.append(np.array(cur))
            cur = []
        else:
            cur.append(i)
    if cur:
        out.append(np.array(cur))
    return out


def check_selection(case: SelectCase, t: np.ndarray, branches: np.ndarray, unresolved,
                    verdicts, tol: float = TOL) -> None:
    """Root multiset at every sample, one root function per branch between
    unresolved windows, and (catalog entries) the expected weakest verdict."""
    exact = case.roots_at(t)
    bounds = check_root_multiset(case.name, t, branches.T, exact, tol)
    slack = np.max(bounds, axis=1)
    cands = np.stack([np.broadcast_to(f(t), t.shape) for f in case.candidate_fns()])
    for seg in _segments(t, unresolved):
        for j, branch in enumerate(branches):
            dev = np.abs(cands[:, seg] - branch[seg][None, :]) <= slack[seg][None, :]
            if not np.any(np.all(dev, axis=1)):
                bad = seg[np.argmin(np.all(dev, axis=0))]
                raise CheckFailed(
                    f"{case.name}: branch {j} follows no single root function on"
                    f" [{t[seg[0]]!r}, {t[seg[-1]]!r}] (first break near t={t[bad]!r})")
    if case.expected_verdict is not None:
        weakest = min(verdicts, key=_rank)
        want = _rank(case.expected_verdict)
        ok = _rank(weakest) >= want if case.at_least else _rank(weakest) == want
        if not ok:
            floor = "at least " if case.at_least else ""
            raise CheckFailed(f"{case.name}: weakest verdict {weakest}, expected"
                              f" {floor}{case.expected_verdict}")


def check_sharpness(verdicts_by_name: dict) -> None:
    """The catalog's sharpness pair: a C^2 coefficient gives a C^1 selection
    (cusp-3-2) and a Lipschitz one an unbounded derivative (sqrt-cusp)."""
    a = min(verdicts_by_name["cusp-3-2"], key=_rank)
    b = min(verdicts_by_name["sqrt-cusp"], key=_rank)
    if _rank(a) < _rank("C1") or b != "unbounded-derivative-detected":
        raise CheckFailed(f"sharpness pair: cusp-3-2 {a}, sqrt-cusp {b}")


# -- lifts ------------------------------------------------------------------------

def sigma_of_points(group: Group, pts: np.ndarray) -> np.ndarray:
    """sigma at each row of pts, from the invariants' definitions: np.poly of
    the point (A), of its squares (B, D; D's last invariant is the product)
    and |z|^2, Re z^m (I2)."""
    if group.kind == "I2":
        z = pts[:, 0] + 1j * pts[:, 1]
        return np.stack([np.abs(z) ** 2, (z ** group.param).real], axis=1)
    n = group.dim
    signs = (-1.0) ** np.arange(1, n + 1)
    base = pts if group.kind == "A" else pts * pts
    out = np.stack([np.poly(row)[1:] * signs for row in base])
    if group.kind == "D":
        out[:, -1] = np.prod(pts, axis=1)
    return out


def lift_bounds(group: Group, gamma: np.ndarray) -> np.ndarray:
    """Allowed distance of the lift from w.gamma at each sample.

    Away from reflecting hyperplanes coordinates are simple roots
    (1e-8 * scale).  At distance d from a hyperplane two fiber points are
    2d apart, so the roots that carry them are near-double and their error
    grows like eps * scale^2 / d, capped at sqrt(eps * scale) * scale; that
    cap is also what taking the square root of a near-zero square leaves
    on B and D.  Within the collapse width of a hyperplane the pair may come
    back merged: sqrt(tol) * scale, and sqrt(1e-8) * scale for I2, whose
    angle solve falls back to tolerance 1e-8.
    """
    scale = 1.0 + np.max(np.abs(gamma))
    d = np.min(np.abs(gamma @ group.normals.T), axis=1)
    with np.errstate(divide="ignore"):
        near = np.minimum(EPS * scale * scale / d, math.sqrt(EPS * scale) * scale)
    collapse = math.sqrt(1e-8 if group.kind == "I2" else TOL) * scale
    merged = np.where(d < 2.0 * collapse, collapse, 0.0)
    return 1e-8 * scale + 64.0 * near + merged


def check_lift(case: LiftCase, t: np.ndarray, values: np.ndarray, unresolved) -> None:
    """sigma(lift) reproduces the curve, and between unresolved windows the
    lift is w.gamma for one fixed group element w."""
    group = case.group
    target = np.stack([P.polyval(t, c) for c in sigma_polys(group, case.gamma_polys)], axis=1)
    scale = 1.0 + float(np.max(np.abs(target)))
    resid = np.max(np.abs(sigma_of_points(group, values) - target), axis=1)
    if not np.all(resid <= 1e-8 * scale):
        i = int(np.argmax(resid))
        raise CheckFailed(f"lift {group.label}: sigma(lift) misses the curve by"
                          f" {resid[i]:.3g} at t={t[i]!r}")
    gamma = case.gamma(t)
    bound = lift_bounds(group, gamma)
    for seg in _segments(t, unresolved):
        moved = np.einsum("wij,nj->wni", group.elements, gamma[seg])
        dev = np.max(np.abs(moved - values[seg][None, :, :]), axis=2) / bound[seg][None, :]
        worst = np.max(dev, axis=1)
        if not np.min(worst) <= 1.0:
            w = int(np.argmin(worst))
            i = seg[int(np.argmax(dev[w]))]
            raise CheckFailed(
                f"lift {group.label}: no group element w gives lift = w.gamma on"
                f" [{t[seg[0]]!r}, {t[seg[-1]]!r}]; best w is off by"
                f" {worst[w]:.3g} bounds near t={t[i]!r}")


def check_harness(case: HarnessCase, estimates) -> None:
    """Each probe's Lipschitz estimate within 10% of the analytic sup of
    |d/dt g(probe(t))| (the lift of sigma(g(probe)) is w.g(probe))."""
    probes = case.probe_curves()
    if len(estimates) != len(probes):
        raise CheckFailed(f"harness: {len(estimates)} probes, expected {len(probes)}")
    for (name, gamma, dgamma), est in zip(probes, estimates):
        exact = case.sup_speed(dgamma, gamma)
        if not abs(est - exact) <= 0.1 * exact:
            raise CheckFailed(f"harness probe {name}: Lipschitz estimate {est!r},"
                              f" analytic {exact!r}")


# -- command line ---------------------------------------------------------------------

class Report(dict):
    """A `key: value` report; a missing key is a failed check."""

    def __missing__(self, key):
        raise CheckFailed(f"report has no line {key!r}")


def parse_report(text: str) -> Report:
    out = Report()
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise CheckFailed(f"report line without a key: {line!r}")
        out[key] = value
    return out


def check_roots_report(text: str, expected) -> None:
    rep = parse_report(text)
    keys = sorted(k for k in rep if k.startswith("root["))
    if len(keys) != len(expected):
        raise CheckFailed(f"roots: {len(keys)} roots reported, expected {len(expected)}")
    got = np.array([float(rep[f"root[{i}]"]) for i in range(len(expected))])
    check_root_multiset("roots", np.zeros(1), got[None, :], np.asarray(expected, float)[None, :])


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def check_select_csv(path) -> None:
    """select on roots of x^2 - t^2: the columns are t and -t, each column
    one of them over the whole domain."""
    header, data = read_csv(path)
    t = data[:, 0]
    if header != ["t", "branch0", "branch1"]:
        raise CheckFailed(f"select CSV header {header}")
    cols = data[:, 1:]
    bound = 1e-8 * (1.0 + np.max(np.abs(t)))
    ok_id = np.all(np.abs(cols[:, 0] - t) <= bound) and np.all(np.abs(cols[:, 1] + t) <= bound)
    ok_sw = np.all(np.abs(cols[:, 0] + t) <= bound) and np.all(np.abs(cols[:, 1] - t) <= bound)
    if not (ok_id or ok_sw):
        raise CheckFailed("select CSV: branches are not t and -t")


def check_lift_csv(path, group_label: str) -> None:
    """lift of (1, cos 4t) over I2:4: the lift is w.(cos t, sin t)."""
    header, data = read_csv(path)
    t, values = data[:, 0], data[:, 1:]
    group = make_group(group_label)
    gamma = np.stack([np.cos(t), np.sin(t)], axis=1)
    bound = lift_bounds(group, gamma)
    moved = np.einsum("wij,nj->wni", group.elements, gamma)
    dev = np.max(np.max(np.abs(moved - values[None]), axis=2) / bound[None], axis=1)
    if not np.min(dev) <= 1.0:
        raise CheckFailed(f"lift CSV: no w gives lift = w.(cos t, sin t) (best off by {np.min(dev):.3g} bounds)")


def check_certify_report(text: str) -> None:
    """certify on the select CSV: both columns are linear in t."""
    rep = parse_report(text)
    for name in ("branch0", "branch1"):
        if rep.get(f"column[{name}].verdict") != "twice-differentiable":
            raise CheckFailed(f"certify: column {name} verdict {rep.get(f'column[{name}].verdict')}")


def check_kdata_report(text: str, group_label: str) -> None:
    rep = parse_report(text)
    degrees = make_group(group_label).degrees
    got = tuple(int(x) for x in rep["invariant-degrees"].split(","))
    if got != degrees or int(rep["d"]) != max(degrees):
        raise CheckFailed(f"kdata {group_label}: degrees {got}, d {rep['d']}; expected"
                          f" {degrees}, d {max(degrees)}")
    order = len(make_group(group_label).elements)
    if int(rep["order"]) != order:
        raise CheckFailed(f"kdata {group_label}: order {rep['order']}, expected {order}")


def check_harness_report(text: str, case: HarnessCase) -> None:
    rep = parse_report(text)
    n = int(rep["probes"])
    check_harness(case, [float(rep[f"probe[{i}].lipschitz"]) for i in range(n)])


def check_examples_report(text: str, names) -> None:
    rep = parse_report(text)
    got = [rep[f"example[{i}].name"] for i in range(int(rep["entries"]))]
    if got != list(names):
        raise CheckFailed(f"examples: entries {got}")
