"""The tests' oracles for the lean forms of the block kernels: the same
kernels written with numpy's generic helpers, as they were before the lean
forms replaced them.  The certificate of `hyperpoly._certified_roots` is
evaluated on every row and its Newton steps take the values of
`_horner_rows`; `invariants._chamber_block` groups its trait rows by
`np.unique(axis=0)`; the gathers are `np.take_along_axis` and the norms
`np.linalg.norm`; `lifting._exit_candidates` keys its points by tuples;
`hyperpoly.roots_batch` runs the certificate on every row of degree >= 3
before the fallback; `invariants._nearest` breaks ties by a three-key
lexsort, sets signs by np.where and indexes the D parity flip on every
call, and `OrbitBlock.nearest` repeats every row for each query;
`lifting._estimate_window` tracks each of its two segments sample by
sample from the point nearest its start, and `lifting._exit_candidates`
computes the costs of the points it keeps again;
`hyperpoly._polish_brackets` reads its coefficients as strided column
slices, writes every live bracket's result at every step and shrinks its
arrays at every step a bracket stops; `hyperpoly._fallback` deflates exact
zero roots, refuses an overflowing recentring and promotes a short rebuild
on the block, without the row form, and checks every row on arrays.  The
lean forms must give every row these bits, and every refused block its
error."""

import math

import numpy as np

from orbitlift import hyperpoly as hp
from orbitlift import invariants as inv
from orbitlift import lifting as lf
from orbitlift.errors import NotFinite
from orbitlift.windows import fit_side, risky_run


def certified_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    m, n = rows.shape
    c = np.ones((m, n + 1))
    c[:, 1:] = rows * (-1.0) ** np.arange(1, n + 1)
    dc = c[:, :-1] * np.arange(n, 0, -1)
    comp = np.zeros((m, n, n))
    comp[:, 0, :] = -c[:, 1:]
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    with np.errstate(all="ignore"):
        x = np.sort(np.linalg.eigvals(comp).real, axis=1)
        fx = hp._horner_rows(c, x)[0]
        for _ in range(hp._BATCH_NEWTON):
            x_new = x - fx / hp._horner_rows(dc, x)[0]
            f_new = hp._horner_rows(c, x_new)[0]
            better = np.abs(f_new) < np.abs(fx)
            x, fx = np.where(better, x_new, x), np.where(better, f_new, fx)
        x.sort(axis=1)
        d = 1e-9 * np.maximum(1.0, np.abs(x))
        span = 1.0 + (x[:, -1:] - x[:, :1])
        probes = np.concatenate([x[:, :1] - span, 0.5 * (x[:, :-1] + x[:, 1:]), x[:, -1:] + span], axis=1)
        val, noise = hp._horner_rows(c, np.concatenate([probes, x - d, x + d], axis=1))
        sign = (-1.0) ** (n - np.arange(n + 1))
        clear = val * np.concatenate([sign, sign[:-1], sign[1:]]) > 2.0 * noise
        good = (
            np.isfinite(x).all(axis=1)
            & (np.diff(x, axis=1) > hp._GAP_MARGIN * math.sqrt(tol)).all(axis=1)
            & clear.all(axis=1)
            & (probes[:, :-1] < x - d).all(axis=1)
            & (x + d < probes[:, 1:]).all(axis=1)
        )
    return x, good


def certificate_first_roots(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """hyperpoly.roots_batch, certificate first on every block."""
    finite = np.isfinite(rows).all(axis=1)
    if rows.shape[1] >= 3:
        values, good = hp._certified_roots(np.where(finite[:, None], rows, 0.0), tol)
        fell_back = ~(finite & good)
    else:
        values, fell_back = np.empty(rows.shape), np.ones(rows.shape[0], dtype=bool)
    stop = rows.shape[0] if finite.all() else int(np.argmin(finite))
    todo = fell_back[:stop].nonzero()[0]
    if todo.size:
        values[todo], refused = hp._fallback(rows[todo], tol)
        if refused:
            exc = refused[min(refused)]
            exc.index = int(todo[min(refused)])
            raise exc
    if stop < rows.shape[0]:
        raise NotFinite("coefficients must be finite", index=stop)
    return values, fell_back


def fallback(rows: np.ndarray, tol: float) -> tuple[np.ndarray, dict]:
    """hyperpoly._fallback with every row on the block kernels
    (roots_with_fallback below) and the backward check on arrays."""
    n = rows.shape[1]
    vals, solved = roots_with_fallback(rows, tol)
    failed, miss = ~solved, np.full(rows.shape[0], np.nan)
    if n >= 3:
        with np.errstate(all="ignore"):
            vals = np.sort(vals, axis=1)
            gap = np.abs(np.array(hp._elementary(list(vals.T))).T - rows)
        miss = gap[:, 0]
        for j in range(1, n):
            miss = np.where(gap[:, j] > miss, gap[:, j], miss)
        failed |= ~(miss <= 10.0 * math.sqrt(tol) * (1.0 + np.max(np.abs(rows), axis=1)))
    return vals, {i: hp._refusal(n, tol, solved[i], np.isinf(vals[i]).any(), miss[i])
                  for i in np.flatnonzero(failed).tolist()}


def roots_with_fallback(rows: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row (not sorted), from the closed forms or the rebuild,
    and the mask of the rows found hyperbolic: hyperpoly._block_roots with
    every uncommon row on the block, without the row form."""
    m, n = rows.shape
    if n == 1:
        return rows.copy(), np.ones(m, dtype=bool)
    if n == 2:
        return hp._quadratic_roots(rows, tol)
    out, ok = np.full((m, n), np.nan), np.zeros(m, dtype=bool)
    c = hp._descending(rows)
    zero = rows[:, -1] == 0.0
    if zero.any():
        rest, ok[zero] = roots_with_fallback(rows[zero, :-1], tol)
        out[zero] = np.sort(np.concatenate([rest, np.zeros((rest.shape[0], 1))], axis=1), axis=1)
    keep = np.flatnonzero(~zero)
    mu = rows[keep, 0] / n
    scale = 1.0 + np.max(np.abs(rows[keep]), axis=1)
    with np.errstate(all="ignore"):
        c[keep] = np.array(hp._taylor_shift(c[keep].T, mu)).T
        shift_noise = 4.0 * (n + 1) * hp._EPS * scale * np.fmax(1.0, np.abs(mu))
        top = np.max(np.abs(c[keep]), axis=1)
        big = ~np.isfinite(top)
        out[keep[big]] = np.inf
        keep, mu, scale, shift_noise, top = (x[~big] for x in (keep, mu, scale, shift_noise, top))
        tol_eff = tol * scale / (1.0 + top)
        roots, mult = hp._rebuild(c[keep], tol_eff, shift_noise)
        flat, total = hp._expand(roots, mult)
        vals, found = np.full((keep.size, n), np.nan), total == n
        vals[found] = np.sort(flat[found, :n], axis=1).reshape(-1, n)
        for i in np.flatnonzero(~found).tolist():
            pairs = [(x, k) for x, k in zip(roots[i].tolist(), mult[i].tolist()) if k]
            if total[i] < n and (n - total[i]) % 2 == 0:
                pairs = hp._promote(pairs, c[keep[i]].tolist(), tol, float(tol_eff[i]), float(shift_noise[i]))
            if pairs is not None and sum(k for _, k in pairs) >= n:
                vals[i] = np.sort(np.concatenate([np.full(k, x) for x, k in pairs]))[:n]
                found[i] = True
        out[keep], ok[keep] = vals, found
        # the deflated rows collapse with their own coefficients, the others with their recentred ones
        near = np.flatnonzero(ok)
        near = near[(np.diff(out[near], axis=1) < tol ** (1.0 / 2)).any(axis=1)]
        if near.size:
            out[near] = hp._collapse_clusters(out[near], tol, c[near])
        out[keep] += mu[:, None]
    return out, ok


def chamber_block(group, spectra: np.ndarray, parity: np.ndarray) -> inv.OrbitBlock:
    n = spectra.shape[1]
    keys = np.round(spectra, inv._DEDUP_DECIMALS)
    new_run = keys[:, 1:] != keys[:, :-1]
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
    distinct, inverse = np.unique(np.concatenate(traits, axis=1), axis=0, return_inverse=True)
    sizes = []
    for row in distinct.tolist():
        size = math.factorial(n) // math.prod(row[:n])
        if group.kind != "A":
            size = size * 2 ** row[n] // (2 if row[n + 1] else 1)
        sizes.append(size)
    sizes = np.array(sizes, dtype=object)[inverse.reshape(-1)]
    return inv.OrbitBlock(group, spectra, parity, sizes, dist, np.max(np.abs(spectra), axis=1))


def listed_nearest(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(points[:, None, :, :] - queries[:, :, None, :], axis=3)
    return np.argmin(np.where(np.isnan(d), np.inf, d), axis=2)


def nearest(kind: str, spectra: np.ndarray, parity, rows: np.ndarray) -> np.ndarray:
    """invariants._nearest."""
    m, n = rows.shape
    at = np.arange(m)[:, None]
    v = np.empty_like(rows)
    if kind == "A":
        v[at, np.argsort(rows, axis=1, kind="stable")] = spectra
        return v
    idx = np.arange(n)
    neg = ~(rows > 0.0)
    order = np.lexsort((np.where(neg, -idx, idx), neg, np.abs(rows)), axis=1)
    v[at, order] = spectra
    v = np.where(neg, -v, v) + 0.0
    if kind == "D":
        odd = np.logical_xor.reduce(v < 0.0, axis=1)
        wrong = np.flatnonzero(np.where(odd, parity > 0.0, parity < 0.0))
        j = order[wrong, 0]
        v[wrong, j] = -v[wrong, j]
    return v


def block_nearest(block: inv.OrbitBlock, p: np.ndarray) -> np.ndarray:
    """OrbitBlock.nearest."""
    p = np.asarray(p, dtype=float)
    if block.group.kind == "I2":
        at = listed_nearest(block.spectra, p.reshape(len(block), -1, 2))
        return np.take_along_axis(block.spectra, at[:, :, None], axis=1).reshape(p.shape)
    each = p[0].size // p.shape[-1]
    spectra, parity = np.repeat(block.spectra, each, axis=0), np.repeat(block.parity, each)
    return nearest(block.group.kind, spectra, parity, p.reshape(spectra.shape)).reshape(p.shape)


@np.errstate(over="ignore")
def track(orbits: inv.OrbitBlock, start: np.ndarray) -> np.ndarray:
    """lifting._track, one sample at a time."""
    vals = np.empty((len(orbits),) + start.shape)
    vals[0] = block_nearest(orbits[:1], start[None])[0]
    for k in range(1, len(orbits)):
        pred = vals[0] if k == 1 else 2.0 * vals[k - 1] - vals[k - 2]
        vals[k] = block_nearest(orbits[k : k + 1], pred[None])[0]
    return vals


def estimate_window(tpts, orbits, center_t, eps, left_anchor):
    """lifting._estimate_window."""
    w = lf._SIDE_WINDOW
    lo, hi = risky_run(tpts, lf._risky(orbits, eps), center_t)
    if lo - w < 0 or hi + 1 + 2 >= tpts.size:
        return None
    left_vals = track(orbits[lo - w : lo], left_anchor)
    ls, lq = fit_side(tpts[lo - w : lo] - center_t, left_vals)
    dt = float(tpts[hi + 1]) - float(tpts[lo - 1])
    predicted = left_vals[-1] + dt * ls
    exit_orbit = orbits[hi + 1]
    cands, ranks, cost = exit_candidates(exit_orbit, predicted, dt)
    right = slice(hi + 1, min(hi + 1 + w, tpts.size))
    tracks = track(orbits[right], cands)
    cs, cq = fit_side(tpts[right] - center_t, tracks.reshape(tracks.shape[0], -1))
    return lf._WindowEstimate(
        ls, lq, exit_orbit.size, cands, ranks, cost,
        cs.reshape(cands.shape), cq.reshape(cands.shape), (lo, hi),
    )


def dihedral_block(map_, rows: np.ndarray, tol: float) -> inv.OrbitBlock:
    """invariants._dihedral_block on rows that all have an orbit."""
    m = map_.group.param
    scale = 1.0 + np.max(np.abs(rows), axis=1)
    r2, target = rows[:, 0], rows[:, 1]
    r = np.sqrt(np.maximum(r2, 0.0))
    origin = r <= np.array([(tol * s) ** 0.5 for s in scale.tolist()])
    origin &= np.abs(target) <= 10.0 * tol * scale
    rm = np.array([inv._pow(x, m) for x in r.tolist()])
    excess = np.abs(target) - rm
    on_mirror = origin | (excess >= -tol * rm)
    cosine = np.where(on_mirror, np.copysign(1.0, target), target / np.where(on_mirror, 1.0, rm))
    theta = np.array([math.acos(c) for c in cosine.tolist()]) / m
    angles = theta[:, None] + 2.0 * math.pi * np.arange(m) / m
    pts = r[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=2)
    pts[np.abs(pts) <= 1e-15 * r[:, None, None]] = 0.0
    pts[origin] = 0.0
    pts = np.concatenate([pts, pts * [1.0, -1.0]], axis=1)
    count = np.where(origin, 1, np.where(on_mirror, m, 2 * m))
    live = np.arange(2 * m) < count[:, None]
    keys = np.where(live[:, :, None], np.round(pts, inv._DEDUP_DECIMALS), np.inf)
    order = np.lexsort((keys[:, :, 1], keys[:, :, 0]), axis=1)
    keys = np.take_along_axis(keys, order[:, :, None], axis=1)
    pts = np.take_along_axis(pts, order[:, :, None], axis=1)
    live = np.take_along_axis(live, order, axis=1)
    live[:, 1:] &= (keys[:, 1:] != keys[:, :-1]).any(axis=2)
    pts = np.take_along_axis(pts, np.argsort(~live, axis=1, kind="stable")[:, :, None], axis=1)
    sizes = live.sum(axis=1)
    pts[np.arange(2 * m) >= sizes[:, None]] = np.nan
    order = np.argsort(np.arctan2(pts[:, :, 1], pts[:, :, 0]), axis=1)
    ring = np.take_along_axis(pts, order[:, :, None], axis=1)
    after = (np.arange(1, 2 * m + 1) % sizes[:, None])[:, :, None]
    d = ring - np.take_along_axis(ring, after, axis=1)
    least = np.fmin.reduce(np.sqrt(d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1]), axis=1)
    least[sizes == 1] = np.inf
    return inv.OrbitBlock(map_.group, pts, np.zeros(len(rows)), np.array(sizes.tolist(), dtype=object),
                          least, np.nanmax(np.abs(pts), axis=(1, 2)))


def exit_candidates(orbit, predicted: np.ndarray, dt: float):
    found = {}
    best = np.inf
    fresh = orbit.nearest(predicted)[None, :]
    while fresh.size:
        new = []
        for p in np.concatenate([fresh, orbit.neighbours(fresh)]):
            key = tuple(p.tolist())
            if key not in found:
                found[key] = p
                new.append(p)
        if not new:
            break
        pts = np.array(new)
        cost = np.linalg.norm(pts - predicted, axis=1) / dt
        best = min(best, float(cost.min()))
        fresh = pts[cost <= best + lf._TIE_TOL]
    by_rank = {}
    for r, p in zip(orbit.ranks(np.array(list(found.values()))), found.values()):
        by_rank.setdefault(r, p)
    ranks = sorted(by_rank)
    pts = np.array([by_rank[r] for r in ranks])
    return pts, ranks, np.linalg.norm(pts - predicted, axis=1) / dt


def polish_brackets(c: np.ndarray, dc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """hyperpoly._polish_brackets, shrinking its arrays at every step."""
    def horner(p, x):
        out = p[:, 0]
        for j in range(1, p.shape[1]):
            out = out * x + p[:, j]
        return out

    with np.errstate(all="ignore"):
        neg = horner(c, lo) < 0.0
        x, move = 0.5 * (lo + hi), hi - lo
        out, live = np.empty_like(x), np.arange(x.size)
        while live.size >= hp._ARRAY_BRACKETS:
            fx = horner(c, x)
            root = fx == 0.0
            side = (fx < 0.0) == neg
            lo, hi = np.where(side, x, lo), np.where(side, hi, x)
            step = fx / horner(dc, x)
            x_new, size = x - step, np.abs(step)
            small = size <= 2.0 * hp._EPS * np.fmax(1.0, np.abs(x))
            newton = (lo < x_new) & (x_new < hi) & (size <= 0.5 * np.abs(move))
            mid = 0.5 * (lo + hi)
            flat = ~(small | newton) & ((mid <= lo) | (mid >= hi))
            out[live] = np.where(root | flat, x, x_new)
            x_new = np.where(newton, x_new, mid)
            move, x = x_new - x, x_new
            go = ~(root | small | flat)
            if not go.all():
                live, c, dc, lo, hi, x, move, neg = (
                    live[go], c[go], dc[go], lo[go], hi[go], x[go], move[go], neg[go])
    out[live] = [hp._polish_simple(*state) for state in zip(
        c.tolist(), dc.tolist(), lo.tolist(), hi.tolist(), x.tolist(), move.tolist(), neg.tolist())]
    return out
