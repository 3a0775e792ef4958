"""The tests' enumeration oracle: an orbit listed through every element of
its group, which the closed forms of `orbitlift.invariants` are held to."""

import numpy as np


def orbit(group, v) -> list[np.ndarray]:
    """{g.v} over the elements g of group, deduplicated to 1e-10 and sorted
    lexicographically, as `Orbit.points()` lists an orbit."""
    v = np.asarray(v, dtype=float).reshape(-1)
    pts = {}
    for g in group.elements():
        p = g @ v
        pts.setdefault(tuple(np.round(p, 10) + 0.0), p)  # + 0.0: -0.0 keys as 0.0
    return [pts[k] for k in sorted(pts)]
