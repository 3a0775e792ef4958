"""Test polynomials built from their roots."""

import numpy as np

from orbitlift import hyperpoly as hp


def from_roots(root_values) -> hp.MonicHyperbolic:
    """Polynomial with the given real roots (Vieta: a_j = e_j(roots))."""
    vals = np.sort(np.asarray(root_values, dtype=float).reshape(-1))
    if vals.size == 0:
        raise ValueError("at least one root required")
    if not np.all(np.isfinite(vals)):
        raise ValueError("roots must be finite")
    return hp.MonicHyperbolic(hp._elementary(vals.tolist()))
