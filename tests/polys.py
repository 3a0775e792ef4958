"""Test polynomials built from their roots, their power-basis coefficients,
their values, and the pointwise sorted roots of a curve."""

import functools

import numpy as np

from orbitlift import hyperpoly as hp
from orbitlift import rootflow as rf
from orbitlift.windows import solved_at


def from_roots(root_values) -> hp.MonicHyperbolic:
    """Polynomial with the given real roots (Vieta: a_j = e_j(roots))."""
    vals = np.sort(np.asarray(root_values, dtype=float).reshape(-1))
    if vals.size == 0:
        raise ValueError("at least one root required")
    if not np.all(np.isfinite(vals)):
        raise ValueError("roots must be finite")
    return hp.MonicHyperbolic(hp._elementary(vals.tolist()))


def full_coeffs(poly: hp.MonicHyperbolic) -> np.ndarray:
    """Descending power-basis coefficients [1, -a1, +a2, ...]."""
    signs = (-1.0) ** np.arange(1, poly.degree + 1)
    return np.concatenate(([1.0], signs * poly.coeffs))


def evaluate(poly: hp.MonicHyperbolic, x):
    """Horner evaluation (hyperpoly._horner_values); accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    return hp._horner_values(full_coeffs(poly)[None, :], x.reshape(1, -1)).reshape(x.shape)


def sorted_branches(curve, grid, tol: float = 1e-10) -> rf.RootBranches:
    """Pointwise sorted roots of the curve; raises NotHyperbolicAt(t)."""
    pts = grid.points
    vals = solved_at(functools.partial(rf._sorted_matrix, tol=tol), curve.evaluate(pts), pts)
    return rf.RootBranches(grid, vals)
