"""Checks on a finished lift that only the tests run: its residual against
the curve, and the lift moved by a group element with its evidence
recomputed (equivariance)."""

from dataclasses import replace

import numpy as np

from orbitlift import lifting


def _residual(map_, values, grid, curve) -> float:
    return float(np.max(np.abs(map_.evaluate(values) - curve.evaluate(grid.points))))


def verify_lift(map_, lift, curve) -> float:
    """sup_t |sigma(lift(t)) - c(t)|, absolute, so it grows with the
    coefficients: a valid lift stays below 10*tol*(1 + max|c|), the max
    over the grid."""
    return _residual(map_, lift.values, lift.grid, curve)


def transformed_lift(map_, lift, element, curve):
    """The lift moved by a fixed group element, with residual and regularity
    evidence recomputed from scratch."""
    values = lift.values @ element.T
    levels = len(lift.reports[0].levels) if lift.reports else 0
    reports, max_step = lifting._evidence(values, lift.grid, levels)
    residual = _residual(map_, values, lift.grid, curve)
    return replace(lift, values=values, residual=residual, reports=reports, max_step=max_step)
