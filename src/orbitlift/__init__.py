"""Differentiable root selection for hyperbolic polynomial curves and curve
lifting over the orbit maps of finite reflection groups, with empirical
regularity certification."""

from . import (
    catalog,
    curvedsl,
    errors,
    hyperpoly,
    invariants,
    lifting,
    regcheck,
    rootflow,
)

__version__ = "0.1.0"

__all__ = [
    "catalog",
    "curvedsl",
    "errors",
    "hyperpoly",
    "invariants",
    "lifting",
    "regcheck",
    "rootflow",
    "__version__",
]
