"""Differentiable root selection for hyperbolic polynomial curves and curve
lifting over the orbit maps of finite reflection groups, with empirical
regularity certification.

Importing the package loads none of its modules; each name in `__all__`
imports its module on first access (PEP 562).
"""

import importlib

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


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
