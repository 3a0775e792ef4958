"""Exception types shared across the package."""

from __future__ import annotations


class OrbitLiftError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(OrbitLiftError):
    """Malformed curve expression; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(OrbitLiftError):
    """Expression is invalid on its face, e.g. pow of a negative constant."""


class EvalError(OrbitLiftError):
    """Expression evaluation failed at a specific parameter value."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (at t={t!r})")
        self.t = t


class InvalidWindow(OrbitLiftError):
    """Refinement window is degenerate or outside the grid domain."""


class GridTooCoarse(OrbitLiftError):
    """Not enough samples for the requested difference-quotient order."""


class NotHyperbolic(OrbitLiftError):
    """A certified complex root pair was detected; `index` is the row of a
    batch it was detected in (0 when roots raises it), or None."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class RootSolveFailed(OrbitLiftError):
    """A root solve whose answer fails its backward-error check: the roots
    do not give back the coefficients, so the solve, not the polynomial, is
    at fault.  `index` is the row of a batch it failed in (0 when roots
    raises it), or None."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class NotHyperbolicAt(NotHyperbolic):
    """Curve leaves the hyperbolic locus at parameter t."""

    def __init__(self, t: float):
        super().__init__(f"polynomial not hyperbolic at t={t!r}")
        self.t = t


class UnsupportedParameter(OrbitLiftError):
    """Group family does not admit the requested size parameter."""


class DimensionMismatch(OrbitLiftError):
    """Point dimension does not match the representation space."""


class EnumerationTooLarge(OrbitLiftError):
    """Group order exceeds the exhaustive-enumeration limit."""


class ToleranceViolation(OrbitLiftError):
    """Input sits in the near-miss band (tol, 10*tol) of the image; ill-posed.
    `index` is the row of a block it was found in, or None."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class NotFinite(OrbitLiftError):
    """An orbit-space point that is not finite, or whose solve would
    overflow (D's y_n^2, I2's r^m): outside what the solver handles.
    `index` is the row of a block it was found in, or None."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class NotInImage(OrbitLiftError):
    """An orbit-space point outside the image of the invariant map; `index`
    is the row of a block it was found in, or None."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class NotInImageAt(NotInImage):
    """Orbit-space curve leaves the image of the invariant map at t."""

    def __init__(self, t: float):
        super().__init__(f"curve value not in the orbit-map image at t={t!r}")
        self.t = t
