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
    """Expression evaluation failed at a specific point: `at` maps each
    variable to its value there, such as {"t": 0.0} or {"u": 0.0, "v": -0.5}."""

    def __init__(self, message: str, at: dict[str, float]):
        super().__init__(f"{message} (at {', '.join(f'{k}={v!r}' for k, v in at.items())})")
        self.at = at
        self.t = at.get("t")


class InvalidWindow(OrbitLiftError):
    """A domain that is empty, of infinite length or too short to sample,
    or an empty refinement window."""


class GridTooCoarse(OrbitLiftError):
    """Not enough samples for the requested difference-quotient order."""


class RowError(OrbitLiftError):
    """A row a block solve refuses: `index` is its row in the block (0 when
    a one-row call raises it), or None, and `at(t)` is the same refusal
    naming the row's parameter t instead."""

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index

    def at(self, t: float) -> RowError:
        return type(self)(f"{self} (at t={t!r})")


class NotHyperbolic(RowError):
    """A certified complex root pair was detected."""

    def at(self, t: float) -> RowError:
        return NotHyperbolicAt(t)


class RootSolveFailed(RowError):
    """A root solve whose answer fails its backward-error check: the roots
    do not give back the coefficients, so the solve, not the polynomial, is
    at fault."""


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


class ToleranceViolation(RowError):
    """Input sits in the near-miss band (tol, 10*tol) of the image; ill-posed."""


class NotFinite(RowError):
    """A row that is not finite, or whose solve would overflow (D's y_n^2,
    I2's r^m, a recentred polynomial or its roots): outside what the solver
    handles."""


class NotInImage(RowError):
    """An orbit-space point outside the image of the invariant map."""

    def at(self, t: float) -> RowError:
        return NotInImageAt(t)


class NotInImageAt(NotInImage):
    """Orbit-space curve leaves the image of the invariant map at t."""

    def __init__(self, t: float):
        super().__init__(f"curve value not in the orbit-map image at t={t!r}")
        self.t = t
