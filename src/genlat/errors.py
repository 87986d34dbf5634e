"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(LatticeError):
    """Malformed spec string, class string or input file."""


class BadParameters(LatticeError):
    """Arguments outside the documented domain."""


class ZeroClass(LatticeError):
    """The zero class was passed where a non-zero class is required."""


class LatticeMismatch(LatticeError):
    """Operands live over different lattices."""


class NotAnIsometry(LatticeError):
    """Matrix fails the Gram-preservation check M^T G M = G."""

    def __init__(self, message: str, entry: tuple[int, int] | None = None):
        super().__init__(message)
        self.entry = entry


class NonIntegralReflection(LatticeError):
    """Reflection in v is not defined over the integers (or v^2 = 0)."""


class BadTransvectionData(LatticeError):
    """(u, v) violates: u isotropic, u.v = 0, v^2 even."""


class NeedTwoHyperbolicPlanes(LatticeError):
    """Reduction needs at least two hyperbolic planes in the acting part."""


class NotOrthogonalToK(LatticeError):
    """Class is not orthogonal to the canonical class."""


class PreconditionFailed(LatticeError):
    """A stated operation precondition does not hold."""


class InvariantViolation(LatticeError):
    """An internal postcondition failed; the result would be wrong."""


class BudgetExceeded(LatticeError):
    """A search exceeded its hard state budget."""
