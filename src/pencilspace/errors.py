"""Exception types shared across the package."""

from __future__ import annotations


class ShapeError(ValueError):
    """Matrix or block dimensions are incompatible with the operation."""


class DegreeError(ValueError):
    """A polynomial does not have the degree the operation requires."""


class ZeroAnsatzError(ValueError):
    """An operation requiring a nonzero ansatz vector received v = 0."""


class HypothesisViolatedError(ValueError):
    """The block hypotheses of a certificate construction do not hold.

    Raised when the pencil lacks the required ansatz, Y21/Y31 are nonzero
    or the 2n x 2n Z block is singular; callers may fall back to the
    determinant-ratio certificate.
    """


class ConditionUnsatisfiableError(RuntimeError):
    """No admissible Z blocks found within the re-draw budget."""


class NonGenericSystemError(RuntimeError):
    """The system has infinitely many common zeros (zero determinant or
    identically vanishing resultant), so no finite spectrum exists."""


class ConvergenceError(RuntimeError):
    """Root iteration did not converge within the iteration cap."""


class ParseError(ValueError):
    """An input file does not conform to the expected schema.

    ``location`` names the offending field for diagnostics.
    """

    def __init__(self, message: str, location: str = ""):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location
