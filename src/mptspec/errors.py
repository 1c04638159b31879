"""Exception types shared across the package."""


class MptError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(MptError, ValueError):
    """Malformed or non-finite input data."""


class InvalidRotationError(InvalidInputError):
    """Matrix supplied as a rotation is not orthogonal."""


class SingularityError(MptError, ValueError):
    """Field evaluation requested at the source point."""


class DomainError(MptError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class NoDominantModeError(MptError, ValueError):
    """Every mode contribution is identically zero."""


class PoleProximityError(MptError, ValueError):
    """Evaluation point too close to a pole for a meaningful value."""


class NumericRangeError(MptError, ArithmeticError):
    """Special-function evaluation left the representable range."""


class PoleSpacingError(MptError, RuntimeError):
    """Root bracketing failed or an extracted pole spectrum is malformed."""


class NoFitError(MptError, ValueError):
    """Least-squares fit cannot be performed on the supplied data."""


class SchemaError(MptError, ValueError):
    """Serialised document does not match the expected schema."""
