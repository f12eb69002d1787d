"""Exception types shared across the package."""


class FractalHullError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(FractalHullError):
    """Operands or inputs have incompatible dimensions."""


class UnsupportedDimension(FractalHullError):
    """Ambient dimension outside the supported range 1..3."""


class ModeMismatch(FractalHullError):
    """A value of the wrong arithmetic mode entered an exact computation."""


class SingularMatrix(FractalHullError):
    """Linear solve hit a singular (or numerically singular) matrix."""


class ModelValidationError(FractalHullError):
    """Model input rejected during validation."""


class NonSingularityFailed(ModelValidationError):
    """The map matrix is singular."""


class NotContractingFailed(ModelValidationError):
    """The map matrix has spectral radius >= 1."""


class DegeneratePolytope(FractalHullError):
    """Operation requires a full-dimensional polytope."""


class EnumerationBudgetExceeded(FractalHullError):
    """Brute-force enumeration would exceed the configured budget."""


class ExtractionFailure(FractalHullError):
    """The address shift map of the later step of a stable pair is not a bijection."""
