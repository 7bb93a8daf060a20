"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OrientationError(ValueError):
    """A torus basis is negatively oriented where a positive one is required."""


class InfiniteCoefficientError(ValueError):
    """The surgery coefficient is infinite (complete cusp, tube radius = inf)."""


class UncertifiableError(ValueError):
    """The normalized length is too small for the certified envelope to apply."""


class ConvergenceError(ArithmeticError):
    """An iteration stopped before meeting its tolerance."""
