"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UncertifiableError(ValueError):
    """The normalized length is too small for the certified envelope to apply."""

