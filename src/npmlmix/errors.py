"""Exception types shared across the package."""


class NpmlError(ValueError):
    """Base of every error the package raises on purpose."""


class InvalidArgumentError(NpmlError):
    """An argument violates an operation's preconditions."""


class ModelViolationError(NpmlError):
    """A model component produced values outside its admissible range."""


class DegenerateMeasureError(NpmlError):
    """An operation would leave a measure with no support."""


class NumericDomainError(NpmlError):
    """A numeric quantity left the domain where the computation is defined."""
