"""Exception types shared across the package."""


class MassCombError(Exception):
    """Base class for all errors raised by this package."""


class EncodingError(MassCombError):
    """Subset index out of range, vector length mismatch, or frame mismatch."""


class ParameterError(MassCombError):
    """An argument value violates an operation's preconditions.

    ``row`` is the position of the first offending assignment when a block
    of assignments is validated at once, and None otherwise.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class TotalConflictError(MassCombError):
    """The combination is saturated: all mass sits on the empty set.

    Raised instead of normalising numerical noise, because near total
    conflict the gap between the conflict mass and 1 can fall below
    machine precision.
    """


class InvalidImageError(MassCombError):
    """An inverse transform input is not the image of any mass function."""


class DecompositionError(MassCombError):
    """Canonical decomposition is undefined (dogmatic input or numeric domain)."""


class InvalidWeightVectorError(MassCombError):
    """Recombining a weight vector did not produce a valid mass function."""


class NotSeparableError(MassCombError):
    """An input cannot be written as a product of plain simple supports."""

    def __init__(self, message: str, subset: int | None = None):
        super().__init__(message)
        self.subset = subset


class ComplexityGuardError(MassCombError):
    """Focal-tuple enumeration would exceed the configured budget."""


class UndefinedGammaError(MassCombError):
    """A per-class scale parameter cannot be derived from the data."""


class ParseError(MassCombError):
    """A mass-function file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
