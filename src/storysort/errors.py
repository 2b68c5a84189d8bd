"""Exception types shared across the package.

All domain errors derive from StorySortError and, where it makes sense,
from the matching builtin (ValueError etc.) so generic callers can still
catch them the usual way.
"""


class StorySortError(Exception):
    """Base class for every error raised by this package."""


class SizeError(StorySortError, ValueError):
    """A count is outside its supported range."""


class EnumerationCapError(SizeError):
    """Exhaustive enumeration was requested beyond the hard cap (n > 8)."""


class DimensionError(StorySortError, ValueError):
    """Two related objects have mismatched sizes or shapes."""


class ValidationError(StorySortError, ValueError):
    """An object violates a structural invariant."""


class ParseError(ValidationError):
    """A file record could not be parsed."""


class StoryError(ValidationError):
    """One story of a batch violates an invariant; row is its index in the batch."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class FeatureError(ValidationError):
    """Requested features are missing from an element."""


class EmptyInputError(StorySortError, ValueError):
    """An operation that needs at least one item received none."""


class NumericError(StorySortError, ArithmeticError):
    """A numeric computation produced non-finite values."""


class MemberError(StorySortError, RuntimeError):
    """An ensemble member failed; the message names the member."""


class UsageError(StorySortError):
    """Invalid command-line usage. The CLI maps this to exit code 2."""
