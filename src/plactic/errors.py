"""Exception types shared across the package."""


class PlacticError(Exception):
    pass


class TableauError(PlacticError, ValueError):
    """Invalid tableau input. ``cell`` is the offending (row, col), 1-based."""

    def __init__(self, message, cell=None):
        super().__init__(message if cell is None else f"{message} at cell {cell}")
        self.cell = cell


class RowNotWeaklyIncreasingError(TableauError):
    pass


class ColumnNotStrictlyIncreasingError(TableauError):
    pass


class BadShapeError(TableauError):
    pass


class TableauParseError(TableauError):
    """Text that is not a tableau: an unbracketed row or a non-integer entry."""


class WordParseError(PlacticError, ValueError):
    """Text, a sequence or a letter passed on its own that is not a word:
    an empty, non-integer or non-positive letter."""


class ShapeMismatchError(PlacticError, ValueError):
    pass


class QNotStandardError(PlacticError, ValueError):
    pass


class NotAnInnerCornerError(PlacticError, ValueError):
    pass


class BadParameterError(PlacticError, ValueError):
    """A numeric argument out of its range: a negative length or alphabet,
    a non-positive bound, or a length too short for the word."""


class BudgetExceededError(PlacticError, RuntimeError):
    """An enumeration would examine more words than the configured budget."""


class UnsupportedFamilyError(PlacticError, ValueError):
    """No closed-form counting rule is wired up for this word."""


class ValidationFailedError(PlacticError, RuntimeError):
    """An interpolated polynomial failed its extra validation sample."""


class MaxEntryExceedsMError(PlacticError, ValueError):
    pass
