"""Shared exception types.

Each error carries the process exit code the command-line front end maps it
to: 2 for rejected input, 3 for exhausted horizons/budgets, 4 for unknown
catalog identifiers.
"""


class FractalDimError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(FractalDimError):
    """Malformed or rejected input: bad JSON, unknown keys, invalid values."""

    exit_code = 2


class OutOfRangeError(InputError):
    """A digit position or index lies outside its valid range."""


class HorizonExceededError(FractalDimError):
    """A sequence index or digit budget was exhausted."""

    exit_code = 3

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class BudgetExceededError(FractalDimError):
    """A fixed budget on work or size was exceeded."""

    exit_code = 3


class InfeasibleDeltaError(InputError):
    """The requested interval diameter bound admits no partition."""


class DegenerateGridError(InputError):
    """Two-grid comparison needs two distinct scales."""


class UnknownCatalogError(FractalDimError):
    """Requested an identifier missing from the fixed catalog."""

    exit_code = 4
