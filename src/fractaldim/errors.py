"""Shared exception types, and the input refusals that several modules share.

Each error carries the process exit code the command-line front end maps it
to: 2 for rejected input, 3 for exhausted horizons/budgets, 4 for unknown
catalog identifiers.
"""

import math


class FractalDimError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(FractalDimError):
    """Malformed or rejected input: bad JSON, unknown keys, invalid values."""

    exit_code = 2


def check_tol(tol: float) -> None:
    """Refuse a solver tolerance that is not a positive finite number."""
    if not tol > 0:  # also rejects NaN, which would skip a bisection or leave it unconverged
        raise InputError("tol must be positive")
    if tol == math.inf:  # would skip it, or call every report converged
        raise InputError("tol must be finite")


def check_object(obj, what: str, keys=None) -> None:
    """Refuse a decoded ``what`` that is not a JSON object or, given ``keys``, has another key."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    if keys is not None and (unknown := set(obj) - set(keys)):
        raise InputError(f"unknown keys in {what}: {sorted(unknown)}")


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
