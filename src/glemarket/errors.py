"""Exception taxonomy and argument checks shared by every module.

Each class carries the process exit code the CLI returns for it as
``exit_code``: bad input 2 (the base class and every input or domain
error), unsupported capability 3, accuracy, convergence and spectral
positivity failures 4.

The checks hold the package's one rule for each kind of scalar argument:
a physical scale (time, variance, step, tolerance) is a finite number
above zero, a count is an integer at or above its minimum, and a seed is
an integer in [0, 2^64).
"""

import numpy as np


class GleMarketError(Exception):
    """Base class for package errors."""

    exit_code = 2


class DomainError(GleMarketError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InputError(GleMarketError, ValueError):
    """Structurally invalid input (shapes, grids, parameter combinations)."""


class ParseError(InputError):
    """Malformed file content; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DegenerateSeriesError(InputError):
    """Series has no usable variance (constant input)."""


class CapabilityError(GleMarketError):
    """Requested operation is documented as unsupported for this model."""

    exit_code = 3


class AccuracyError(GleMarketError):
    """Result could not be produced at the requested accuracy.

    ``achieved`` holds the best error estimate actually reached.
    """

    exit_code = 4

    def __init__(self, message, achieved=None):
        if achieved is not None:
            message = f"{message} (achieved {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


class SolverError(AccuracyError):
    """Iterative solver exhausted its budget; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message, achieved=residual)
        self.residual = residual


class SpectralPositivityError(GleMarketError):
    """Target spectrum is not positive semidefinite beyond tolerance.

    ``worst`` holds the most negative eigenvalue, or spectral density
    value, found.
    """

    exit_code = 4

    def __init__(self, message, worst=None):
        if worst is not None:
            message = f"{message} (worst eigenvalue {worst:.6e})"
        super().__init__(message)
        self.worst = worst


def check_positive(value, name, error=InputError):
    """``value``, if it is a finite number above zero; else ``error``."""
    if value is None or not (np.isfinite(value) and value > 0):
        raise error(f"{name} must be positive and finite")
    return value


def check_count(value, name, minimum):
    """``value`` as an int, if it is an integer >= ``minimum``; else InputError."""
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer")
    if value < minimum:
        raise InputError(f"{name} must be >= {minimum}")
    return int(value)


def check_seed(seed):
    """``seed`` as an int, if it is an integer (not a bool) in [0, 2^64);
    else InputError."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integer and 0 <= int(seed) < 2**64):
        raise InputError("seed must be an integer in [0, 2^64)")
    return int(seed)
