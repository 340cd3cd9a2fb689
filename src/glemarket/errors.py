"""Exception taxonomy shared by every module.

The CLI maps these onto process exit codes: bad input 2, unsupported
capability 3, accuracy/convergence failures 4.
"""


class GleMarketError(Exception):
    """Base class for package errors."""


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


class AccuracyError(GleMarketError):
    """Result could not be produced at the requested accuracy.

    ``achieved`` holds the best error estimate actually reached.
    """

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

    def __init__(self, message, worst=None):
        if worst is not None:
            message = f"{message} (worst eigenvalue {worst:.6e})"
        super().__init__(message)
        self.worst = worst
