"""Shared sampled-data containers: ACFs, kernels, spectra, path ensembles.

Conventions used throughout the package:

* ACFs are stored normalized, ``values[0] == 1``, with the physical
  amplitude kept separately in ``variance`` (the equal-time second moment).
* Kernels are dimensionful (1/time^2): the memory kernel of the evolution
  equation is the force ACF divided by the observable's variance.
* All series share one uniform lag/time step ``h``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_positive

# The Boltzmann-class ACF genuinely overshoots 1 near lag zero (peak ~1.213
# around 0.2 tau_R; its force spectrum is not positive), so the plausibility
# bound is deliberately loose.
ACF_OVERSHOOT_LIMIT = 1.35


def _as_1d(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class AcfSeries:
    """Normalized autocorrelation samples c(0), c(h), ..., c(N h).

    Parameters
    ----------
    h : float
        Lag step, in the declared time unit.
    values : ndarray
        Normalized ACF values; values[0] must equal 1 within 1e-9.
    variance : float
        Equal-time second moment that restores physical units.
    """

    h: float
    values: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        check_positive(self.h, "AcfSeries step h")
        check_positive(self.variance, "AcfSeries variance")
        arr = _as_1d(self.values, "AcfSeries values")
        if abs(arr[0] - 1.0) > 1e-9:
            raise InputError("AcfSeries values[0] must be 1 (normalized)")
        if np.max(np.abs(arr)) > ACF_OVERSHOOT_LIMIT:
            raise InputError("AcfSeries values exceed the plausible ACF bound")
        object.__setattr__(self, "values", arr)

    @property
    def lags(self):
        return self.h * np.arange(self.values.size)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class KernelSeries:
    """Memory-kernel samples k(0), k(h), ..., k(N h), units 1/time^2."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        check_positive(self.h, "KernelSeries step h")
        object.__setattr__(self, "values", _as_1d(self.values, "KernelSeries values"))

    @property
    def lags(self):
        return self.h * np.arange(self.values.size)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class SpectralDensity:
    """One-sided spectral density samples S(omega) on a frequency grid.

    Normalization: S(omega) = 2 Re image(i omega), so that
    integral of S over omega >= 0 divided by pi recovers the variance.
    """

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        om = _as_1d(self.omega, "SpectralDensity omega")
        vals = _as_1d(self.values, "SpectralDensity values")
        if om.size != vals.size:
            raise InputError("SpectralDensity grids must have equal length")
        if np.any(np.diff(om) <= 0) or om[0] < 0:
            raise InputError("SpectralDensity omega grid must be nonnegative and increasing")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class PathEnsemble:
    """Bundle of equally sampled stochastic paths plus its seed lineage.

    ``paths`` has shape (n_paths, n_steps).  ``master_seed`` and
    ``stream_indices`` record exactly which counter-based substreams
    produced each row, so any subset can be regenerated bit for bit.  A
    seeded ensemble given no indices is a fresh draw, rows 0 .. n_paths - 1
    of its seed; an unseeded one keeps no indices.  Transforms build their
    output with ``dataclasses.replace``, so it keeps its input's ``h`` and
    lineage.
    """

    h: float
    paths: np.ndarray
    kind: str = "return-rate"
    master_seed: int | None = None
    stream_indices: tuple = field(default_factory=tuple)

    def __post_init__(self):
        check_positive(self.h, "PathEnsemble step h")
        arr = np.asarray(self.paths, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise InputError("PathEnsemble paths must be a nonempty 2-d array")
        object.__setattr__(self, "paths", arr)
        if self.master_seed is not None and not self.stream_indices:
            object.__setattr__(self, "stream_indices", tuple(range(arr.shape[0])))
        if self.stream_indices and len(self.stream_indices) != arr.shape[0]:
            raise InputError("stream_indices length must match the number of paths")

    @property
    def n_paths(self):
        return self.paths.shape[0]

    @property
    def n_steps(self):
        return self.paths.shape[1]

    @property
    def times(self):
        return self.h * np.arange(self.n_steps)


def check_ensemble(value, name, kind=None):
    """InputError unless ``value`` is a PathEnsemble, of ``kind`` if given."""
    if not isinstance(value, PathEnsemble):
        raise InputError(f"{name} must be a PathEnsemble")
    if kind is not None and value.kind != kind:
        raise InputError(f"{name} must have kind {kind!r}, got {value.kind!r}")
