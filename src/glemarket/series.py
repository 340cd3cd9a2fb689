"""Shared sampled-data containers: ACFs, kernels, spectra, path ensembles.

Conventions used throughout the package:

* ACFs are stored normalized, ``values[0] == 1``, with the physical
  amplitude kept separately in ``variance`` (the equal-time second moment).
* Kernels are dimensionful (1/time^2): the memory kernel of the evolution
  equation is the force ACF divided by the observable's variance.
* All series share one uniform lag/time step ``h``.

``_five_smooth`` picks the FFT length of every transform over a series:
the GLE march's products, the stationary sampler's grid and the ACF
estimator.

The ACF estimator, ``ensemble_acf``, lives here too (it moved from
``estimate``, which re-exports it): ``simulate``'s summary and the fitter
both read it.  It is the biased (divide-by-N) estimator, which keeps the
estimate positive semidefinite as a sequence.  It transforms the paths in
blocks of _ACF_BLOCK, one batched rfft/irfft per block, so its transient
memory does not grow with the path count; the FFT length is the smallest
5-smooth L >= n + max_lag, the shortest at which the circular correlation
wraps no product into a lag <= max_lag.  One zero-padded input buffer and
one output buffer serve every block of a call: a block's paths overwrite
the head of each input row and the zero tail is never written, which
takes the same bits as letting rfft pad each block.  ``_usable_lags`` is
the one rule for how many lags a path length supports.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeriesError, InputError, check_count, check_positive

# The Boltzmann-class ACF genuinely overshoots 1 near lag zero (peak ~1.213
# around 0.2 tau_R; its force spectrum is not positive), so the plausibility
# bound is deliberately loose.
ACF_OVERSHOOT_LIMIT = 1.35
# paths per batched FFT in ensemble_acf: its transient memory is
# O(_ACF_BLOCK * L) whatever the path count
_ACF_BLOCK = 128


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


def _five_smooth(n):
    """Smallest 2^i 3^j 5^k >= n: an FFT length pocketfft factors cheaply."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd times the least power of two reaching n
            best = min(best, odd << ((n - 1) // odd).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def ensemble_acf(ensemble, max_lag):
    """Ensemble-mean ACF with standard errors.

    Averages the per-path biased autocovariance, normalizes by the mean
    lag-0 value, and returns (AcfSeries, se) where se holds the standard
    error of each normalized mean lag.
    """
    check_ensemble(ensemble, "ensemble")
    max_lag = check_count(max_lag, "max_lag", 1)
    if ensemble.n_steps < 4 * max_lag:
        raise InputError(
            f"paths of length {ensemble.n_steps} are too short for "
            f"max_lag={max_lag} (need >= 4*max_lag samples)"
        )
    # a circular correlation of length L >= n + max_lag wraps no product
    # into lags <= max_lag
    n = ensemble.n_steps
    size = _five_smooth(n + max_lag)
    rows = np.empty((ensemble.n_paths, max_lag + 1))
    # the block's paths fill [:, :n] and the zero tail [n, size) is never
    # written, so the input is padded once, not by every rfft
    block = min(ensemble.n_paths, _ACF_BLOCK)
    padded = np.zeros((block, size))
    acov = np.empty((block, size))
    for lo in range(0, ensemble.n_paths, _ACF_BLOCK):
        paths = ensemble.paths[lo : lo + _ACF_BLOCK]
        m = paths.shape[0]
        padded[:m, :n] = paths
        spec = np.fft.rfft(padded[:m], axis=1)
        # spec * conj(spec) as written: an in-place product changes the bits
        np.fft.irfft(spec * np.conj(spec), size, axis=1, out=acov[:m])
        np.divide(acov[:m, : max_lag + 1], n, out=rows[lo : lo + m])
    mean = rows.mean(axis=0)
    if mean[0] <= 0.0:
        raise DegenerateSeriesError("ensemble has zero variance")
    if ensemble.n_paths > 1:
        se = rows.std(axis=0, ddof=1) / np.sqrt(ensemble.n_paths)
    else:
        se = np.zeros(max_lag + 1)
    acf = AcfSeries(h=ensemble.h, values=mean / mean[0], variance=mean[0])
    return acf, se / mean[0]


def _usable_lags(n_steps, max_lag):
    """ACF lags that n_steps samples support under a max_lag cap: ensemble_acf
    needs n_steps >= 4 * max_lag."""
    return min(n_steps // 4, max_lag)
