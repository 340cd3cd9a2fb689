"""Stationary Gaussian noise synthesis with a prescribed autocorrelation.

The colored random force driving the evolution equation is generated by
circulant embedding: the target ACF (or a target spectral density) is
extended evenly to a circulant covariance, whose eigenvalues are obtained
by one FFT; multiplying independent complex normals by the eigenvalue
square roots and transforming back yields paths whose covariance is the
target exactly, in distribution.  Small negative eigenvalues (within
EIGENVALUE_CLAMP of the largest) are clamped to zero; larger ones trigger
one retry at doubled embedding length, then a spectral-positivity error
naming the worst eigenvalue.

Reproducibility: every path is drawn from its own counter-based substream,
``path_stream(master_seed, lane, path_index)``, that is
``SeedSequence(master_seed, spawn_key=(LANES[lane], path_index))``, so the
same request always reproduces the same ensemble bit for bit, any subset of
paths can be regenerated in isolation, and parallel generation cannot
reorder results.  ``LANES`` is the one table of lane numbers: each kind of
draw in the package (colored force, Wiener increments, white returns,
spectral-line phases) has its own lane, so no two kinds share a stream
even under one master seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SpectralPositivityError
from .series import AcfSeries, PathEnsemble, SpectralDensity

EIGENVALUE_CLAMP = 1e-8  # relative to the largest circulant eigenvalue
LANES = {"colored-force": 0, "wiener": 1, "white-return": 2, "spectral-line": 3}
_MAX_SEED = 2**64 - 1


def path_stream(seed, lane, i):
    """Random generator of path ``i`` on the named seed lane."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(LANES[lane], i)))


def _check_seed(seed):
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)):
        raise InputError("seed must be an integer")
    if not (0 <= int(seed) <= _MAX_SEED):
        raise InputError("seed must fit in 64 bits")
    return int(seed)


def _check_counts(n_steps, n_paths):
    if not (isinstance(n_steps, (int, np.integer)) and n_steps >= 1):
        raise InputError("n_steps must be a positive integer")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise InputError("n_paths must be an integer >= 1")
    return int(n_steps), int(n_paths)


@dataclass(frozen=True)
class NoiseRequest:
    """Everything needed to synthesize one reproducible colored ensemble.

    Exactly one of ``target_acf`` (force units carried by its variance
    field) and ``target_spectrum`` must be given.  ``h`` defaults to the
    target ACF's own step and must match it when both are supplied;
    a spectrum target always needs an explicit ``h``.
    """

    n_steps: int
    n_paths: int
    seed: int
    target_acf: AcfSeries | None = None
    target_spectrum: SpectralDensity | None = None
    h: float | None = None

    def __post_init__(self):
        n_steps, n_paths = _check_counts(self.n_steps, self.n_paths)
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "n_paths", n_paths)
        if n_steps < 2 or n_steps & (n_steps - 1):
            raise InputError("n_steps must be a power of two (>= 2)")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if (self.target_acf is None) == (self.target_spectrum is None):
            raise InputError("give exactly one of target_acf and target_spectrum")
        if self.target_acf is not None:
            if not isinstance(self.target_acf, AcfSeries):
                raise InputError("target_acf must be an AcfSeries")
            if self.h is None:
                object.__setattr__(self, "h", self.target_acf.h)
            elif abs(self.h - self.target_acf.h) > 1e-12 * self.target_acf.h:
                raise InputError("h disagrees with the target ACF's step")
        else:
            if not isinstance(self.target_spectrum, SpectralDensity):
                raise InputError("target_spectrum must be a SpectralDensity")
            if self.h is None:
                raise InputError("a spectrum target needs an explicit h")
        if not (np.isfinite(self.h) and self.h > 0):
            raise InputError("h must be positive and finite")


def circulant_spectrum(request, embed_len=None):
    """Eigenvalues of the even-extension circulant the request embeds in.

    ``embed_len`` is the half length L (defaults to n_steps); the circulant
    itself has order 2L.  Exposed for diagnostics and spectral tests.
    """
    L = int(embed_len) if embed_len is not None else request.n_steps
    if request.target_acf is not None:
        rho = request.target_acf.variance * request.target_acf.values
        if rho.size < L + 1:
            rho = np.concatenate([rho, np.zeros(L + 1 - rho.size)])
        circ = np.concatenate([rho[: L + 1], rho[L - 1 : 0 : -1]])
        return np.fft.fft(circ).real
    # spectrum route: the order-2L circulant eigenvalues converge to
    # S(omega_k)/h on the rfft frequencies omega_k = pi k / (L h)
    sd = request.target_spectrum
    omega = np.pi * np.arange(L + 1) / (L * request.h)
    lam_half = np.interp(omega, sd.omega, sd.values, right=0.0) / request.h
    return np.concatenate([lam_half, lam_half[L - 1 : 0 : -1]])


def _embedding(request):
    L = request.n_steps
    if request.target_acf is not None and len(request.target_acf) < L + 1:
        raise InputError(
            "target ACF must cover n_steps + 1 lags for an exact embedding"
        )
    worst = 0.0
    for half_len in (L, 2 * L):
        lam = circulant_spectrum(request, half_len)
        top = lam.max()
        if top <= 0:
            raise SpectralPositivityError(
                "target has no positive spectral mass", worst=float(lam.min())
            )
        worst = float(lam.min())
        if worst >= -EIGENVALUE_CLAMP * top:
            return np.maximum(lam, 0.0)
    raise SpectralPositivityError(
        f"circulant embedding is indefinite (worst eigenvalue {worst:.6e} "
        f"after doubling)",
        worst=worst,
    )


def generate_colored(request):
    """Synthesize Gaussian paths whose covariance is the request's target.

    Returns a PathEnsemble of kind "force" with full seed lineage.
    """
    if not isinstance(request, NoiseRequest):
        raise InputError("request must be a NoiseRequest")
    lam = _embedding(request)
    m = lam.size
    # Re(FFT(s * W)) with complex-normal W has covariance (m s^2) evaluated on
    # the circulant; s = sqrt(lam / m) reproduces the target autocovariance.
    scale = np.sqrt(lam / m)
    n = request.n_steps
    paths = np.empty((request.n_paths, n))
    for i in range(request.n_paths):
        rng = path_stream(request.seed, "colored-force", i)
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        paths[i] = np.fft.fft(scale * w)[:n].real
    return PathEnsemble(
        h=request.h,
        paths=paths,
        kind="force",
        master_seed=request.seed,
        stream_indices=tuple(range(request.n_paths)),
    )


def generate_wiener_increments(n_steps, h, n_paths, seed):
    """I.i.d. Gaussian increments, mean 0 and variance h per step."""
    n_steps, n_paths = _check_counts(n_steps, n_paths)
    seed = _check_seed(seed)
    if not (np.isfinite(h) and h > 0):
        raise InputError("h must be positive and finite")
    root_h = np.sqrt(h)
    paths = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        paths[i] = root_h * path_stream(seed, "wiener", i).standard_normal(n_steps)
    return PathEnsemble(
        h=h,
        paths=paths,
        kind="wiener-increment",
        master_seed=seed,
        stream_indices=tuple(range(n_paths)),
    )
