"""Numerical laboratory for return dynamics with memory.

Market log-returns are modeled as a stationary process driven by a
generalized Langevin equation whose memory kernel and correlation
function are linked through their Laplace images.  The package provides

* ``specfun``  -- the special functions the closed-form solutions need
  (Bessel, the Bessel-Neumann series of the stock ACF, both Lambert W
  branches in log-argument form);
* ``models``   -- the model catalog: memory-kernel variants, their Laplace
  shapes, closed-form autocorrelations, and the self-consistency audit;
* ``laplace``  -- numerical inversion of Laplace images and one-sided
  spectral densities;
* ``volterra`` -- time-domain propagation: memory-kernel convolution
  equations, driven-integration of the GLE, stationary ensembles;
* ``lambert``  -- the Lambert-type (Boltzmann, differential) ACFs, marched
  from a Laplace-inverted startup window;
* ``series``   -- the sampled-data containers (ACFs, kernels, spectra, path
  ensembles) and the ensemble ACF estimator;
* ``noise``    -- seeded Gaussian noise with a prescribed spectrum, and
  the seed-lane table every per-path stream is drawn from;
* ``market``   -- geometric-Brownian price paths, exact white-noise return
  sampling, and conversions between prices and detrended return rates;
* ``estimate`` -- the one-path sample ACF and the memory-exponent fit with
  class labels (heavy / neutral / light / ultra-light), from an ACF or from
  one price path;
* ``cli``      -- the ``glemarket`` command-line interface.

Submodules load on first use: ``import glemarket`` imports none of them,
and a name of ``__all__`` (``glemarket.fit_theta``, or ``from glemarket
import fit_theta``) or a submodule (``glemarket.models``) imports its
module when it is first read.
"""

import importlib

# each exported name (__all__) and the submodule that defines it, one group per module
_EXPORTS = {
    **dict.fromkeys(("AccuracyError", "CapabilityError", "DegenerateSeriesError", "DomainError",
                     "GleMarketError", "InputError", "ParseError", "SolverError",
                     "SpectralPositivityError"), "errors"),
    **dict.fromkeys(("FitReport", "fit_prices", "fit_theta", "model_curve", "sample_acf"),
                    "estimate"),
    **dict.fromkeys(("invert", "invert_at", "spectral_density"), "laplace"),
    **dict.fromkeys(("MarketParams", "price_from_returns", "returns_from_prices", "sigma_from_tau",
                     "simulate_gbm", "simulate_white_returns", "tau_from_volatility"), "market"),
    **dict.fromkeys(("ModelSpec", "StockClass", "Variant", "classify_theta", "closed_form_acf",
                     "force_evaluator", "force_shape", "identity_residual", "observable_evaluator",
                     "observable_shape", "solve_functional_shape", "spectral_atom"), "models"),
    **dict.fromkeys(("NoiseRequest", "circulant_spectrum", "generate_colored",
                     "generate_wiener_increments"), "noise"),
    **dict.fromkeys(("AcfSeries", "KernelSeries", "PathEnsemble", "SpectralDensity", "ensemble_acf"),
                    "series"),
    **dict.fromkeys(("bessel_j0", "bessel_j1", "lambda0", "lambda1", "lambert_w0_exp"), "specfun"),
    **dict.fromkeys(("integrate_gle", "memory_kernel", "propagate_acf",
                     "simulate_stationary_ensemble"), "volterra"),
    **dict.fromkeys(("boltzmann_acf", "differential_acf"), "lambert"),
}

_SUBMODULES = (*dict.fromkeys(_EXPORTS.values()), "cli")


def __getattr__(name):
    """Import a submodule, or the module of an exported name, on its first
    access (PEP 562); an exported name is then bound here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
