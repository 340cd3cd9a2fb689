"""Numerical laboratory for return dynamics with memory.

Market log-returns are modeled as a stationary process driven by a
generalized Langevin equation whose memory kernel and correlation
function are linked through their Laplace images.  The package provides

* ``specfun``  -- the special functions the closed-form solutions need
  (Bessel, the Bessel-Neumann series of the stock ACF, Lambert W in direct
  and log-argument forms);
* ``models``   -- the model catalog: memory-kernel variants, their Laplace
  shapes, closed-form autocorrelations, and the self-consistency audit;
* ``laplace``  -- numerical inversion of Laplace images and one-sided
  spectral densities;
* ``volterra`` -- time-domain propagation: memory-kernel convolution
  equations, driven-integration of the GLE, stationary ensembles;
* ``noise``    -- seeded Gaussian noise with a prescribed spectrum, and
  the seed-lane table every per-path stream is drawn from;
* ``market``   -- geometric-Brownian price paths, exact white-noise return
  sampling, and conversions between prices and detrended return rates;
* ``estimate`` -- sample autocorrelations and the memory-exponent fit
  with class labels (heavy / neutral / light / ultra-light);
* ``cli``      -- the ``glemarket`` command-line interface.
"""

from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateSeriesError,
    DomainError,
    GleMarketError,
    InputError,
    ParseError,
    SolverError,
    SpectralPositivityError,
)
from .estimate import FitReport, ensemble_acf, fit_theta, model_curve, sample_acf
from .laplace import invert, invert_at, spectral_density
from .market import (
    MarketParams,
    price_from_returns,
    returns_from_prices,
    sigma_from_tau,
    simulate_gbm,
    simulate_white_returns,
    tau_from_volatility,
)
from .models import (
    ModelSpec,
    StockClass,
    Variant,
    classify_theta,
    closed_form_acf,
    force_evaluator,
    force_shape,
    identity_residual,
    observable_evaluator,
    observable_shape,
    solve_functional_shape,
    spectral_atom,
)
from .noise import NoiseRequest, circulant_spectrum, generate_colored, generate_wiener_increments
from .series import AcfSeries, KernelSeries, PathEnsemble, SpectralDensity
from .specfun import bessel_j0, bessel_j1, lambda0, lambda1, lambert_w0, lambert_w0_exp
from .volterra import (
    boltzmann_acf,
    differential_acf,
    integrate_gle,
    memory_kernel,
    propagate_acf,
    simulate_stationary_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AcfSeries",
    "CapabilityError",
    "DegenerateSeriesError",
    "DomainError",
    "FitReport",
    "GleMarketError",
    "InputError",
    "KernelSeries",
    "MarketParams",
    "ModelSpec",
    "NoiseRequest",
    "ParseError",
    "PathEnsemble",
    "SolverError",
    "SpectralDensity",
    "SpectralPositivityError",
    "StockClass",
    "Variant",
    "bessel_j0",
    "bessel_j1",
    "boltzmann_acf",
    "circulant_spectrum",
    "classify_theta",
    "closed_form_acf",
    "differential_acf",
    "ensemble_acf",
    "fit_theta",
    "force_evaluator",
    "force_shape",
    "generate_colored",
    "generate_wiener_increments",
    "identity_residual",
    "integrate_gle",
    "invert",
    "invert_at",
    "lambda0",
    "lambda1",
    "lambert_w0",
    "lambert_w0_exp",
    "memory_kernel",
    "model_curve",
    "observable_evaluator",
    "observable_shape",
    "price_from_returns",
    "propagate_acf",
    "returns_from_prices",
    "sample_acf",
    "sigma_from_tau",
    "simulate_gbm",
    "simulate_stationary_ensemble",
    "simulate_white_returns",
    "solve_functional_shape",
    "spectral_atom",
    "spectral_density",
    "tau_from_volatility",
]
