"""Price dynamics in the white-noise limit and price/return conversions.

In the memoryless limit the market return rate decorrelates over tau_R and
the log-price performs geometric Brownian motion with volatility
sigma^2 = 2 <R^2> tau_R.  This module holds that volatility bridge, a
log-space GBM integrator, the exactly stationary exponential-ACF return
process, and the conversions between price paths and detrended return-rate
paths (R = d ln M / dt - mu).

Convention: log-prices are updated directly, ln M_{n+1} = ln M_n + mu h
+ sigma dW_n, so the drift mu is the mean of d ln M / dt and returns are
exactly zero-centered.  No Ito correction is applied anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .noise import _check_counts, _check_seed, path_stream
from .series import PathEnsemble


@dataclass(frozen=True)
class MarketParams:
    """Drift, volatility, return variance, and initial price."""

    mu: float
    sigma: float
    variance_R: float
    M0: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise InputError("mu must be finite")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InputError("sigma must be finite and >= 0")
        if not (np.isfinite(self.variance_R) and self.variance_R > 0.0):
            raise InputError("variance_R must be finite and > 0")
        if not (np.isfinite(self.M0) and self.M0 > 0.0):
            raise InputError("M0 must be finite and > 0")

    @property
    def tau_R(self):
        return tau_from_volatility(self.sigma, self.variance_R)


def tau_from_volatility(sigma, variance_R):
    """Correlation time tau_R = sigma^2 / (2 <R^2>)."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError("sigma must be positive and finite")
    if not (np.isfinite(variance_R) and variance_R > 0.0):
        raise DomainError("variance_R must be positive and finite")
    return sigma * sigma / (2.0 * variance_R)


def sigma_from_tau(tau_R, variance_R):
    """Volatility sigma = sqrt(2 <R^2> tau_R); inverse of tau_from_volatility."""
    if not (np.isfinite(tau_R) and tau_R > 0.0):
        raise DomainError("tau_R must be positive and finite")
    if not (np.isfinite(variance_R) and variance_R > 0.0):
        raise DomainError("variance_R must be positive and finite")
    return np.sqrt(2.0 * variance_R * tau_R)


def simulate_gbm(params, increments):
    """Integrate log-space GBM over a Wiener-increment ensemble.

    Returns a "price" ensemble with n_steps + 1 samples per path (the
    initial price M0 at t = 0 is included).  With sigma = 0 the result is
    M0 exp(mu t) to full precision.
    """
    if not isinstance(params, MarketParams):
        raise InputError("params must be a MarketParams")
    if not isinstance(increments, PathEnsemble):
        raise InputError("increments must be a PathEnsemble")
    if increments.kind != "wiener-increment":
        raise InputError(
            f"increments must have kind 'wiener-increment', got {increments.kind!r}"
        )
    h = increments.h
    t = h * np.arange(increments.n_steps + 1)
    walk = np.zeros((increments.n_paths, increments.n_steps + 1))
    if params.sigma != 0.0:
        np.cumsum(increments.paths, axis=1, out=walk[:, 1:])
        walk *= params.sigma
    return PathEnsemble(
        h=h,
        paths=params.M0 * np.exp(params.mu * t + walk),
        kind="price",
        master_seed=increments.master_seed,
        stream_indices=increments.stream_indices,
    )


def price_from_returns(r_path, mu, M0=1.0):
    """Rebuild prices from detrended return rates.

    ln M(t) = ln M0 + mu t + integral of R.  Sample R_n is taken as the mean
    rate over the panel [t_n, t_{n+1}] (an O(h) representation of the
    continuous integral), so n return samples give n + 1 prices and the
    conversion is the exact inverse of returns_from_prices.
    """
    if not isinstance(r_path, PathEnsemble):
        raise InputError("r_path must be a PathEnsemble")
    if r_path.kind != "return-rate":
        raise InputError(f"r_path must have kind 'return-rate', got {r_path.kind!r}")
    if not np.isfinite(mu):
        raise InputError("mu must be finite")
    if not (np.isfinite(M0) and M0 > 0.0):
        raise DomainError("M0 must be positive")
    r = r_path.paths
    h = r_path.h
    integral = np.zeros((r.shape[0], r.shape[1] + 1))
    np.cumsum(h * r, axis=1, out=integral[:, 1:])
    t = h * np.arange(r.shape[1] + 1)
    return PathEnsemble(
        h=h,
        paths=M0 * np.exp(mu * t + integral),
        kind="price",
        master_seed=r_path.master_seed,
        stream_indices=r_path.stream_indices,
    )


def returns_from_prices(prices, mu=None):
    """Detrended return rates R_n = [ln M_{n+1} - ln M_n] / h - mu.

    With mu=None each path is detrended by its own sample-mean log return
    (the output has exactly zero mean per path); passing mu detrends by the
    given drift instead.
    """
    if not isinstance(prices, PathEnsemble):
        raise InputError("prices must be a PathEnsemble")
    if prices.kind != "price":
        raise InputError(f"prices must have kind 'price', got {prices.kind!r}")
    if prices.n_steps < 2:
        raise InputError("need at least two prices per path")
    bad = ~(prices.paths > 0.0)
    if bad.any():
        path, idx = np.argwhere(bad)[0]
        raise DomainError(f"nonpositive price at path {path}, sample {idx}")
    log_m = np.log(prices.paths)
    rate = np.diff(log_m, axis=1) / prices.h
    if mu is None:
        rate = rate - rate.mean(axis=1, keepdims=True)
    else:
        if not np.isfinite(mu):
            raise InputError("mu must be finite")
        rate = rate - mu
    return PathEnsemble(
        h=prices.h,
        paths=rate,
        kind="return-rate",
        master_seed=prices.master_seed,
        stream_indices=prices.stream_indices,
    )


def simulate_white_returns(tau_R, variance_R, n_steps, h, n_paths, seed):
    """Exactly stationary exponential-ACF Gaussian return process.

    One-step recursion r_{n+1} = a r_n + sqrt(<R^2>(1 - a^2)) Z with
    a = exp(-h / tau_R) and a stationary initial draw, so every sample has
    variance <R^2> and the lag-k autocovariance is <R^2> exp(-k h / tau_R)
    with no discretization error.
    """
    if not (np.isfinite(tau_R) and tau_R > 0.0):
        raise DomainError("tau_R must be positive and finite")
    if not (np.isfinite(variance_R) and variance_R > 0.0):
        raise DomainError("variance_R must be positive and finite")
    if not (np.isfinite(h) and h > 0.0):
        raise InputError("h must be positive and finite")
    n_steps, n_paths = _check_counts(n_steps, n_paths)
    _check_seed(seed)
    alpha = np.exp(-h / tau_R)
    scale = np.sqrt(variance_R * (1.0 - alpha * alpha))
    # draw per path so stream i is a fixed function of (seed, i), then run
    # the recursion time-major and vectorized across paths
    z = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        z[i] = path_stream(seed, "white-return", i).standard_normal(n_steps)
    paths = np.empty((n_paths, n_steps))
    paths[:, 0] = np.sqrt(variance_R) * z[:, 0]
    z *= scale
    for n in range(1, n_steps):
        paths[:, n] = alpha * paths[:, n - 1] + z[:, n]
    return PathEnsemble(
        h=h,
        paths=paths,
        kind="return-rate",
        master_seed=seed,
        stream_indices=tuple(range(n_paths)),
    )
