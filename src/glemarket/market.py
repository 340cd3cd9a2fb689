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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InputError, check_count, check_positive, check_seed
from .noise import path_streams
from .series import PathEnsemble, check_ensemble

# steps per block of simulate_white_returns's recursion
_WHITE_BLOCK = 256


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
        check_positive(self.variance_R, "variance_R")
        check_positive(self.M0, "M0")

    @property
    def tau_R(self):
        return tau_from_volatility(self.sigma, self.variance_R)


def tau_from_volatility(sigma, variance_R):
    """Correlation time tau_R = sigma^2 / (2 <R^2>)."""
    check_positive(sigma, "sigma", DomainError)
    check_positive(variance_R, "variance_R", DomainError)
    return sigma * sigma / (2.0 * variance_R)


def sigma_from_tau(tau_R, variance_R):
    """Volatility sigma = sqrt(2 <R^2> tau_R); inverse of tau_from_volatility."""
    check_positive(tau_R, "tau_R", DomainError)
    check_positive(variance_R, "variance_R", DomainError)
    return np.sqrt(2.0 * variance_R * tau_R)


@np.errstate(all="ignore")  # prices out of float range are refused, not warned
def simulate_gbm(params, increments):
    """Integrate log-space GBM over a Wiener-increment ensemble.

    Returns a "price" ensemble with n_steps + 1 samples per path (the
    initial price M0 at t = 0 is included).  With sigma = 0 the result is
    M0 exp(mu t) to full precision.  Prices outside (0, inf) raise DomainError.
    """
    if not isinstance(params, MarketParams):
        raise InputError("params must be a MarketParams")
    check_ensemble(increments, "increments", "wiener-increment")
    h = increments.h
    t = h * np.arange(increments.n_steps + 1)
    walk = np.zeros((increments.n_paths, increments.n_steps + 1))
    if params.sigma != 0.0:
        np.cumsum(increments.paths, axis=1, out=walk[:, 1:])
        walk *= params.sigma
    prices = _check_prices(params.M0 * np.exp(params.mu * t + walk))
    return replace(increments, paths=prices, kind="price")


@np.errstate(all="ignore")  # prices out of float range are refused, not warned
def price_from_returns(r_path, mu, M0=1.0):
    """Rebuild prices from detrended return rates.

    ln M(t) = ln M0 + mu t + integral of R.  Sample R_n is taken as the mean
    rate over the panel [t_n, t_{n+1}] (an O(h) representation of the
    continuous integral), so n return samples give n + 1 prices and the
    conversion is the exact inverse of returns_from_prices.  Prices outside
    (0, inf) raise DomainError.
    """
    check_ensemble(r_path, "r_path", "return-rate")
    if not np.isfinite(mu):
        raise InputError("mu must be finite")
    check_positive(M0, "M0", DomainError)
    r = r_path.paths
    h = r_path.h
    integral = np.zeros((r.shape[0], r.shape[1] + 1))
    np.cumsum(h * r, axis=1, out=integral[:, 1:])
    t = h * np.arange(r.shape[1] + 1)
    return replace(r_path, paths=_check_prices(M0 * np.exp(mu * t + integral)), kind="price")


def _check_prices(paths):
    """paths, unless a price is not positive and finite: DomainError names the first."""
    bad = ~((paths > 0.0) & np.isfinite(paths))
    if bad.any():
        path, idx = np.argwhere(bad)[0]
        raise DomainError(f"nonpositive or non-finite price at path {path}, sample {idx}")
    return paths


def returns_from_prices(prices, mu=None):
    """Detrended return rates R_n = [ln M_{n+1} - ln M_n] / h - mu.

    With mu=None each path is detrended by its own sample-mean log return
    (the output has exactly zero mean per path); passing mu detrends by the
    given drift instead.
    """
    check_ensemble(prices, "prices", "price")
    if prices.n_steps < 2:
        raise InputError("need at least two prices per path")
    log_m = np.log(_check_prices(prices.paths))
    rate = np.diff(log_m, axis=1) / prices.h
    if mu is None:
        rate = rate - rate.mean(axis=1, keepdims=True)
    else:
        if not np.isfinite(mu):
            raise InputError("mu must be finite")
        rate = rate - mu
    return replace(prices, paths=rate, kind="return-rate")


def simulate_white_returns(tau_R, variance_R, n_steps, h, n_paths, seed):
    """Exactly stationary exponential-ACF Gaussian return process.

    One-step recursion r_{n+1} = a r_n + sqrt(<R^2>(1 - a^2)) Z with
    a = exp(-h / tau_R) and a stationary initial draw, so every sample has
    variance <R^2> and the lag-k autocovariance is <R^2> exp(-k h / tau_R)
    with no discretization error.  The recursion runs in blocks of up to
    _WHITE_BLOCK steps, each a weighted cumulative sum that carries the
    previous block's last value forward; it agrees with the step-by-step
    loop to rounding.
    """
    check_positive(tau_R, "tau_R", DomainError)
    check_positive(variance_R, "variance_R", DomainError)
    check_positive(h, "h")
    n_steps = check_count(n_steps, "n_steps", 1)
    n_paths = check_count(n_paths, "n_paths", 1)
    check_seed(seed)
    alpha = np.exp(-h / tau_R)
    scale = np.sqrt(variance_R * (1.0 - alpha * alpha))
    # draw per path so stream i is a fixed function of (seed, i)
    z = np.empty((n_paths, n_steps))
    for row, stream in zip(z, path_streams(seed, "white-return", 0, n_paths)):
        stream.standard_normal(out=row)
    paths = np.empty((n_paths, n_steps))
    paths[:, 0] = np.sqrt(variance_R) * z[:, 0]
    z *= scale
    # the recursion in blocks of b steps: with j counted from a block's first
    # step, r_j = a^j sum_{i<=j} a^(-i) z_i + a^(j+1) r_{-1}, one cumulative
    # sum per path, so a path's values do not depend on the other paths; b
    # keeps a^(-i) below e^345, far from overflow
    b = int(min(_WHITE_BLOCK, 1.0 + 345.0 * tau_R / h))
    grow = alpha ** -np.arange(b)
    fall = alpha ** np.arange(b + 1)
    for s in range(1, n_steps, b):
        m = min(b, n_steps - s)
        block = paths[:, s : s + m]
        np.cumsum(z[:, s : s + m] * grow[:m], axis=1, out=block)
        block *= fall[:m]
        block += paths[:, s - 1 : s] * fall[1 : m + 1]
    return PathEnsemble(h=h, paths=paths, kind="return-rate", master_seed=seed)
