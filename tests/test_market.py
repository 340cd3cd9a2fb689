"""Tests for the white-noise-limit price dynamics and conversions."""

import numpy as np
import pytest

from glemarket.errors import DomainError, InputError
from glemarket.market import (
    MarketParams,
    price_from_returns,
    returns_from_prices,
    sigma_from_tau,
    simulate_gbm,
    simulate_white_returns,
    tau_from_volatility,
)
from glemarket.noise import generate_wiener_increments
from glemarket.series import PathEnsemble


class TestVolatilityBridge:
    def test_reference_values(self):
        # sigma^2 = 0.04, <R^2> = 0.5  -> tau_R = 0.04
        assert abs(tau_from_volatility(0.2, 0.5) - 0.04) < 1e-15
        # Poisson-rate preset: <R^2> = mu^2 = 0.01, sigma^2 = 0.04 -> tau_R = 2
        assert abs(tau_from_volatility(0.2, 0.01) - 2.0) < 1e-14

    def test_round_trip(self):
        for sigma, var in [(0.3, 0.7), (1.2, 0.01), (0.05, 4.0)]:
            assert abs(sigma_from_tau(tau_from_volatility(sigma, var), var) - sigma) < 1e-14
        for tau, var in [(0.04, 0.5), (2.0, 0.01)]:
            assert abs(tau_from_volatility(sigma_from_tau(tau, var), var) - tau) < 1e-14

    def test_memoryless_limit(self):
        assert tau_from_volatility(1e-8, 0.5) < 1e-15

    @pytest.mark.parametrize("args", [(0.0, 0.5), (-0.1, 0.5), (0.2, 0.0), (0.2, -1.0), (np.inf, 0.5)])
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            tau_from_volatility(*args)
        with pytest.raises(DomainError):
            sigma_from_tau(*args)


class TestMarketParams:
    def test_valid(self):
        p = MarketParams(mu=0.05, sigma=0.2, variance_R=0.5, M0=100.0)
        assert abs(p.tau_R - 0.04) < 1e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=np.nan, sigma=0.2, variance_R=0.5),
            dict(mu=0.0, sigma=-0.1, variance_R=0.5),
            dict(mu=0.0, sigma=0.2, variance_R=0.0),
            dict(mu=0.0, sigma=0.2, variance_R=0.5, M0=0.0),
            dict(mu=0.0, sigma=0.2, variance_R=0.5, M0=-5.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InputError):
            MarketParams(**kwargs)


class TestSimulateGbm:
    def test_zero_volatility_is_exact(self):
        p = MarketParams(mu=0.05, sigma=0.0, variance_R=0.5, M0=100.0)
        w = generate_wiener_increments(10, 0.1, 1, seed=1)
        out = simulate_gbm(p, w)
        assert out.paths[0, -1] == 100.0 * np.exp(0.05)
        assert out.paths[0, 0] == 100.0

    def test_prices_positive_and_shaped(self):
        p = MarketParams(mu=-0.5, sigma=0.8, variance_R=0.5, M0=2.0)
        w = generate_wiener_increments(64, 0.05, 5, seed=2)
        out = simulate_gbm(p, w)
        assert out.kind == "price"
        assert out.paths.shape == (5, 65)
        assert np.all(out.paths > 0.0)
        assert out.master_seed == 2

    def test_log_increment_variance_matches_sigma(self):
        p = MarketParams(mu=0.1, sigma=0.3, variance_R=0.5, M0=1.0)
        w = generate_wiener_increments(2**17, 0.01, 8, seed=5)
        out = simulate_gbm(p, w)
        inc = np.diff(np.log(out.paths), axis=1)
        assert abs(inc.var() / 0.01 / 0.09 - 1.0) < 0.01

    def test_driftless_median_log_price(self):
        p = MarketParams(mu=0.0, sigma=0.3, variance_R=0.5, M0=1.0)
        w = generate_wiener_increments(1000, 0.01, 400, seed=7)
        out = simulate_gbm(p, w)
        med = np.median(np.log(out.paths[:, -1]))
        assert abs(med) < 3.0 * 0.3 * np.sqrt(10.0) / np.sqrt(400)

    def test_deterministic(self):
        p = MarketParams(mu=0.1, sigma=0.3, variance_R=0.5, M0=1.0)
        w = generate_wiener_increments(32, 0.1, 2, seed=9)
        assert np.array_equal(simulate_gbm(p, w).paths, simulate_gbm(p, w).paths)

    def test_wrong_increment_kind(self):
        p = MarketParams(mu=0.1, sigma=0.3, variance_R=0.5, M0=1.0)
        fake = PathEnsemble(h=0.1, paths=np.zeros((1, 10)), kind="force")
        with pytest.raises(InputError):
            simulate_gbm(p, fake)


class TestConversions:
    def test_zero_returns(self):
        pe = PathEnsemble(h=0.1, paths=np.zeros((1, 50)), kind="return-rate")
        out = price_from_returns(pe, mu=0.05, M0=100.0)
        t = 0.1 * np.arange(51)
        assert np.abs(out.paths[0] - 100.0 * np.exp(0.05 * t)).max() < 1e-12

    def test_constant_returns(self):
        pe = PathEnsemble(h=0.1, paths=np.full((1, 50), 0.03), kind="return-rate")
        out = price_from_returns(pe, mu=0.02, M0=10.0)
        t = 0.1 * np.arange(51)
        assert np.abs(out.paths[0] - 10.0 * np.exp(0.05 * t)).max() < 1e-12

    def test_two_point_log_difference(self):
        pe = PathEnsemble(
            h=1.0, paths=np.array([[100.0, 100.0 * np.exp(0.01)]]), kind="price"
        )
        out = returns_from_prices(pe, mu=0.0)
        assert out.paths.shape == (1, 1)
        assert abs(out.paths[0, 0] - 0.01) < 1e-14

    def test_pure_drift_detrends_to_zero(self):
        t = 0.25 * np.arange(30)
        pe = PathEnsemble(h=0.25, paths=np.exp(0.07 * t)[None, :], kind="price")
        out = returns_from_prices(pe, mu=0.07)
        assert np.abs(out.paths).max() < 1e-12

    def test_constant_prices_sample_mean_detrend(self):
        pe = PathEnsemble(h=0.5, paths=np.full((2, 20), 7.0), kind="price")
        out = returns_from_prices(pe)
        assert np.abs(out.paths).max() < 1e-15

    def test_sample_mean_detrend_zero_mean_per_path(self):
        w = generate_wiener_increments(200, 0.05, 4, seed=11)
        p = MarketParams(mu=0.2, sigma=0.4, variance_R=0.5, M0=1.0)
        out = returns_from_prices(simulate_gbm(p, w))
        assert np.abs(out.paths.mean(axis=1)).max() < 1e-13

    def test_exact_inverse_pair(self):
        w = generate_wiener_increments(500, 0.02, 3, seed=3)
        prices = simulate_gbm(MarketParams(mu=0.05, sigma=0.2, variance_R=0.5, M0=50.0), w)
        back = price_from_returns(returns_from_prices(prices, mu=0.05), mu=0.05, M0=50.0)
        assert np.abs(back.paths / prices.paths - 1.0).max() < 1e-12

        r = simulate_white_returns(0.5, 0.8, 200, 0.05, 2, seed=13)
        again = returns_from_prices(price_from_returns(r, mu=0.07, M0=1.0), mu=0.07)
        assert np.abs(again.paths - r.paths).max() < 1e-12

    def test_nonpositive_price_identified(self):
        paths = np.full((2, 5), 3.0)
        paths[1, 3] = -0.5
        pe = PathEnsemble(h=0.1, paths=paths, kind="price")
        with pytest.raises(DomainError) as err:
            returns_from_prices(pe)
        assert "path 1" in str(err.value)
        assert "3" in str(err.value)

    def test_bad_m0(self):
        pe = PathEnsemble(h=0.1, paths=np.zeros((1, 10)), kind="return-rate")
        with pytest.raises(DomainError):
            price_from_returns(pe, mu=0.0, M0=0.0)

    def test_kind_checks(self):
        pe = PathEnsemble(h=0.1, paths=np.ones((1, 10)), kind="price")
        with pytest.raises(InputError):
            price_from_returns(pe, mu=0.0)
        pe = PathEnsemble(h=0.1, paths=np.ones((1, 10)), kind="return-rate")
        with pytest.raises(InputError):
            returns_from_prices(pe)


class TestWhiteReturns:
    def test_stationary_moments_and_acf(self):
        tau_R, var_R = 0.5, 0.8
        out = simulate_white_returns(tau_R, var_R, 1000, tau_R / 10, 2000, seed=13)
        x = out.paths
        n = x.shape[1]
        max_lag = 40
        cols = [
            np.mean(x[:, k:] * x[:, : n - k] if k else x * x, axis=1)
            for k in range(max_lag + 1)
        ]
        acf = np.stack(cols, axis=1)
        mean = acf.mean(axis=0)
        se = acf.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
        truth = var_R * np.exp(-np.arange(max_lag + 1) * 0.1)
        assert np.all(np.abs(mean - truth) <= 3.0 * se)

    def test_consistency_loop_recovers_volatility(self):
        # white-noise limit: long-horizon log-price variance grows at
        # sigma^2 = 2 <R^2> tau_R (exact rate sigma^2 (t - tau_R) for the
        # stationary process), required within 5%
        tau_R, var_R = 0.5, 0.8
        r = simulate_white_returns(tau_R, var_R, 1000, tau_R / 10, 2000, seed=13)
        prices = price_from_returns(r, mu=0.07, M0=1.0)
        T = 1000 * tau_R / 10
        growth = np.log(prices.paths[:, -1]).var(ddof=1)
        sigma_sq = 2.0 * var_R * tau_R
        assert abs(growth / (T - tau_R) / sigma_sq - 1.0) < 0.05

    def test_deterministic_and_stream_stable(self):
        a = simulate_white_returns(0.5, 0.8, 64, 0.05, 3, seed=21)
        b = simulate_white_returns(0.5, 0.8, 64, 0.05, 3, seed=21)
        one = simulate_white_returns(0.5, 0.8, 64, 0.05, 1, seed=21)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.paths[0], one.paths[0])
        assert a.kind == "return-rate"

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            simulate_white_returns(0.0, 0.8, 64, 0.05, 1, seed=1)
        with pytest.raises(DomainError):
            simulate_white_returns(0.5, 0.0, 64, 0.05, 1, seed=1)
        with pytest.raises(InputError):
            simulate_white_returns(0.5, 0.8, 0, 0.05, 1, seed=1)
        with pytest.raises(InputError):
            simulate_white_returns(0.5, 0.8, 64, 0.05, 1, seed=-1)
