"""Tests for the ACF estimators and the (tau_r, theta) least-squares fit."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from glemarket import estimate, laplace
from glemarket.errors import DegenerateSeriesError, InputError
from glemarket.estimate import (
    ensemble_acf,
    fit_theta,
    model_curve,
    sample_acf,
)
from glemarket.market import simulate_white_returns
from glemarket.models import ModelSpec, StockClass
from glemarket.series import AcfSeries, PathEnsemble
from glemarket.specfun import bessel_j0, lambda1
from glemarket.volterra import simulate_stationary_ensemble


def naive_biased_autocovariance(x, max_lag):
    n = x.size
    return np.array(
        [np.dot(x[: n - k], x[k:]) / n for k in range(max_lag + 1)]
    )


# -- sample_acf ----------------------------------------------------------------


class TestSampleAcf:
    def test_matches_direct_summation(self):
        t = 0.05 * np.arange(2000)
        x = np.cos(1.3 * t) + 0.2 * np.sin(4.1 * t)
        acf = sample_acf(x, 120, h=0.05)
        ref = naive_biased_autocovariance(x, 120)
        assert acf.variance == pytest.approx(ref[0], rel=1e-12)
        assert np.abs(acf.values - ref / ref[0]).max() < 1e-10
        assert acf.h == 0.05 and acf.values[0] == 1.0

    def test_iid_series_decorrelates(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20000)
        acf = sample_acf(x, 50)
        assert np.abs(acf.values[1:]).max() < 3.0 / np.sqrt(x.size)
        assert acf.variance == pytest.approx(1.0, abs=0.05)

    def test_lag_zero_is_sample_second_moment(self):
        x = np.array([1.0, -2.0, 3.0, 0.5, -1.5, 2.5, -0.5, 1.0])
        acf = sample_acf(x, 2)
        assert acf.variance == pytest.approx(np.mean(x * x), rel=1e-14)

    def test_constant_zero_series_is_degenerate(self):
        with pytest.raises(DegenerateSeriesError, match="zero variance"):
            sample_acf(np.zeros(100), 10)

    def test_too_short_series_rejected(self):
        with pytest.raises(InputError, match="too short"):
            sample_acf(np.ones(39), 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_lag=0),
            dict(max_lag=10, h=0.0),
            dict(max_lag=10, h=-1.0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(InputError):
            sample_acf(np.ones(100) + np.arange(100) % 2, **kwargs)

    def test_non_finite_and_shape_rejected(self):
        with pytest.raises(InputError):
            sample_acf(np.array([1.0, np.nan] * 50), 5)
        with pytest.raises(InputError):
            sample_acf(np.ones((10, 10)), 2)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_biased_acf_is_positive_semidefinite(self, seed):
        # the divide-by-N estimator keeps the lag-Toeplitz matrix PSD
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(256)
        x = np.convolve(x, rng.uniform(0.1, 1.0, size=5), mode="same")
        acov = sample_acf(x, 30).values * sample_acf(x, 30).variance
        eig = np.linalg.eigvalsh(toeplitz(acov))
        assert eig.min() >= -1e-10 * np.trace(toeplitz(acov))


# -- ensemble_acf ----------------------------------------------------------------


class TestEnsembleAcf:
    def test_single_path_has_zero_se(self):
        out = simulate_white_returns(1.0, 1.0, 512, 0.1, 1, seed=4)
        acf, se = ensemble_acf(out, 32)
        assert np.all(se == 0.0)
        assert acf.values[0] == 1.0

    def test_duplicate_paths_have_zero_se(self):
        one = simulate_white_returns(1.0, 1.0, 512, 0.1, 1, seed=4)
        twin = PathEnsemble(
            h=0.1,
            paths=np.vstack([one.paths, one.paths]),
            kind="return-rate",
        )
        _, se = ensemble_acf(twin, 32)
        assert np.abs(se).max() < 1e-15

    def test_matches_per_path_average(self):
        out = simulate_white_returns(1.0, 1.0, 512, 0.1, 6, seed=9)
        acf, _ = ensemble_acf(out, 32)
        rows = np.stack(
            [naive_biased_autocovariance(p, 32) for p in out.paths]
        )
        mean = rows.mean(axis=0)
        assert np.abs(acf.values - mean / mean[0]).max() < 1e-10
        assert acf.variance == pytest.approx(mean[0], rel=1e-12)

    def test_validation(self):
        out = simulate_white_returns(1.0, 1.0, 64, 0.1, 2, seed=1)
        with pytest.raises(InputError):
            ensemble_acf(np.ones((4, 64)), 8)
        with pytest.raises(InputError):
            ensemble_acf(out, 0)
        with pytest.raises(InputError):
            ensemble_acf(out, 17)  # needs >= 4*max_lag samples
        silent = PathEnsemble(h=0.1, paths=np.zeros((3, 64)), kind="return-rate")
        with pytest.raises(DegenerateSeriesError):
            ensemble_acf(silent, 8)


# -- model curves ----------------------------------------------------------------


class TestModelCurve:
    def test_closed_form_members(self):
        grid, c0 = model_curve(0.0)
        _, c1 = model_curve(1.0)
        _, c2 = model_curve(2.0)
        assert np.abs(c0 - np.exp(-grid)).max() < 1e-8
        assert np.abs(c1 - lambda1(2.0 * grid)).max() < 1e-8
        assert np.abs(c2 - bessel_j0(grid)).max() < 1e-8

    def test_curves_come_from_the_series_not_inversion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("model curves must not invert a Laplace image")

        monkeypatch.setattr(estimate, "_model_curve_cache", {})
        monkeypatch.setattr(estimate, "invert_at", refuse)
        monkeypatch.setattr(laplace, "invert_at", refuse)
        lags = 0.1 * np.arange(201)
        acf = AcfSeries(h=0.1, values=lambda1(2.0 * lags / 1.5), variance=1.0)
        rep = fit_theta(acf, lag_window=20.0)
        assert rep.theta == pytest.approx(1.0, abs=0.05)
        assert len(estimate._model_curve_cache) > 20

    def test_lag_zero_pinned_and_cached(self):
        grid, vals = model_curve(1.7)
        assert vals[0] == 1.0 and grid[0] == 0.0
        assert model_curve(1.7) is model_curve(1.7)
        # key rounding: indistinguishable thetas share an entry
        assert model_curve(1.7) is model_curve(1.7 + 1e-9)


# -- fit_theta -------------------------------------------------------------------


class TestFitTheta:
    def test_exponential_acf_is_heavy(self):
        lags = 0.1 * np.arange(201)
        acf = AcfSeries(h=0.1, values=np.exp(-lags / 2.0), variance=3.0)
        rep = fit_theta(acf, lag_window=20.0)
        assert rep.theta <= 0.05
        assert rep.tau_r == pytest.approx(2.0, rel=0.02)
        assert rep.stock_class is StockClass.HEAVY
        assert rep.variance == 3.0
        assert rep.window_ok and not rep.degenerate

    def test_neutral_acf(self):
        lags = 0.1 * np.arange(201)
        acf = AcfSeries(h=0.1, values=lambda1(2.0 * lags / 1.5), variance=1.0)
        rep = fit_theta(acf, lag_window=20.0)
        assert rep.theta == pytest.approx(1.0, abs=0.05)
        assert rep.tau_r == pytest.approx(1.5, rel=0.02)
        assert rep.stock_class is StockClass.NEUTRAL

    def test_oscillatory_acf_is_ultralight_boundary(self):
        lags = 0.1 * np.arange(201)
        acf = AcfSeries(h=0.1, values=bessel_j0(lags / 1.2), variance=1.0)
        rep = fit_theta(acf, lag_window=20.0)
        assert rep.theta == pytest.approx(2.0, abs=0.05)
        assert rep.tau_r == pytest.approx(1.2, rel=0.02)

    @pytest.mark.parametrize("theta", [0.4, 1.5, 2.6, 3.7])
    def test_recovers_exact_model_curves(self, theta):
        grid, curve = model_curve(theta)
        tau_r = 0.8
        lags = 0.05 * np.arange(321)
        vals = np.interp(lags / tau_r, grid, curve)
        acf = AcfSeries(h=0.05, values=vals, variance=1.0)
        rep = fit_theta(acf, lag_window=16.0)
        assert rep.theta == pytest.approx(theta, abs=0.05)
        assert rep.tau_r == pytest.approx(tau_r, rel=0.02)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4000)
        a1 = sample_acf(x, 40, h=0.1)
        a2 = sample_acf(10.0 * x, 40, h=0.1)
        assert a2.variance == pytest.approx(100.0 * a1.variance, rel=1e-12)
        r1 = fit_theta(a1, 4.0)
        r2 = fit_theta(a2, 4.0)
        assert r1.theta == r2.theta and r1.tau_r == r2.tau_r
        assert r1.stock_class is r2.stock_class

    def test_flat_acf_flagged_degenerate(self):
        acf = AcfSeries(h=0.1, values=np.ones(100), variance=1.0)
        rep = fit_theta(acf, lag_window=9.9)
        assert rep.degenerate

    def test_short_window_flagged(self):
        lags = 0.1 * np.arange(61)
        acf = AcfSeries(h=0.1, values=np.exp(-lags / 5.0), variance=1.0)
        rep = fit_theta(acf, lag_window=6.0)
        assert not rep.window_ok
        assert rep.tau_r == pytest.approx(5.0, rel=0.05)

    def test_lags_used_counts_fitted_samples(self):
        lags = 0.1 * np.arange(101)
        acf = AcfSeries(h=0.1, values=np.exp(-lags), variance=1.0)
        rep = fit_theta(acf, lag_window=2.0)
        assert rep.lags_used == 21

    def test_validation(self):
        lags = 0.1 * np.arange(101)
        acf = AcfSeries(h=0.1, values=np.exp(-lags), variance=1.0)
        with pytest.raises(InputError):
            fit_theta(np.exp(-lags), lag_window=2.0)
        with pytest.raises(InputError):
            fit_theta(acf, lag_window=0.0)
        with pytest.raises(InputError, match="at least 8"):
            fit_theta(acf, lag_window=0.5)

    def test_concurrent_fits_share_the_curve_cache(self):
        lags = 0.1 * np.arange(201)
        acf = AcfSeries(h=0.1, values=lambda1(2.0 * lags / 1.5), variance=1.0)
        with ThreadPoolExecutor(max_workers=4) as pool:
            reports = list(pool.map(lambda _: fit_theta(acf, 20.0), range(8)))
        assert all(r == reports[0] for r in reports)


# -- synthesized round trip -------------------------------------------------------


def test_round_trip_neutral_stock():
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0, variance=1.0)
    out = simulate_stationary_ensemble(
        model, h=0.125, n_steps=1024, n_paths=60, seed=17
    )
    acf, _ = ensemble_acf(out, max_lag=200)
    rep = fit_theta(acf, lag_window=25.0)
    assert rep.theta == pytest.approx(1.0, abs=0.15)
    assert rep.tau_r == pytest.approx(1.0, rel=0.1)
    assert rep.stock_class is StockClass.NEUTRAL
    assert rep.window_ok and not rep.degenerate
