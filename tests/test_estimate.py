"""Tests for the ACF estimators and the (tau_r, theta) least-squares fit."""

import functools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ensemble_acf_unbuffered,
    fit_theta_unpruned,
    midpoint_folded_spectrum,
    stationary_ensemble_full_draw,
)
from scipy.linalg import toeplitz

from glemarket import estimate, laplace, series
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

    @staticmethod
    def assert_matches_naive(out, max_lag):
        acf, se = ensemble_acf(out, max_lag)
        rows = np.stack(
            [naive_biased_autocovariance(p, max_lag) for p in out.paths]
        )
        mean = rows.mean(axis=0)
        assert np.abs(acf.values - mean / mean[0]).max() < 1e-10
        assert acf.variance == pytest.approx(mean[0], rel=1e-12)
        if out.n_paths > 1:
            ref_se = rows.std(axis=0, ddof=1) / np.sqrt(out.n_paths) / mean[0]
            assert np.abs(se - ref_se).max() < 1e-10

    def test_matches_per_path_average(self):
        self.assert_matches_naive(simulate_white_returns(1.0, 1.0, 512, 0.1, 6, seed=9), 32)

    @pytest.mark.parametrize(
        "n_steps,max_lag,n_paths",
        [
            # n + max_lag one above the 5-smooth lengths 16, 640, 1000 and
            # 2025: an FFT one sample shorter wraps a product into max_lag
            (14, 3, 3),
            (513, 128, 3),
            (801, 200, 3),
            (1621, 405, 2),
            # around the FFT block of paths
            (64, 16, 1),
            (64, 16, series._ACF_BLOCK - 1),
            (64, 16, series._ACF_BLOCK),
            (64, 16, series._ACF_BLOCK + 1),
        ],
    )
    def test_fft_length_and_blocks_match_per_path_average(self, n_steps, max_lag, n_paths):
        out = simulate_white_returns(1.0, 1.0, n_steps, 0.1, n_paths, seed=9)
        self.assert_matches_naive(out, max_lag)
        # the reused padded input and output buffers change no bit
        acf, se = ensemble_acf(out, max_lag)
        values, variance, ref_se = ensemble_acf_unbuffered(out, max_lag)
        assert np.array_equal(acf.values, values) and acf.variance == variance
        assert np.array_equal(se, ref_se)

    def test_peak_memory_holds_one_block_of_paths(self):
        def peak(n_paths):
            paths = np.random.default_rng(2).standard_normal((n_paths, 1024))
            ensemble = PathEnsemble(h=0.1, paths=paths, kind="return-rate")
            tracemalloc.start()
            try:
                ensemble_acf(ensemble, 8)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # transforming every path at once would grow the peak eightfold
        block = series._ACF_BLOCK
        assert peak(16 * block) <= 1.1 * peak(2 * block)

    def test_validation(self):
        out = simulate_white_returns(1.0, 1.0, 64, 0.1, 2, seed=1)
        with pytest.raises(InputError):
            ensemble_acf(np.ones((4, 64)), 8)
        with pytest.raises(InputError):
            ensemble_acf(out, 0)
        with pytest.raises(InputError):
            ensemble_acf(out, 17)  # needs >= 4*max_lag samples
        # a lag count is an integer: neither truncated nor read from a bool
        for max_lag in (2.9, True):
            with pytest.raises(InputError, match="max_lag must be an integer"):
                ensemble_acf(out, max_lag)
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

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.3, 3.0])
    def test_batched_scan_matches_objective_bit_for_bit(self, theta):
        x = simulate_white_returns(1.0, 1.0, 4000, 0.1, 1, seed=6).paths[0]
        acf = sample_acf(x, 100, h=0.1)
        lags, data = acf.h * np.arange(101), acf.values
        model = model_curve(theta)
        # the smallest tau_r puts lags[-1] / tau_r above _U_MAX: the inf entries
        taus = 0.6 * np.logspace(-1.2, 1.2, 97)
        scan = estimate._scan_tau(lags, data, taus, model)
        ref = [estimate._objective(lags, data, tau, model) for tau in taus]
        assert np.isinf(scan).sum() == np.isinf(ref).sum() > 0
        assert scan.tolist() == ref

    @pytest.mark.parametrize(
        "theta,seed,want_theta,want_tau",
        [
            (0.5, 1, 0.5, 0.9954002662317718),
            (1.0, 1, 1.0, 0.998080861242889),
            (1.5, 1, 1.5000000000000002, 0.9983623996241042),
            (3.0, 1, 2.8375000000000004, 1.0412116033755954),
            (0.5, 2, 0.5, 0.9963326348743023),
            (1.0, 2, 1.0, 0.9975531030290642),
            (1.5, 2, 1.475, 1.014157181444677),
            (3.0, 2, 2.9, 1.024859664579099),
        ],
    )
    def test_seeded_ensemble_fits_are_frozen(self, theta, seed, want_theta, want_tau):
        # the fits of the per-path FFT and per-point scan implementation:
        # theta exactly, tau_r up to the golden section's ulp-level path.
        # The ensembles come from the full-draw reference sampler with the
        # midpoint fold, the bits these fits were frozen on, so only the
        # estimator is under test
        model = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
        paths = stationary_ensemble_full_draw(
            model, h=0.125, n_steps=2048, n_paths=500, seed=seed, fold=midpoint_folded_spectrum
        )
        out = PathEnsemble(h=0.125, paths=paths, kind="return-rate")
        acf, _ = ensemble_acf(out, max_lag=320)
        rep = fit_theta(acf, lag_window=40.0)
        assert rep.theta == want_theta
        assert rep.tau_r == pytest.approx(want_tau, rel=1e-8)

    @pytest.mark.parametrize("h", [0.1, 0.125])
    def test_multi_model_scan_matches_objective_bit_for_bit(self, h):
        x = simulate_white_returns(1.0, 1.0, 4000, h, 1, seed=6).paths[0]
        acf = sample_acf(x, 100, h=h)
        lags, data = acf.h * np.arange(101), acf.values
        models = [model_curve(theta) for theta in (0.0, 0.4, 1.0, 2.0, 2.6, 4.0)]
        # tau_r below lags[-1] / _U_MAX gives the inf entries; at h = 0.125
        # tau_r = 0.25 puts lags[-1] / tau_r = 50.0 exactly on the last node,
        # np.interp's x == xp[-1] branch
        taus = np.append(0.25, 0.6 * np.logspace(-1.2, 1.2, 97))
        scans = estimate._scan_models(lags, data, taus, models)
        assert scans.shape == (len(models), taus.size)
        for model, row in zip(models, scans):
            ref = [estimate._objective(lags, data, tau, model) for tau in taus]
            assert row.tolist() == ref
        assert np.isinf(scans).any() and np.isfinite(scans[:, 0]).all()
        assert bool(lags[-1] / 0.25 == estimate._U_MAX) == (h == 0.125)

    @given(
        theta=st.sampled_from([0.0, 0.4, 1.0, 1.6, 2.0, 2.4, 3.0, 4.0]),
        tau_data=st.floats(0.2, 5.0),
        theta_data=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        noise=st.floats(0.0, 0.3),
        lo=st.floats(0.05, 5.0),
        width=st.floats(1.0, 1.3),
        where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bracket_floor_bounds_the_objective(
        self, theta, tau_data, theta_data, noise, lo, width, where, seed
    ):
        # every tau_r the golden section can evaluate on [lo, hi] is exp of a
        # point of [log lo, log hi]; lags[-1] / lo exceeds _U_MAX for lo
        # below 0.32, where the objective is inf on part of the bracket
        lags = 0.1 * np.arange(161)
        rng = np.random.default_rng(seed)
        data = np.interp(lags / tau_data, *model_curve(theta_data))
        data = data + noise * rng.standard_normal(lags.size)
        model = model_curve(theta)
        hi = lo * width
        floor = estimate._bracket_floor(lags, data, model, lo, hi)
        a, b = np.log(lo), np.log(hi)
        for x in [a, b] + [a + w * (b - a) for w in where]:
            assert floor <= estimate._objective(lags, data, np.exp(x), model)
        assert floor <= estimate._refine_tau(lags, data, model, lo, hi)[1]

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


# -- the pruned search against the unpruned one ------------------------------------


@functools.lru_cache(maxsize=None)
def frozen_ensemble_acf(theta, seed):
    model = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    paths = stationary_ensemble_full_draw(
        model, h=0.125, n_steps=2048, n_paths=500, seed=seed, fold=midpoint_folded_spectrum
    )
    return ensemble_acf(PathEnsemble(h=0.125, paths=paths, kind="return-rate"), max_lag=320)[0]


def exact_curve_acf(theta):
    grid, curve = model_curve(theta)
    lags = 0.05 * np.arange(321)
    return AcfSeries(h=0.05, values=np.interp(lags / 0.8, grid, curve), variance=1.0), 16.0


def closed_acf(values_of, h, n, window):
    lags = h * np.arange(n)
    return AcfSeries(h=h, values=values_of(lags), variance=1.0), window


def white_sample_acf(seed):
    x = np.random.default_rng(seed).standard_normal(4000)
    return sample_acf(x, 100, h=0.1), 10.0


FIT_CASES = {
    **{
        f"frozen-theta{theta}-seed{seed}": lambda t=theta, s=seed: (frozen_ensemble_acf(t, s), 40.0)
        for seed in (1, 2)
        for theta in (0.5, 1.0, 1.5, 3.0)
    },
    **{f"exact-theta{theta}": lambda t=theta: exact_curve_acf(t) for theta in (0.4, 1.5, 2.6, 3.7)},
    "exp": lambda: closed_acf(lambda t: np.exp(-t / 2.0), 0.1, 201, 20.0),
    "neutral": lambda: closed_acf(lambda t: lambda1(2.0 * t / 1.5), 0.1, 201, 20.0),
    "j0": lambda: closed_acf(lambda t: bessel_j0(t / 1.2), 0.1, 201, 20.0),
    "flat": lambda: closed_acf(np.ones_like, 0.1, 100, 9.9),
    "short-window": lambda: closed_acf(lambda t: np.exp(-t / 5.0), 0.1, 61, 6.0),
    **{f"white-seed{seed}": lambda s=seed: white_sample_acf(s) for seed in (2, 3, 4)},
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_pruned_fit_equals_the_unpruned_search(case, monkeypatch):
    acf, window = FIT_CASES[case]()
    brackets = []
    refine = estimate._refine_tau

    def recording(lags, data, model, lo, hi):
        brackets.append(lags[-1] / lo)
        return refine(lags, data, model, lo, hi)

    monkeypatch.setattr(estimate, "_refine_tau", recording)
    report = fit_theta(acf, window)
    polished = len(brackets)
    want = fit_theta_unpruned(acf, window)
    assert report == want
    # the unpruned search polishes every theta it profiles
    assert polished <= len(brackets) - polished
    if not case == "flat":
        assert polished < len(brackets) - polished
    if case.startswith("white"):
        # a polished bracket reaches u > _U_MAX, where the objective is inf
        assert max(brackets[:polished]) > estimate._U_MAX


def price_path(n_prices, h=0.125, seed=5):
    """A one-path random-walk price ensemble of ``n_prices`` samples."""
    steps = np.random.default_rng(seed).normal(0.0, 0.01, n_prices - 1)
    return PathEnsemble(h=h, paths=np.exp(np.concatenate([[0.0], np.cumsum(steps)]))[None, :],
                        kind="price")


class TestFitPrices:
    @pytest.mark.parametrize("prices,kwargs,error,message", [
        (PathEnsemble(h=0.1, paths=np.full((1, 200), 42.0), kind="price"), {},
         DegenerateSeriesError, "series has zero variance after detrending"),
        (price_path(20), {}, InputError, "series too short: fewer than 8 usable ACF lags"),
        (PathEnsemble(h=0.1, paths=np.ones((1, 200))), {},
         InputError, "prices must have kind 'price', got 'return-rate'"),
        (PathEnsemble(h=0.1, paths=np.ones((2, 200)), kind="price"), {},
         InputError, "prices must hold one path, got 2"),
        (price_path(400), {"detrend": "linear"},
         InputError, "detrend must be 'sample-mean' or 'none', got 'linear'"),
        (price_path(400), {"max_lag": 40.0}, InputError, "max_lag must be an integer"),
    ], ids=["constant", "20-prices", "return-rate", "2-paths", "linear-detrend", "float-max-lag"])
    def test_refusals(self, prices, kwargs, error, message):
        with pytest.raises(InputError) as info:
            estimate.fit_prices(prices, **kwargs)
        assert type(info.value) is error and str(info.value) == message

    def test_returns_the_report_of_the_acf_it_fitted(self):
        prices = price_path(1200)
        report, acf = estimate.fit_prices(prices, max_lag=400, lag_window=20.0, detrend="none")
        # 1199 returns support 299 lags, below the cap of 400
        assert len(acf) == 300 and acf.h == prices.h
        log_returns = np.diff(np.log(prices.paths[0])) / prices.h
        want = sample_acf(log_returns, 299, h=prices.h)
        assert acf.values.tobytes() == want.values.tobytes()
        assert report == fit_theta(want, 20.0)

    def test_variance_is_a_python_float(self):
        report, acf = estimate.fit_prices(price_path(1200))
        assert type(report.variance) is float and report.variance == acf.variance
