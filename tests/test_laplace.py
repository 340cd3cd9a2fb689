"""Transform-inversion tests against closed-form ACF pairs."""

import tracemalloc

import numpy as np
import pytest

from glemarket.errors import AccuracyError, CapabilityError, InputError
from glemarket.laplace import (AVG_TERMS, BASE_TERMS, BLOCK_POINTS, invert, invert_at,
                               spectral_density)
from glemarket.models import (ModelSpec, ShapeEvaluator, closed_form_acf, force_evaluator,
                              observable_evaluator)
from glemarket.specfun import bessel_j0, lambda1


def test_white_noise_inverts_to_exponential():
    m = ModelSpec.white_noise(tau_R=2.0, variance=3.0)
    acf = invert(observable_evaluator(m), h=0.04, n_lags=501)
    t = acf.lags
    assert acf.values[0] == 1.0
    assert acf.variance == pytest.approx(3.0)
    assert np.max(np.abs(acf.values - np.exp(-t / 2.0))) < 1e-7


def test_self_similar_inverts_to_lambda1():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    acf = invert(observable_evaluator(m), h=0.05, n_lags=201)
    ref = lambda1(2.0 * acf.lags)
    assert np.max(np.abs(acf.values - ref)) < 1e-6
    # the force shape is identical for this model, scale and all
    facf = invert(force_evaluator(m), h=0.05, n_lags=201)
    assert np.max(np.abs(facf.values - ref)) < 1e-6
    assert facf.variance == pytest.approx(1.0)  # <x^2>/tau_R^2 with both 1


@pytest.mark.parametrize(
    "theta,closed",
    [
        (0.0, lambda t: np.exp(-t)),
        (1.0, lambda t: lambda1(2.0 * t)),
        (2.0, lambda t: bessel_j0(t)),
    ],
)
def test_stock_closed_form_thetas(theta, closed):
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    acf = invert(observable_evaluator(m), h=0.05, n_lags=201)
    assert np.max(np.abs(acf.values - closed(acf.lags))) < 1e-6


@pytest.mark.parametrize("theta", [0.05, 0.2, 0.5, 1.5, 1.9, 2.5, 3.0, 4.0])
def test_stock_inversion_matches_the_series_on_the_fit_grid(theta):
    # the estimator's unit-tau_r grid; the Laplace route stays an independent
    # check of the series closed_form_acf evaluates
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    t = np.linspace(0.0, 50.0, 2001)[1:]
    vals = invert_at(observable_evaluator(m), t)
    assert np.max(np.abs(vals - closed_form_acf(m, t))) < 1e-9


def test_oscillatory_horizon_stays_resolved():
    # ultra-light stock at a long horizon: many ACF oscillations
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    t = np.linspace(1.0, 40.0, 79)
    vals = invert_at(observable_evaluator(m), t)
    assert np.max(np.abs(vals - bessel_j0(t))) < 1e-6


def test_invert_scalar_time():
    m = ModelSpec.white_noise(1.0)
    v = invert_at(observable_evaluator(m), 1.0)
    assert isinstance(v, float)
    assert abs(v - np.exp(-1.0)) < 1e-7
    w = invert_at(observable_evaluator(m), np.float64(2.5))
    assert isinstance(w, float)
    assert w == invert_at(observable_evaluator(m), np.array([2.5]))[0]


def test_unsorted_and_duplicate_times_keep_the_callers_order():
    ev = observable_evaluator(ModelSpec.stock_theta(tau_r=1.0, theta=2.0))
    rng = np.random.default_rng(3)
    base = 0.05 * np.arange(1, 4001)
    # duplicates spread over the whole range, so some straddle block edges
    t = rng.permutation(np.concatenate([base, rng.choice(base, 500)]))
    order = np.argsort(t, kind="stable")
    vals = invert_at(ev, t)
    assert vals.shape == t.shape
    assert np.array_equal(vals[order], invert_at(ev, t[order]))
    assert np.max(np.abs(vals - closed_form_acf(ev.model, t))) < 2e-9


@pytest.mark.parametrize("model", [
    ModelSpec.white_noise(1.0),
    ModelSpec.linear_self_similar(tau_R=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=0.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=2.0),
], ids=["white", "selfsim", "stock0", "stock1", "stock2"])
def test_long_grids_match_closed_forms(model):
    # early lags sum far fewer terms than the 400-time horizon needs
    acf = invert(observable_evaluator(model), h=0.05, n_lags=8000)
    assert np.max(np.abs(acf.values - closed_form_acf(model, acf.lags))) < 2e-9


def test_peak_memory_does_not_grow_with_times_by_horizon():
    # one n_times x n_terms matrix here would be several hundred MB
    ev = observable_evaluator(ModelSpec.stock_theta(tau_r=1.0, theta=0.05))
    tracemalloc.start()
    try:
        invert(ev, h=0.05, n_lags=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_blocks_stay_within_budget_and_adapt_to_their_horizon():
    sizes = []

    class Counting(ShapeEvaluator):
        def __call__(self, p):
            sizes.append(np.size(p))
            return super().__call__(p)

    ev = Counting(ModelSpec.linear_self_similar(tau_R=1.0))
    t = 0.05 * np.arange(1, 8000)
    invert_at(ev, t)
    assert max(sizes) <= BLOCK_POINTS
    # every time at the horizon's term count would cost n_times x width(t_max)
    width = BASE_TERMS + np.ceil(1.8 * ev.freq_scale * t[-1] / np.pi) + AVG_TERMS + 2
    assert sum(sizes) < 0.6 * t.size * width


def test_capability_refusals():
    with pytest.raises(CapabilityError):
        invert(observable_evaluator(ModelSpec.boltzmann(1.0)), h=0.1, n_lags=10)
    with pytest.raises(CapabilityError):
        invert(observable_evaluator(ModelSpec.scaling(tau_r=1.0, theta=0.5)), h=0.1, n_lags=10)
    # white force ACF is a delta, not an invertible function
    with pytest.raises(CapabilityError):
        invert(force_evaluator(ModelSpec.white_noise(1.0)), h=0.1, n_lags=10)


def test_accuracy_error_carries_estimate():
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    with pytest.raises(AccuracyError) as e:
        invert_at(observable_evaluator(m), np.linspace(0.5, 30.0, 60), tolerance=1e-15)
    assert e.value.achieved is not None and e.value.achieved > 1e-15


def test_input_validation():
    ev = observable_evaluator(ModelSpec.white_noise(1.0))
    with pytest.raises(InputError):
        invert(ev, h=0.0, n_lags=10)
    with pytest.raises(InputError):
        invert(ev, h=0.1, n_lags=1)
    with pytest.raises(InputError):
        invert_at(ev, np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        invert_at(ev, 1.0, tolerance=-1.0)


def test_lorentzian_spectrum():
    m = ModelSpec.white_noise(tau_R=0.5, variance=2.0)
    w = np.linspace(0.0, 40.0, 2001)
    s = spectral_density(observable_evaluator(m), w)
    ref = 2.0 * 2.0 * 0.5 / (1.0 + (0.5 * w) ** 2)
    assert np.max(np.abs(s.values - ref)) < 1e-12


def test_semicircle_spectrum_and_parseval():
    m = ModelSpec.linear_self_similar(tau_R=2.0, variance=1.5)
    w = np.linspace(0.0, 2.5, 4001)
    s = spectral_density(observable_evaluator(m), w)
    band = w <= 1.0  # edge at omega = 2/tau_R
    ref = 2.0 * 1.5 * 2.0 * np.sqrt(np.maximum(1.0 - w[band] ** 2, 0.0))
    assert np.max(np.abs(s.values[band] - ref)) < 1e-9
    assert np.all(s.values[w > 1.0 + 1e-12] == 0.0)
    # variance = (1/pi) integral S
    est = np.trapezoid(s.values, w) / np.pi
    assert est == pytest.approx(1.5, rel=1e-3)


def test_ultra_light_spectrum_has_interior_peak():
    # for theta > 2 the continuous spectrum is
    # 2 tau_r sqrt(1-(theta w/2)^2) / (1-(theta-1) w^2) inside the band,
    # maximized at w^2 = (8(theta-1)-theta^2)/((theta-1) theta^2); the
    # undamped line at w = 1/sqrt(theta-1) lies outside the band
    theta = 3.0
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    w = np.linspace(0.0, 3.0, 6001)
    s = spectral_density(observable_evaluator(m), w)
    peak = w[np.argmax(s.values)]
    w_star = np.sqrt((8.0 * (theta - 1.0) - theta**2) / ((theta - 1.0) * theta**2))
    assert s.values.max() > s.values[0]
    assert peak == pytest.approx(w_star, abs=2e-3)
    # beyond the force band the continuous part vanishes
    assert np.all(s.values[w > 2.0 / theta + 1e-9] == 0.0)


def test_spectrum_input_validation():
    ev = observable_evaluator(ModelSpec.white_noise(1.0))
    with pytest.raises(InputError):
        spectral_density(ev, np.array([1.0]))
    with pytest.raises(InputError):
        spectral_density(ev, np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(InputError):
        spectral_density(ev, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(CapabilityError):
        spectral_density(observable_evaluator(ModelSpec.fractional(tau_r=1.0, theta=0.5)), np.array([0.0, 1.0]))
