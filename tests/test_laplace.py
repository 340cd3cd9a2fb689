"""Transform-inversion tests against closed-form ACF pairs."""

import tracemalloc

import numpy as np
import pytest

import glemarket.laplace as laplace
from glemarket.errors import AccuracyError, CapabilityError, InputError, SpectralPositivityError
from glemarket.laplace import (CONTOUR_POINT_BOUND, DIRECT_TERM_BOUND, EPSILON_TERMS, MIN_TERMS,
                               _wynn, invert, invert_at, spectral_density)
from glemarket.models import (ModelSpec, ShapeEvaluator, closed_form_acf, force_evaluator,
                              observable_evaluator)
from glemarket.specfun import bessel_j0, lambda1
from oracles import euler_invert_at


class Counting(ShapeEvaluator):
    """Observable evaluator that logs the size of every image evaluation."""

    def __init__(self, model):
        super().__init__(model)
        object.__setattr__(self, "sizes", [])

    def __call__(self, p):
        self.sizes.append(np.size(p))
        return super().__call__(p)


def euler(ev, times):
    return euler_invert_at(ev, ev.transform_scale, ev.freq_scale, times)


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


def test_uniform_grid_image_points_grow_with_the_horizon_only():
    # the per-time Euler lines needed 2.1e6 image points for this grid
    ev = Counting(ModelSpec.linear_self_similar(tau_R=1.0))
    n = 8000
    invert(ev, h=0.05, n_lags=n)
    t_max = 0.05 * (n - 1)
    # octave tops up to 2 t_max: the K terms sum to at most 2 K(2 t_max)
    horizon = 2.0 * np.ceil(2.0 * ev.freq_scale * 2.0 * t_max / np.pi)
    per_octave = MIN_TERMS + EPSILON_TERMS + 1
    assert sum(ev.sizes) <= horizon + per_octave * (np.log2(n) + 2) + 8
    assert sum(ev.sizes) < 2.1e6 / 500
    # doubling the lags at a fixed horizon adds one octave, not n points
    ev2 = Counting(ModelSpec.linear_self_similar(tau_R=1.0))
    invert(ev2, h=0.025, n_lags=2 * n - 1)
    assert sum(ev2.sizes) - sum(ev.sizes) <= per_octave + 1


def test_small_theta_grid_inverts_and_matches_the_euler_oracle():
    # stock theta -> 0 needs ~1/theta image points per contour; the per-time
    # Euler lines needed 1.5e8 for this grid and were refused
    ev = observable_evaluator(ModelSpec.stock_theta(tau_r=1.0, theta=0.0125))
    acf = invert(ev, h=0.05, n_lags=8000)
    sample = np.arange(1, 8000, 97)
    assert np.max(np.abs(acf.values[sample] - euler(ev, acf.lags[sample]))) < 2e-9
    assert np.max(np.abs(acf.values - closed_form_acf(ev.model, acf.lags))) < 2e-9


@pytest.mark.parametrize("model", [
    ModelSpec.linear_self_similar(tau_R=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=3.0),
    ModelSpec.boltzmann(tau_R=1.0),
    ModelSpec.differential(tau_R=1.0),
], ids=["selfsim", "stock0.5", "stock3", "boltzmann", "differential"])
def test_fft_and_direct_sums_match_the_euler_oracle(model):
    ev = observable_evaluator(model)
    acf = invert(ev, h=0.05, n_lags=1200)
    assert np.max(np.abs(acf.values[1:] - euler(ev, acf.lags[1:]))) < 2e-9
    rng = np.random.default_rng(5)
    t = rng.uniform(0.01, 60.0, 300)
    t = rng.permutation(np.concatenate([t, rng.choice(t, 60)]))
    assert np.max(np.abs(invert_at(ev, t) - euler(ev, t))) < 2e-9


def test_wynn_keeps_converged_sums_without_warnings():
    # equal partial sums make every difference zero; warnings are errors here
    sums = np.full((EPSILON_TERMS + 1, 3), 0.25 + 0.5j)
    sums[:, 2] = 1.0 - 0.5 ** np.arange(EPSILON_TERMS + 1)  # geometric: exact limit 1
    limit, change = _wynn(sums)
    assert np.all(np.isfinite(limit)) and np.all(np.isfinite(change))
    assert np.allclose(limit, [0.25 + 0.5j, 0.25 + 0.5j, 1.0], rtol=0, atol=1e-15)


def test_oversized_inversion_refused_before_any_evaluation():
    # stock theta -> 0: at arbitrary times each image point enters every
    # sum of its octave, about 2.8e9 terms here
    ev = Counting(ModelSpec.stock_theta(tau_r=1.0, theta=1e-3))
    with pytest.raises(InputError, match="--route closed") as e:
        invert_at(ev, 0.05 * np.arange(1, 8000))
    assert ev.sizes == []
    terms = float(str(e.value).split(" need ")[1].split()[0])
    assert terms > DIRECT_TERM_BOUND
    # the grid sums each point once, but one contour still has to hold them
    ev = Counting(ModelSpec.stock_theta(tau_r=1.0, theta=1e-4))
    with pytest.raises(InputError, match="image points on one contour") as e:
        invert(ev, h=0.05, n_lags=8000)
    assert ev.sizes == []
    points = int(str(e.value).split(" need ")[1].split()[0])
    assert points > CONTOUR_POINT_BOUND


def test_oversized_grid_refused_before_its_lags_exist(monkeypatch):
    # the bound is checked from the octave tops alone: with it patched low, a
    # 2^22-lag grid is refused before any of its octaves' lag arrays (32 MB
    # in all) is built
    monkeypatch.setattr(laplace, "CONTOUR_POINT_BOUND", 1000)
    ev = observable_evaluator(ModelSpec.linear_self_similar(1.0))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="image points on one contour"):
            invert(ev, 0.05, 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_boltzmann_inversion_hits_the_exact_zero():
    # the Boltzmann identity t c = (1 - t/2)(c*c) forces c(2 tau_R) = 0; the
    # inversion of the complex-plane image knows nothing of the identity
    acf = invert(observable_evaluator(ModelSpec.boltzmann(tau_R=1.5)), h=0.01, n_lags=1001)
    assert abs(acf.values[300]) <= 1e-12
    assert acf.values[290] > 0.0 > acf.values[310]


def test_capability_refusals():
    # the functional-equation models are solved on the real axis only, and
    # the refusal names what does serve them
    with pytest.raises(CapabilityError, match="real-axis audit"):
        invert(observable_evaluator(ModelSpec.fractional(tau_r=1.0, theta=1.5)), h=0.1, n_lags=10)
    with pytest.raises(CapabilityError, match="real-axis audit"):
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


def test_negative_spectrum_is_named_as_the_models():
    # the Boltzmann image has Re y(i omega) < 0 around omega tau_R = 5 to 6, so
    # its ACF is not positive definite: no roundoff, and no accuracy to gain
    ev = observable_evaluator(ModelSpec.boltzmann(tau_R=1.0))
    w = np.linspace(0.0, 200.0, 2001)
    with pytest.raises(SpectralPositivityError) as err:
        spectral_density(ev, w)
    vals = 2.0 * ev.image_zero * np.real(ev(1j * w))
    worst = int(np.argmin(vals))
    assert err.value.worst == vals[worst] < -0.04
    assert f"omega = {w[worst]:.6g}," in str(err.value)
    assert "ACF of boltzmann is not positive definite" in str(err.value)
    # the differential spectrum is positive: it comes back clamped at >= 0
    s = spectral_density(observable_evaluator(ModelSpec.differential(tau_R=1.0)),
                         np.linspace(0.0, 2000.0, 20001))
    assert s.values.min() >= 0.0 and s.values[0] > 0.0


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
