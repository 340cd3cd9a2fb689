"""Time-domain evolution tests: kernel propagation, stochastic integration,
and the causal convolution identities of the Lambert-type models."""

import numpy as np
import pytest

from glemarket.errors import CapabilityError, InputError
from glemarket.models import ModelSpec, observable_shape
from glemarket.series import KernelSeries, PathEnsemble
from glemarket.specfun import bessel_j0, lambda1
from glemarket.volterra import (
    boltzmann_acf,
    differential_acf,
    _series_inverse,
    integrate_gle,
    memory_kernel,
    propagate_acf,
    simulate_stationary_ensemble,
)
from oracles import integrate_gle_direct

# High-precision inversion references for the Lambert-type ACFs
# (real-axis Gaver-Stehfest at 120+ digits, degree 28-40 cross-checked;
# lag in units of tau_R).  The Boltzmann ACF crosses zero exactly at
# lag 2 and has a small negative lobe just beyond.
BOLTZ_REF = {
    0.2: 1.2128481727605,
    0.5: 0.96788289807657,
    1.0: 0.36787944109496,
    1.5: 0.068524587927,
    2.2: -0.00335913795367,
    2.5: -0.00234481797631,
}
DIFF_REF = {
    0.2: 0.60781540314053,
    0.5: 0.41510749742059,
    1.0: 0.27067056647323,
    1.5: 0.19460869331856,
    2.0: 0.14652511110987,
    3.0: 0.089235078359991,
}
FIRST_ZERO = 1.915852985  # leading zero of the self-similar ACF, 2t/tau = 3.8317


def pl_transform(acf, p):
    """Laplace transform of the piecewise-linear interpolant of an ACF."""
    h = acf.h
    c = acf.values
    x = p * h
    ex = np.exp(-x)
    w0 = (1.0 - (1.0 - ex) / x) / p
    w1 = ((1.0 - ex) / x - ex) / p
    e = np.exp(-p * h * np.arange(c.size - 1))
    return float(np.sum(e * (c[:-1] * w0 + c[1:] * w1)))


# -- memory kernels ---------------------------------------------------------


def test_self_similar_kernel_values():
    m = ModelSpec.linear_self_similar(tau_R=2.0)
    k = memory_kernel(m, h=0.1, n_points=11)
    assert k.values[0] == pytest.approx(0.25)  # 1/tau_R^2
    assert np.allclose(k.values, lambda1(2.0 * k.lags / 2.0) / 4.0)


def test_stock_kernel_values():
    m = ModelSpec.stock_theta(tau_r=0.5, theta=2.0)  # tau_R = 1.0
    k = memory_kernel(m, h=0.1, n_points=11)
    assert k.values[0] == pytest.approx(2.0)  # 1/(tau_r tau_R)
    assert np.allclose(k.values, lambda1(2.0 * k.lags) / 0.5)


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec.white_noise(tau_R=1.0),
        ModelSpec.stock_theta(tau_r=1.0, theta=0.0),
        ModelSpec.boltzmann(tau_R=1.0),
        ModelSpec.scaling(tau_r=1.0, theta=2.0),
    ],
)
def test_kernel_refusals(model):
    with pytest.raises(CapabilityError):
        memory_kernel(model, h=0.1, n_points=8)


def test_kernel_grid_validation():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    with pytest.raises(InputError):
        memory_kernel(m, h=0.0, n_points=8)
    with pytest.raises(InputError):
        memory_kernel(m, h=0.1, n_points=1)


# -- deterministic propagation ----------------------------------------------


def test_kernel_route_matches_closed_acf():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    h, n = 1.0 / 200, 2001  # [0, 10 tau_R]
    acf = propagate_acf(memory_kernel(m, h, n), n)
    assert np.max(np.abs(acf.values - lambda1(2.0 * acf.lags))) < 2e-5
    # locate the leading zero by linear crossing
    i = np.where(np.diff(np.sign(acf.values)) < 0)[0][0]
    z = acf.lags[i] + acf.values[i] * h / (acf.values[i] - acf.values[i + 1])
    assert abs(z - FIRST_ZERO) < 1e-4


def test_kernel_route_stock_ultralight():
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    h, n = 1.0 / 200, 2001
    acf = propagate_acf(memory_kernel(m, h, n), n)
    assert np.max(np.abs(acf.values - bessel_j0(acf.lags))) < 1e-5


def test_kernel_route_second_order_convergence():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    errs = {}
    for nr in (50, 100):
        h, n = 1.0 / nr, 10 * nr + 1
        acf = propagate_acf(memory_kernel(m, h, n), n)
        errs[nr] = np.max(np.abs(acf.values - lambda1(2.0 * acf.lags)))
    assert 3.5 < errs[50] / errs[100] < 4.5


def test_propagation_validation():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    k = memory_kernel(m, h=0.1, n_points=8)
    with pytest.raises(InputError):
        propagate_acf(k, 9)  # kernel shorter than the horizon


# -- stochastic integration ---------------------------------------------------


def zero_kernel(h, n):
    return KernelSeries(h=h, values=np.zeros(n))


def test_zero_kernel_is_cumulative_trapezoid():
    # the memoryless limit runs through the transfer function too
    h = 0.25
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 33))
    pe = PathEnsemble(h=h, paths=f, kind="force")
    r = integrate_gle(zero_kernel(h, 33), pe, r0=1.5)
    want = 1.5 + np.concatenate(
        [np.zeros((2, 1)), np.cumsum(0.5 * h * (f[:, 1:] + f[:, :-1]), axis=1)],
        axis=1,
    )
    assert np.max(np.abs(r.paths - want)) < 1e-14


def test_fft_combine_matches_direct_recurrence():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=(3, 64))
    pe = PathEnsemble(h=0.05, paths=f, kind="force")
    k = memory_kernel(m, 0.05, 64)
    r0 = np.array([0.3, -1.0, 2.0])
    ra = integrate_gle(k, pe, r0=r0)
    rb = integrate_gle_direct(k.values, 0.05, f, r0=r0)
    assert np.max(np.abs(ra.paths - rb)) < 1e-12
    assert ra.kind == "return-rate"


ORACLE_MODELS = [
    ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=3.0),  # ultra-light: undamped line
    ModelSpec.linear_self_similar(tau_R=2.0),
]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=["stock0.5", "stock1", "stock3", "selfsim"])
def test_transfer_route_matches_quadratic_march(model):
    h, n = 0.125, 2048
    k = memory_kernel(model, h, n)
    rng = np.random.default_rng(17)
    f = rng.normal(size=(2, n))
    r0 = np.array([0.0, 0.7])
    fast = integrate_gle(k, PathEnsemble(h=h, paths=f, kind="force"), r0=r0)
    assert np.max(np.abs(fast.paths - integrate_gle_direct(k.values, h, f, r0=r0))) < 1e-12
    acf = propagate_acf(k, n)
    march = integrate_gle_direct(k.values, h, np.zeros(n), r0=1.0)[0]
    assert np.max(np.abs(acf.values - march)) < 1e-12


@pytest.mark.parametrize("n", [1000, 4097])
@pytest.mark.parametrize("model", ORACLE_MODELS[2:], ids=["stock3", "selfsim"])
def test_series_inverse_at_uneven_lengths(model, n):
    # D(z) of the update, built from its definition; lengths that are not
    # powers of two end the Newton doubling on a partial step
    h = 0.125
    k = memory_kernel(model, h, n).values
    d = np.zeros(n)
    d[0], d[1] = 1.0, -1.0
    half = k.copy()
    half[0] *= 0.5
    d += 0.5 * h * h * half
    d[1:] += 0.5 * h * h * half[:-1]
    g = _series_inverse(d, n)
    assert g.size == n
    unit = np.zeros(n)
    unit[0] = 1.0
    assert np.max(np.abs(np.convolve(d, g)[:n] - unit)) < 1e-13


def test_unforced_relaxation_reproduces_acf_route():
    # with F = 0 and r0 = 1 the update is exactly the ACF recurrence
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    h, n = 1.0 / 200, 801
    k = memory_kernel(m, h, n)
    quiet = PathEnsemble(h=h, paths=np.zeros((1, n)), kind="force")
    r = integrate_gle(k, quiet, r0=1.0)
    acf = propagate_acf(k, n)
    assert np.max(np.abs(r.paths[0] - acf.values)) < 1e-13


def test_integration_preserves_stream_metadata():
    pe = PathEnsemble(
        h=0.1,
        paths=np.zeros((2, 16)),
        kind="force",
        master_seed=42,
        stream_indices=(0, 1),
    )
    r = integrate_gle(zero_kernel(0.1, 16), pe, r0=0.0)
    assert r.master_seed == 42
    assert r.stream_indices == (0, 1)


def test_integration_validation():
    pe = PathEnsemble(h=0.1, paths=np.zeros((1, 16)), kind="force")
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.2, 16), pe)  # step mismatch
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.1, 8), pe)  # kernel too short
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.1, 16), np.zeros((1, 16)))


# -- Lambert-type causal identities -------------------------------------------


def test_boltzmann_acf_reference_points():
    m = ModelSpec.boltzmann(tau_R=1.0)
    h = 1.0 / 200
    acf = boltzmann_acf(m, h, 501)
    for lag, ref in BOLTZ_REF.items():
        if lag <= 2.0:
            got = acf.values[int(round(lag / h))]
            assert got == pytest.approx(ref, abs=3e-4)


def test_boltzmann_exact_zero_and_negative_lobe():
    m = ModelSpec.boltzmann(tau_R=1.0)
    h = 1.0 / 200
    acf = boltzmann_acf(m, h, 601)
    v = acf.values
    assert abs(v[400]) < 1e-12  # grid point exactly at lag 2 tau_R
    assert v[390] > 0 > v[410]
    # the negative lobe is genuine and small
    assert v[440] == pytest.approx(BOLTZ_REF[2.2], abs=5e-5)
    assert v[500] == pytest.approx(BOLTZ_REF[2.5], abs=5e-5)


def test_boltzmann_overshoot_window():
    m = ModelSpec.boltzmann(tau_R=2.0)
    acf = boltzmann_acf(m, h=0.01, n_steps=201)
    peak = acf.values.max()
    where = acf.lags[np.argmax(acf.values)]
    assert 1.205 < peak < 1.220
    assert 0.2 < where < 0.6  # around 0.2 tau_R with tau_R = 2


def test_differential_acf_reference_points():
    m = ModelSpec.differential(tau_R=1.0)
    h = 1.0 / 200
    acf = differential_acf(m, h, 701)
    for lag, ref in DIFF_REF.items():
        got = acf.values[int(round(lag / h))]
        assert got == pytest.approx(ref, abs=3e-4)


def test_differential_acf_monotone_without_overshoot():
    m = ModelSpec.differential(tau_R=1.0)
    acf = differential_acf(m, 1.0 / 100, 1001)
    assert acf.values[0] == 1.0
    assert np.all(np.diff(acf.values) < 0)
    assert acf.values[-1] > 0


@pytest.mark.parametrize(
    "make,march,ref",
    [
        (ModelSpec.boltzmann, boltzmann_acf, BOLTZ_REF[0.5]),
        (ModelSpec.differential, differential_acf, DIFF_REF[0.5]),
    ],
)
def test_march_converges_under_refinement(make, march, ref):
    m = make(tau_R=1.0)
    errs = []
    for nr in (100, 400):
        acf = march(m, 1.0 / nr, nr // 2 + 1)
        errs.append(abs(acf.values[-1] - ref))
    assert errs[0] / errs[1] > 6.0


def test_marched_transform_matches_model_image():
    # forward-transforming the marched ACF must land back on the image
    mb = ModelSpec.boltzmann(tau_R=1.0)
    ab = boltzmann_acf(mb, 1.0 / 400, 4001)  # horizon 10 tau_R
    for p in (0.5, 1.0, 2.0, 5.0):
        assert pl_transform(ab, p) == pytest.approx(observable_shape(mb, p), abs=1e-4)
    md = ModelSpec.differential(tau_R=1.0)
    ad = differential_acf(md, 1.0 / 200, 6001)  # horizon 30 tau_R, slow tail
    for p in (0.5, 1.0, 2.0, 5.0):
        assert pl_transform(ad, p) == pytest.approx(observable_shape(md, p), abs=4e-4)


def test_march_scales_with_tau_R():
    # tau_R only rescales the lag axis; agreement is limited by the float64
    # noise floor of the Gaver-Stehfest startup (~1e-7), not by h
    h = 1.0 / 100
    a1 = boltzmann_acf(ModelSpec.boltzmann(tau_R=1.0), h, 201)
    a3 = boltzmann_acf(ModelSpec.boltzmann(tau_R=3.0), 3.0 * h, 201)
    assert np.max(np.abs(a1.values - a3.values)) < 1e-5


def test_march_variant_guard():
    with pytest.raises(InputError):
        boltzmann_acf(ModelSpec.differential(tau_R=1.0), 0.01, 64)
    with pytest.raises(InputError):
        differential_acf(ModelSpec.boltzmann(tau_R=1.0), 0.01, 64)


# -- stationary ensembles ------------------------------------------------------


def sample_acf_bands(x, max_lag):
    """Per-path biased ACF averaged across paths, with ensemble SE bands."""
    n_paths, n = x.shape
    m = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, m)
    ac = np.fft.irfft(f * np.conj(f), m)[:, : max_lag + 1] / n
    mean = ac.mean(axis=0) / ac[:, 0].mean()
    se = ac.std(axis=0, ddof=1) / np.sqrt(n_paths) / ac[:, 0].mean()
    return mean, se


def test_stationary_ensemble_neutral_stock_acf():
    # theta = 1: closed-form ACF lambda1(2 tau / tau_r), no spectral line
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0, variance=1.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=1024, n_paths=100, seed=5)
    assert out.kind == "return-rate"
    assert out.paths.shape == (100, 1024)
    assert out.master_seed == 5 and out.stream_indices == tuple(range(100))
    mean, se = sample_acf_bands(out.paths, 60)
    truth = lambda1(2.0 * 0.1 * np.arange(61))
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])
    assert abs(out.paths.var() - 1.0) < 0.1


def test_stationary_ensemble_self_similar_acf():
    model = ModelSpec.linear_self_similar(tau_R=2.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=1024, n_paths=100, seed=5)
    mean, se = sample_acf_bands(out.paths, 60)
    truth = lambda1(2.0 * 0.1 * np.arange(61) / 2.0)
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])


def test_stationary_ensemble_ultralight_carries_the_line():
    # theta = 3: the ACF includes the undamped 2R cos(omega tau) component;
    # the inverted image is the truth (the pole contributes automatically)
    from glemarket.laplace import invert_at
    from glemarket.models import observable_evaluator

    model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0, variance=1.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=2048, n_paths=150, seed=11)
    truth = np.empty(81)
    truth[0] = 1.0
    truth[1:] = invert_at(observable_evaluator(model), 0.1 * np.arange(1, 81))
    mean, se = sample_acf_bands(out.paths, 80)
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])
    # stationary from the first sample: quarter-window variances are flat
    v = out.paths.var(axis=0)
    quarters = v.reshape(4, -1).mean(axis=1)
    assert np.all(np.abs(quarters - 1.0) < 0.15)
    assert abs(out.paths.var() - 1.0) < 0.1


def test_stationary_ensemble_determinism_and_stream_stability():
    model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0, variance=1.0)
    a = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=9)
    b = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=9)
    c = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=8, seed=9)
    d = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=10)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.paths, c.paths[:4])
    assert not np.array_equal(a.paths, d.paths)


def test_stationary_ensemble_burn_in_microstructure():
    # explicit burn_in shifts the published window but stays deterministic
    model = ModelSpec.linear_self_similar(tau_R=1.0)
    a = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=2, seed=3, burn_in=0)
    b = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=2, seed=3, burn_in=256)
    assert a.paths.shape == b.paths.shape == (2, 256)
    assert not np.array_equal(a.paths, b.paths)


def test_stationary_ensemble_refusals():
    white = ModelSpec.white_noise(1.0)
    memoryless = ModelSpec.stock_theta(tau_r=1.0, theta=0.0, variance=1.0)
    for bad in (white, memoryless):
        with pytest.raises(CapabilityError, match="simulate_white_returns"):
            simulate_stationary_ensemble(bad, h=0.1, n_steps=64, n_paths=2, seed=1)
    with pytest.raises(CapabilityError):
        simulate_stationary_ensemble(
            ModelSpec.boltzmann(1.0), h=0.1, n_steps=64, n_paths=2, seed=1
        )
    good = ModelSpec.stock_theta(tau_r=1.0, theta=1.0, variance=1.0)
    with pytest.raises(InputError):
        simulate_stationary_ensemble(good, h=0.1, n_steps=64, n_paths=2, seed=1, burn_in=-1)
    with pytest.raises(InputError):
        simulate_stationary_ensemble(good, h=0.1, n_steps=64, n_paths=2, seed=1, burn_in=2.5)
    with pytest.raises(InputError):
        simulate_stationary_ensemble(good, h=-0.1, n_steps=64, n_paths=2, seed=1)
    with pytest.raises(InputError):
        simulate_stationary_ensemble(good, h=0.1, n_steps=64, n_paths=2, seed=-1)
