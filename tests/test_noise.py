"""Tests for stationary Gaussian noise synthesis.

Statistical bounds were calibrated against the frozen seeds used here; the
generator is fully deterministic given (seed, request), so these tests are
exact reruns, not flaky Monte Carlo.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glemarket.errors import InputError, SpectralPositivityError
from glemarket.laplace import spectral_density
from glemarket.models import ModelSpec, force_evaluator
from glemarket.noise import (
    LANES,
    NoiseRequest,
    circulant_spectrum,
    generate_colored,
    generate_wiener_increments,
)
from glemarket.series import AcfSeries, SpectralDensity
from glemarket.specfun import lambda1


def delta_target(n_lags, h=0.1, variance=1.0):
    vals = np.zeros(n_lags + 1)
    vals[0] = 1.0
    return AcfSeries(h=h, values=vals, variance=variance)


def exp_target(n_lags, h, tau, variance=1.0):
    lags = h * np.arange(n_lags + 1)
    return AcfSeries(h=h, values=np.exp(-lags / tau), variance=variance)


def sample_acf_per_path(paths, max_lag):
    """Biased per-path autocovariance, averaged and SE'd across paths."""
    n = paths.shape[1]
    cols = [
        np.mean(paths[:, k:] * paths[:, : n - k] if k else paths * paths, axis=1)
        for k in range(max_lag + 1)
    ]
    acfs = np.stack(cols, axis=1)
    mean = acfs.mean(axis=0)
    se = acfs.std(axis=0, ddof=1) / np.sqrt(paths.shape[0])
    return mean, se


# ---------------------------------------------------------------- request

class TestNoiseRequest:
    def test_power_of_two_required(self):
        with pytest.raises(InputError):
            NoiseRequest(n_steps=7, n_paths=1, seed=1, target_acf=delta_target(8))
        with pytest.raises(InputError):
            NoiseRequest(n_steps=1, n_paths=1, seed=1, target_acf=delta_target(2))

    def test_exactly_one_target(self):
        sd = SpectralDensity(omega=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=1, seed=1)
        with pytest.raises(InputError):
            NoiseRequest(
                n_steps=8, n_paths=1, seed=1,
                target_acf=delta_target(8), target_spectrum=sd,
            )

    def test_spectrum_target_needs_h(self):
        sd = SpectralDensity(omega=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=1, seed=1, target_spectrum=sd)

    def test_h_defaults_to_target_step(self):
        req = NoiseRequest(n_steps=8, n_paths=1, seed=1, target_acf=delta_target(8, h=0.25))
        assert req.h == 0.25

    def test_h_mismatch_rejected(self):
        with pytest.raises(InputError):
            NoiseRequest(
                n_steps=8, n_paths=1, seed=1,
                target_acf=delta_target(8, h=0.25), h=0.3,
            )

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 1.5, None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=1, seed=seed, target_acf=delta_target(8))

    def test_bad_counts_rejected(self):
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=0, seed=1, target_acf=delta_target(8))


# ------------------------------------------------------- circulant spectrum

class TestCirculantSpectrum:
    def test_lag_one_eigenvalues_analytic(self):
        # rho = [1, a, 0, ...] embeds to eigenvalues 1 + 2 a cos(2 pi k / m)
        a = 0.3
        vals = np.zeros(129)
        vals[0], vals[1] = 1.0, a
        req = NoiseRequest(
            n_steps=128, n_paths=1, seed=1,
            target_acf=AcfSeries(h=1.0, values=vals),
        )
        lam = circulant_spectrum(req)
        k = np.arange(256)
        expected = 1.0 + 2.0 * a * np.cos(2.0 * np.pi * k / 256.0)
        assert np.abs(lam - expected).max() < 1e-12

    def test_variance_scales_eigenvalues(self):
        req1 = NoiseRequest(n_steps=64, n_paths=1, seed=1, target_acf=delta_target(64))
        req2 = NoiseRequest(
            n_steps=64, n_paths=1, seed=1, target_acf=delta_target(64, variance=2.5)
        )
        assert np.allclose(circulant_spectrum(req2), 2.5 * circulant_spectrum(req1))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1.0),
                st.floats(min_value=-2.0, max_value=3.7),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_exponential_mixtures_are_positive(self, comps):
        # mixtures of decaying exponentials are valid autocovariances and
        # their truncated even periodization stays (numerically) nonnegative
        lags = np.arange(129) * 1.0
        vals = sum(w * np.exp(-lags / 10.0**logt) for w, logt in comps)
        vals = vals / vals[0]
        req = NoiseRequest(
            n_steps=128, n_paths=1, seed=1,
            target_acf=AcfSeries(h=1.0, values=vals),
        )
        lam = circulant_spectrum(req)
        assert lam.min() >= -1e-10 * lam.max()


# ------------------------------------------------------------- generation

class TestColoredGeneration:
    def test_requires_request(self):
        with pytest.raises(InputError):
            generate_colored("not a request")

    def test_target_must_cover_lags(self):
        req = NoiseRequest(n_steps=128, n_paths=1, seed=1, target_acf=delta_target(64))
        with pytest.raises(InputError):
            generate_colored(req)

    def test_metadata(self):
        req = NoiseRequest(n_steps=64, n_paths=3, seed=17, target_acf=delta_target(64, h=0.2))
        out = generate_colored(req)
        assert out.kind == "force"
        assert out.h == 0.2
        assert out.paths.shape == (3, 64)
        assert out.master_seed == 17
        assert out.stream_indices == (0, 1, 2)

    def test_deterministic_rerun(self):
        req = NoiseRequest(n_steps=256, n_paths=4, seed=9, target_acf=delta_target(256))
        a = generate_colored(req)
        b = generate_colored(req)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_output(self):
        r1 = NoiseRequest(n_steps=256, n_paths=1, seed=1, target_acf=delta_target(256))
        r2 = NoiseRequest(n_steps=256, n_paths=1, seed=2, target_acf=delta_target(256))
        assert not np.array_equal(generate_colored(r1).paths, generate_colored(r2).paths)

    def test_path_streams_independent_of_count(self):
        # path i is a fixed function of (seed, i): generating more paths must
        # not perturb earlier ones
        tgt = exp_target(256, h=0.05, tau=1.0)
        one = generate_colored(NoiseRequest(n_steps=256, n_paths=1, seed=5, target_acf=tgt))
        three = generate_colored(NoiseRequest(n_steps=256, n_paths=3, seed=5, target_acf=tgt))
        assert np.array_equal(three.paths[0], one.paths[0])

    def test_delta_target_gives_iid_noise(self):
        req = NoiseRequest(
            n_steps=1024, n_paths=8, seed=11,
            target_acf=delta_target(1024, h=0.1, variance=2.0),
        )
        x = generate_colored(req).paths
        assert abs(x.var() - 2.0) < 0.12
        lag1 = np.mean(x[:, 1:] * x[:, :-1]) / 2.0
        assert abs(lag1) < 3.0 / np.sqrt(x.size)

    def test_exponential_target_acf_recovered(self):
        h, tau, n = 0.05, 1.0, 2**12
        tgt = exp_target(n, h=h, tau=tau, variance=1.5)
        req = NoiseRequest(n_steps=n, n_paths=100, seed=7, target_acf=tgt)
        x = generate_colored(req).paths
        max_lag = int(5 * tau / h)
        mean, se = sample_acf_per_path(x, max_lag)
        truth = 1.5 * np.exp(-h * np.arange(max_lag + 1) / tau)
        assert np.all(np.abs(mean - truth) <= 3.0 * se)

    def test_semicircle_spectrum_route_matches_band_limited_acf(self):
        # the compact-support force spectrum of the self-similar model; its
        # lag-domain transform is 2 J1(x)/x with x = 2 tau / tau_R
        model = ModelSpec.linear_self_similar(tau_R=1.0)
        omega = np.linspace(0.0, 2.0 / model.tau_R, 2001)
        sd = spectral_density(force_evaluator(model), omega)
        h, n = 0.05, 2**12
        req = NoiseRequest(n_steps=n, n_paths=200, seed=21, target_spectrum=sd, h=h)
        x = generate_colored(req).paths
        max_lag = int(5 * model.tau_R / h)
        mean, se = sample_acf_per_path(x, max_lag)
        truth = lambda1(2.0 * h * np.arange(max_lag + 1) / model.tau_R)
        assert np.all(np.abs(mean - truth) <= 3.0 * se)

    def test_spectrum_route_is_band_limited(self):
        model = ModelSpec.linear_self_similar(tau_R=1.0)
        omega = np.linspace(0.0, 2.0 / model.tau_R, 2001)
        sd = spectral_density(force_evaluator(model), omega)
        h, n = 0.05, 2**12
        req = NoiseRequest(n_steps=n, n_paths=50, seed=3, target_spectrum=sd, h=h)
        x = generate_colored(req).paths
        power = (h * np.abs(np.fft.rfft(x, axis=1)) ** 2 / n).mean(axis=0)
        grid = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
        outside = grid > 2.4 / model.tau_R
        assert power[outside].mean() < 1e-3 * power.max()


class TestPositivityFailure:
    def test_indefinite_target_is_refused(self):
        vals = np.zeros(1025)
        vals[0], vals[1] = 1.0, 0.9  # spectrum 1 + 1.8 cos(w) dips to -0.8
        req = NoiseRequest(
            n_steps=1024, n_paths=1, seed=1,
            target_acf=AcfSeries(h=0.1, values=vals),
        )
        with pytest.raises(SpectralPositivityError) as err:
            generate_colored(req)
        assert err.value.worst < -0.5
        assert "indefinite" in str(err.value)

    def test_truncated_band_limited_acf_is_refused(self):
        # a compact-support spectrum cannot be reached through the lag-domain
        # route: truncating the slowly decaying oscillatory tail leaves
        # negative ripple past the band edge, and doubling cannot cure it
        h, n = 0.05, 2**12
        lags = h * np.arange(n + 1)
        tgt = AcfSeries(h=h, values=lambda1(2.0 * lags))
        req = NoiseRequest(n_steps=n, n_paths=1, seed=1, target_acf=tgt)
        with pytest.raises(SpectralPositivityError):
            generate_colored(req)

    def test_zero_spectrum_has_no_mass(self):
        sd = SpectralDensity(omega=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]))
        req = NoiseRequest(n_steps=8, n_paths=1, seed=1, target_spectrum=sd, h=0.1)
        with pytest.raises(SpectralPositivityError) as err:
            generate_colored(req)
        assert "mass" in str(err.value)


# ----------------------------------------------------------------- wiener

class TestWienerIncrements:
    def test_moments(self):
        h = 0.01
        out = generate_wiener_increments(2**17, h, 8, seed=5)
        z = (out.paths / np.sqrt(h)).ravel()
        assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 0.01
        n = z.size
        skew = np.mean(z**3)
        kurt = np.mean(z**4) - 3.0
        assert abs(skew) < 8.0 * np.sqrt(6.0 / n)
        assert abs(kurt) < 8.0 * np.sqrt(24.0 / n)

    def test_metadata_and_determinism(self):
        a = generate_wiener_increments(64, 0.5, 2, seed=3)
        b = generate_wiener_increments(64, 0.5, 2, seed=3)
        assert a.kind == "wiener-increment"
        assert a.h == 0.5
        assert a.paths.shape == (2, 64)
        assert a.master_seed == 3
        assert np.array_equal(a.paths, b.paths)

    def test_lane_differs_from_colored(self):
        # same master seed must not reuse draws across noise kinds
        w = generate_wiener_increments(256, 0.1, 1, seed=5)
        c = generate_colored(
            NoiseRequest(n_steps=256, n_paths=1, seed=5, target_acf=delta_target(256))
        )
        assert not np.allclose(w.paths / np.sqrt(0.1), c.paths)

    def test_any_length_allowed(self):
        out = generate_wiener_increments(100, 0.1, 1, seed=1)
        assert out.paths.shape == (1, 100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_steps=0, h=0.1, n_paths=1, seed=1),
            dict(n_steps=8, h=0.0, n_paths=1, seed=1),
            dict(n_steps=8, h=-1.0, n_paths=1, seed=1),
            dict(n_steps=8, h=0.1, n_paths=0, seed=1),
            dict(n_steps=8, h=0.1, n_paths=1, seed=-1),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(InputError):
            generate_wiener_increments(**kwargs)


# -- seed lanes -------------------------------------------------------------------


def test_lanes_are_distinct():
    assert len(set(LANES.values())) == len(LANES)


def test_streams_are_seeded_only_in_noise():
    # every per-path stream goes through noise.path_stream and its lane table
    src = Path(__file__).resolve().parents[1] / "src" / "glemarket"
    seeding = sorted(
        p.name for p in src.glob("*.py") if "SeedSequence(" in p.read_text(encoding="utf-8")
    )
    assert seeding == ["noise.py"]
