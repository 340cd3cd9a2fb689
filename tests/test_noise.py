"""Tests for stationary Gaussian noise synthesis.

Statistical bounds were calibrated against the frozen seeds used here; the
generator is fully deterministic given (seed, request), so these tests are
exact reruns, not flaky Monte Carlo.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glemarket import noise
from glemarket.errors import InputError, SpectralPositivityError
from glemarket.laplace import spectral_density
from glemarket.models import ModelSpec, force_evaluator
from glemarket.noise import (
    LANES,
    NoiseRequest,
    circulant_spectrum,
    generate_colored,
    generate_wiener_increments,
    path_streams,
)
from glemarket.series import AcfSeries, SpectralDensity
from glemarket.specfun import lambda1
from glemarket.volterra import _add_spectral_line, simulate_stationary_ensemble
from oracles import colored_full_draw, path_stream, spectral_line, stationary_ensemble_full_draw


def flat_target(h, level=1.0):
    """White force of variance ``level``: S = level h through Nyquist pi/h
    (the grid runs past it so the last rfft frequency is inside)."""
    return SpectralDensity(omega=np.array([0.0, 2.0 * np.pi / h]), values=np.array([level * h] * 2))


def lorentz_target(h, tau, variance=1.0):
    """Spectrum 2 var tau / (1 + omega^2 tau^2) of an exponential ACF,
    sampled through Nyquist."""
    omega = np.linspace(0.0, 2.0 * np.pi / h, 4001)
    return SpectralDensity(omega=omega, values=2.0 * variance * tau / (1.0 + (omega * tau) ** 2))


def triangle_target(top, level):
    """Band-limited spectrum level (1 - omega/top) on [0, top], zero beyond."""
    return SpectralDensity(omega=np.array([0.0, top]), values=np.array([level, 0.0]))


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
    def test_even_length_required(self):
        sd = flat_target(0.1)
        with pytest.raises(InputError):
            NoiseRequest(n_steps=7, n_paths=1, seed=1, target_spectrum=sd, h=0.1)
        with pytest.raises(InputError):
            NoiseRequest(n_steps=1, n_paths=1, seed=1, target_spectrum=sd, h=0.1)
        req = NoiseRequest(n_steps=2160, n_paths=1, seed=1, target_spectrum=sd, h=0.1)
        assert req.n_steps == 2160

    def test_spectrum_target_needs_h(self):
        sd = SpectralDensity(omega=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        with pytest.raises(TypeError):
            NoiseRequest(n_steps=8, n_paths=1, seed=1, target_spectrum=sd)
        for h in (None, 0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InputError):
                NoiseRequest(n_steps=8, n_paths=1, seed=1, target_spectrum=sd, h=h)
        acf = AcfSeries(h=0.1, values=np.array([1.0, 0.5]))
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=1, seed=1, target_spectrum=acf, h=0.1)

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 1.5, None])
    def test_bad_seeds_rejected(self, seed):
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=1, seed=seed, target_spectrum=flat_target(0.1), h=0.1)

    def test_bad_counts_rejected(self):
        with pytest.raises(InputError):
            NoiseRequest(n_steps=8, n_paths=0, seed=1, target_spectrum=flat_target(0.1), h=0.1)


# ------------------------------------------------------- circulant spectrum

class TestCirculantSpectrum:
    def test_lag_one_eigenvalues_analytic(self):
        # S = h (1 + 2 a cos(omega h)) sampled on the rfft grid itself is the
        # spectrum of rho = [1, a, 0, ...]: eigenvalues 1 + 2 a cos(2 pi k / m)
        a, h, n = 0.3, 0.5, 128
        omega = np.pi * np.arange(n + 1) / (n * h)
        sd = SpectralDensity(omega=omega, values=h * (1.0 + 2.0 * a * np.cos(omega * h)))
        lam = circulant_spectrum(NoiseRequest(n_steps=n, n_paths=1, seed=1, target_spectrum=sd, h=h))
        k = np.arange(n + 1)
        assert lam.shape == (n + 1,)
        assert np.abs(lam - (1.0 + 2.0 * a * np.cos(2.0 * np.pi * k / (2 * n)))).max() < 1e-12
        rho = np.fft.irfft(lam, 2 * n)[:n]
        assert np.abs(rho - np.r_[1.0, a, np.zeros(n - 2)]).max() < 1e-12

    def test_eigenvalues_sample_target_and_vanish_beyond_it(self):
        # S(omega) = 3 - omega on [0, 2] (linear, so interpolation is exact);
        # h = 0.5 puts Nyquist at 2 pi, far past the target's last frequency
        h, n = 0.5, 16
        sd = SpectralDensity(omega=np.array([0.0, 1.0, 2.0]), values=np.array([3.0, 2.0, 1.0]))
        lam = circulant_spectrum(NoiseRequest(n_steps=n, n_paths=1, seed=1, target_spectrum=sd, h=h))
        omega = np.pi * np.arange(n + 1) / (n * h)
        inside = omega <= 2.0
        assert np.abs(lam[inside] - (3.0 - omega[inside]) / h).max() < 1e-12
        assert np.all(lam[~inside] == 0.0)

    def test_variance_scales_eigenvalues(self):
        h = 0.1
        req1 = NoiseRequest(n_steps=64, n_paths=1, seed=1, target_spectrum=lorentz_target(h, 0.4), h=h)
        req2 = NoiseRequest(
            n_steps=64, n_paths=1, seed=1, target_spectrum=lorentz_target(h, 0.4, variance=2.5), h=h
        )
        assert np.allclose(circulant_spectrum(req2), 2.5 * circulant_spectrum(req1), rtol=1e-14, atol=0)
        # and the paths scale by the square root, draw for draw
        assert np.allclose(
            generate_colored(req2).paths, np.sqrt(2.5) * generate_colored(req1).paths, rtol=1e-12, atol=1e-14
        )


# ------------------------------------------------------------- generation

class TestColoredGeneration:
    def test_requires_request(self):
        with pytest.raises(InputError):
            generate_colored("not a request")

    def test_metadata(self):
        req = NoiseRequest(n_steps=64, n_paths=3, seed=17, target_spectrum=flat_target(0.2), h=0.2)
        out = generate_colored(req)
        assert out.kind == "force"
        assert out.h == 0.2
        assert out.paths.shape == (3, 64)
        assert out.master_seed == 17
        assert out.stream_indices == (0, 1, 2)

    def test_deterministic_rerun(self):
        req = NoiseRequest(n_steps=256, n_paths=4, seed=9, target_spectrum=lorentz_target(0.1, 0.5), h=0.1)
        a = generate_colored(req)
        b = generate_colored(req)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_output(self):
        sd = lorentz_target(0.1, 0.5)
        r1 = NoiseRequest(n_steps=256, n_paths=1, seed=1, target_spectrum=sd, h=0.1)
        r2 = NoiseRequest(n_steps=256, n_paths=1, seed=2, target_spectrum=sd, h=0.1)
        assert not np.array_equal(generate_colored(r1).paths, generate_colored(r2).paths)

    def test_path_streams_independent_of_count(self):
        # path i is a fixed function of (seed, i): generating more paths must
        # not perturb earlier ones
        sd = lorentz_target(0.05, 1.0)
        one = generate_colored(NoiseRequest(n_steps=256, n_paths=1, seed=5, target_spectrum=sd, h=0.05))
        three = generate_colored(NoiseRequest(n_steps=256, n_paths=3, seed=5, target_spectrum=sd, h=0.05))
        assert np.array_equal(three.paths[0], one.paths[0])
        # on a non-power-of-two grid too: paths 0-1 of five equal a 2-path request
        sd = lorentz_target(0.1, 0.7)
        five = generate_colored(NoiseRequest(n_steps=90, n_paths=5, seed=8, target_spectrum=sd, h=0.1))
        two = generate_colored(NoiseRequest(n_steps=90, n_paths=2, seed=8, target_spectrum=sd, h=0.1))
        assert np.array_equal(five.paths[:2], two.paths)

    @pytest.mark.parametrize("n", [6, 10])
    def test_synthesis_covariance_is_exact(self, n, monkeypatch):
        # the synthesis is linear in the normals it draws (at most m = 2n):
        # feeding path j the unit vector e_j, or zeros once j is past the
        # draw, makes path j column j of the map M, and M M^T must be the
        # Toeplitz matrix of the circulant's autocovariance, which is the
        # inverse real FFT of its half-spectrum
        class UnitDraw:
            def __init__(self, j):
                self.j = j

            def standard_normal(self, out):
                out[:] = 0.0
                if self.j < out.size:
                    out[self.j] = 1.0

        monkeypatch.setattr(
            noise, "path_streams", lambda seed, lane, start, stop: map(UnitDraw, range(start, stop))
        )
        h = 0.2
        # a full band, and a triangle ending near n/2 of the n + 1 eigenvalues
        targets = ((lorentz_target(h, 0.5, 1.7), False), (triangle_target(8.0, 2.0), True))
        for target, band_limited in targets:
            req = NoiseRequest(n_steps=n, n_paths=2 * n, seed=1, target_spectrum=target, h=h)
            assert (circulant_spectrum(req) == 0.0).any() == band_limited
            cols = generate_colored(req).paths
            rho = np.fft.irfft(circulant_spectrum(req), 2 * n)[:n]
            toeplitz = rho[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
            assert rho[0] > 1.0  # a colored target, not a degenerate one
            assert np.abs(cols.T @ cols - toeplitz).max() < 1e-12

    def test_delta_target_gives_iid_noise(self):
        # S = 2h on [0, pi/h] is the spectrum of a delta autocovariance of
        # variance 2: every eigenvalue is 2 and the samples are iid
        h = 0.1
        req = NoiseRequest(n_steps=1024, n_paths=8, seed=11, target_spectrum=flat_target(h, 2.0), h=h)
        assert np.abs(circulant_spectrum(req) - 2.0).max() < 1e-12
        x = generate_colored(req).paths
        assert abs(x.var() - 2.0) < 0.12
        lag1 = np.mean(x[:, 1:] * x[:, :-1]) / 2.0
        assert abs(lag1) < 3.0 / np.sqrt(x.size)

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


class TestReferenceSampler:
    """The production sampler against the full-draw reference, which draws
    all m = 2n normals of every path: the same normals meet the nonzero
    eigenvalues, and only the DC term's normal may differ."""

    @pytest.mark.parametrize(
        "n,h,target",
        [
            (256, 0.1, lorentz_target(0.1, 0.5)),
            (90, 0.1, lorentz_target(0.1, 0.7)),
            (256, 0.2, flat_target(0.2, 1.5)),
        ],
    )
    def test_full_band_target_is_bit_identical(self, n, h, target):
        # 130 paths span three synthesis blocks
        req = NoiseRequest(n_steps=n, n_paths=130, seed=12, target_spectrum=target, h=h)
        assert circulant_spectrum(req)[-1] > 0.0
        ref = colored_full_draw(circulant_spectrum(req), 130, 12)
        assert np.array_equal(generate_colored(req).paths, ref)

    @pytest.mark.parametrize(
        "model",
        [ModelSpec.linear_self_similar(tau_R=1.0)]
        + [ModelSpec.stock_theta(tau_r=1.0, theta=theta) for theta in (0.5, 1.0, 3.0)],
        ids=["selfsim", "stock-0.5", "stock-1", "stock-3"],
    )
    def test_band_limited_paths_move_by_one_constant(self, model):
        out = simulate_stationary_ensemble(model, h=0.125, n_steps=512, n_paths=70, seed=4)
        diff = out.paths - stationary_ensemble_full_draw(model, 0.125, 512, 70, 4)
        assert np.abs(diff - diff.mean(axis=1, keepdims=True)).max() <= 1e-14

    def test_folded_large_step_is_full_band(self):
        # at h = 2 the band [0, 2] folds over all of [0, pi/h]: every
        # eigenvalue is positive, so every normal is drawn, as in the reference
        model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0)
        out = simulate_stationary_ensemble(model, h=2.0, n_steps=512, n_paths=70, seed=4)
        assert np.array_equal(out.paths, stationary_ensemble_full_draw(model, 2.0, 512, 70, 4))

    @pytest.mark.parametrize("top,want", [(10.0, 2 * 81 + 1), (100.0, 512)])
    def test_each_path_draws_only_the_band(self, top, want, monkeypatch):
        # eigenvalue k sits at omega_k = pi k / (n h) = 0.1227 k: a band
        # ending at 10 has its last nonzero eigenvalue at K = 81 and costs
        # 2K + 1 normals per path (re_1, im_1, ..., im_K and the DC term's);
        # a band past Nyquist (31.4) costs all m = 2n = 512
        counts = {}

        class CountingDraw:
            def __init__(self, seed, lane, i):
                self.i, self.rng = i, path_stream(seed, lane, i)

            def standard_normal(self, out):
                counts[self.i] = counts.get(self.i, 0) + out.size
                self.rng.standard_normal(out=out)

        monkeypatch.setattr(
            noise,
            "path_streams",
            lambda seed, lane, start, stop: (CountingDraw(seed, lane, i) for i in range(start, stop)),
        )
        req = NoiseRequest(n_steps=256, n_paths=3, seed=2, target_spectrum=triangle_target(top, 1.0), h=0.1)
        generate_colored(req)
        assert counts == dict.fromkeys(range(3), want)


class TestPositivityFailure:
    def test_indefinite_target_is_refused(self):
        # S = h (1 + 1.8 cos(omega h)) dips to -0.8 h near Nyquist
        h = 0.1
        omega = np.linspace(0.0, np.pi / h, 2001)
        sd = SpectralDensity(omega=omega, values=h * (1.0 + 1.8 * np.cos(omega * h)))
        req = NoiseRequest(n_steps=1024, n_paths=1, seed=1, target_spectrum=sd, h=h)
        with pytest.raises(SpectralPositivityError) as err:
            generate_colored(req)
        assert err.value.worst < -0.5
        assert "indefinite" in str(err.value)

    def test_tiny_negatives_are_clamped(self):
        # a negative tail 1e-10 of the peak is roundoff, not indefiniteness
        h, n = 0.1, 64
        sd = SpectralDensity(
            omega=np.array([0.0, 1.0, 1.5, 3.0]), values=np.array([1.0, 1.0, -1e-10, -1e-10])
        )
        req = NoiseRequest(n_steps=n, n_paths=2, seed=1, target_spectrum=sd, h=h)
        lam = circulant_spectrum(req)
        omega = np.pi * np.arange(n + 1) / (n * h)
        assert np.all(lam[omega >= 1.5] == 0.0)
        assert np.all(lam[omega <= 1.0] == pytest.approx(1.0 / h))
        assert np.all(np.isfinite(generate_colored(req).paths))

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
            NoiseRequest(n_steps=256, n_paths=1, seed=5, target_spectrum=flat_target(0.1), h=0.1)
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
    # every per-path stream goes through noise.path_streams and its lane table
    src = Path(__file__).resolve().parents[1] / "src" / "glemarket"
    seeding = sorted(
        p.name for p in src.glob("*.py") if "SeedSequence(" in p.read_text(encoding="utf-8")
    )
    assert seeding == ["noise.py"]


class TestPathStreams:
    """noise.path_streams hashes SeedSequence's words itself; each stream
    must be the reference's, one SeedSequence per path, bit for bit."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1, np.int64(2**63 - 1), np.uint64(2**64 - 1)]

    @staticmethod
    def assert_reference_streams(seed, lane, start, stop):
        n = 0
        for i, stream in zip(range(start, stop), path_streams(seed, lane, start, stop)):
            ref = path_stream(seed, lane, i)
            assert stream.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(stream.standard_normal(3), ref.standard_normal(3))
            n += 1
        assert n == stop - start

    @pytest.mark.parametrize("lane", sorted(LANES))
    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{type(s).__name__}-{s}")
    @pytest.mark.parametrize("start,stop", [(0, 1), (0, 65), (63, 130)])
    def test_streams_match_reference(self, lane, seed, start, stop):
        # 65 and [63, 130) cross the synthesis blocks' edge at 64, and a
        # nonzero start needs no earlier path
        self.assert_reference_streams(seed, lane, start, stop)

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        lane=st.sampled_from(sorted(LANES)),
        start=st.integers(min_value=0, max_value=2**32 - 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_seed_and_index_match_reference(self, seed, lane, start):
        self.assert_reference_streams(seed, lane, start, start + 2)

    def test_empty_range_and_index_bound(self):
        assert list(path_streams(1, "wiener", 5, 5)) == []
        with pytest.raises(InputError):
            next(path_streams(1, "wiener", 0, 2**32 + 1))

    def test_spectral_line_matches_reference(self):
        # the theta = 3 stock's line, drawn on its own lane over three blocks
        model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0)
        r = np.zeros((130, 256))
        _add_spectral_line(r, model, 0.125, 2**40 + 3)
        assert np.abs(r).max() > 0.0
        assert np.array_equal(r, spectral_line(model, 0.125, 256, 130, 2**40 + 3))
