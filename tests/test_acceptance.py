"""Acceptance gate: ten end-to-end criteria, one reported line each.

Every test states its numeric tolerance and wall-clock budget inline and
records a single pass/fail summary line via the `acceptance` fixture; the
collected lines are printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from glemarket import (
    MarketParams,
    ModelSpec,
    NoiseRequest,
    PathEnsemble,
    StockClass,
    classify_theta,
    closed_form_acf,
    ensemble_acf,
    fit_theta,
    force_evaluator,
    generate_colored,
    generate_wiener_increments,
    identity_residual,
    integrate_gle,
    invert,
    force_shape,
    lambda0,
    lambda1,
    memory_kernel,
    observable_evaluator,
    observable_shape,
    propagate_acf,
    sigma_from_tau,
    simulate_gbm,
    simulate_stationary_ensemble,
    simulate_white_returns,
    solve_functional_shape,
    spectral_density,
    tau_from_volatility,
)
from glemarket.cli import main as cli_main


def test_criterion_01_oscillation_zeros_and_envelopes(acceptance):
    t0 = time.perf_counter()
    ratio = np.linspace(0.0, 120.0, 48001)
    curves = {"lambda1": lambda1(2.0 * ratio), "lambda0": lambda0(2.0 * ratio)}

    def first_zero(y):
        k = np.nonzero(np.diff(np.sign(y)))[0][0]
        return ratio[k] - y[k] * (ratio[k + 1] - ratio[k]) / (y[k + 1] - y[k])

    def envelope_slope(y):
        mask = (ratio >= 10.0) & (ratio <= 100.0)
        r, v = ratio[mask], np.abs(y[mask])
        peaks = np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
        return np.polyfit(np.log(r[peaks]), np.log(v[peaks]), 1)[0]

    z1, z0 = first_zero(curves["lambda1"]), first_zero(curves["lambda0"])
    s1, s0 = envelope_slope(curves["lambda1"]), envelope_slope(curves["lambda0"])
    elapsed = time.perf_counter() - t0
    ok = (
        abs(z1 - 1.9159) <= 0.01
        and abs(z0 - 2.4048) <= 0.01
        and abs(s1 - (-1.5)) <= 0.1
        and abs(s0 - (-0.5)) <= 0.05
        and elapsed < 1.0
    )
    acceptance(
        1, "oscillation zeros and decay envelopes", ok,
        f"zeros {z1:.4f}/{z0:.4f}, slopes {s1:.3f}/{s0:.3f}, {elapsed:.2f}s",
    )


def test_criterion_02_three_route_agreement(acceptance):
    t0 = time.perf_counter()
    tau_R = 1.0
    h, n = tau_R / 200.0, 2001  # lags cover [0, 10 tau_R]
    model = ModelSpec.linear_self_similar(tau_R=tau_R)
    tau = h * np.arange(n)
    closed = closed_form_acf(model, tau)
    inverted = invert(observable_evaluator(model), h, n).values
    propagated = propagate_acf(memory_kernel(model, h, n), n).values
    spread = max(
        np.abs(closed - inverted).max(),
        np.abs(closed - propagated).max(),
        np.abs(inverted - propagated).max(),
    )
    elapsed = time.perf_counter() - t0
    ok = spread <= 1e-3 and elapsed < 10.0
    acceptance(
        2, "closed/inversion/propagation agreement", ok,
        f"max pairwise diff {spread:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_stock_closed_theta_inversion(acceptance):
    worst = 0.0
    for theta in (0.0, 1.0, 2.0):
        model = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
        h, n = 0.05, 201  # lags cover [0, 10 tau_r]
        tau = h * np.arange(n)
        err = np.abs(
            invert(observable_evaluator(model), h, n).values
            - closed_form_acf(model, tau)
        ).max()
        worst = max(worst, err)
    ok = worst <= 1e-4
    acceptance(3, "stock inversion vs closed forms", ok, f"worst abs err {worst:.2e}")


def test_criterion_04_laplace_identity_audits(acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    models = (
        ModelSpec.white_noise(tau_R=0.8),
        ModelSpec.linear_self_similar(tau_R=1.3),
        ModelSpec.stock_theta(tau_r=0.9, theta=1.5),
    )
    for model in models:
        scale = 1.0 / model.corr_time
        p_real = scale * np.logspace(-2, 2, 100)
        worst = max(worst, float(identity_residual(model, p_real).max()))
        mag = scale * 10.0 ** rng.uniform(-2, 2, 100)
        ang = rng.uniform(-0.49 * np.pi, 0.49 * np.pi, 100)
        worst = max(
            worst, float(np.abs(identity_residual(model, mag * np.exp(1j * ang))).max())
        )
    boltz = ModelSpec.boltzmann(tau_R=1.1)
    p_real = (1.0 / boltz.corr_time) * np.logspace(-2, 2, 100)
    worst = max(worst, float(identity_residual(boltz, p_real).max()))

    # differential-model derivative identity, central differences: the
    # residual must shrink quadratically with the step
    diff = ModelSpec.differential(tau_R=1.0)
    u = np.logspace(-2, 2, 100)

    def fd_residual(step):
        du = step * np.maximum(u, 1.0)
        g = lambda x: force_shape(diff, x / diff.tau_R)
        y = observable_shape(diff, u / diff.tau_R)
        return float(np.abs((g(u + du) - g(u - du)) / (2 * du) - y).max())

    r3, r4 = fd_residual(1e-3), fd_residual(1e-4)
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-10
        and r4 <= 10.0 * 1e-4 ** 2
        and 30.0 <= r3 / r4 <= 300.0  # second-order convergence
        and elapsed < 5.0
    )
    acceptance(
        4, "self-consistency identity audits", ok,
        f"worst residual {worst:.2e}, fd ratio {r3 / r4:.0f}, {elapsed:.2f}s",
    )


def test_criterion_05_functional_model_boundaries(acceptance):
    p = np.logspace(-2, 2, 50)
    white = observable_shape(ModelSpec.white_noise(tau_R=0.7), p)
    selfsim = observable_shape(ModelSpec.linear_self_similar(tau_R=0.7), p)
    worst = 0.0
    for family in (ModelSpec.scaling, ModelSpec.fractional):
        at0 = solve_functional_shape(family(tau_r=0.7, theta=0.0), p)
        at1 = solve_functional_shape(family(tau_r=0.7, theta=1.0), p)
        worst = max(worst, np.abs(at0 - white).max(), np.abs(at1 - selfsim).max())
    ok = worst <= 1e-8
    acceptance(5, "functional models hit catalog boundaries", ok, f"worst {worst:.2e}")


def test_criterion_06_ultralight_image_resonance(acceptance):
    model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0)
    evaluator = observable_evaluator(model)
    p = np.linspace(1e-6, 5.0, 20001)
    image = evaluator.image(p)
    peak = float(image.max())
    at_zero = float(evaluator.image_zero)
    ok = peak > at_zero
    acceptance(
        6, "ultra-light image peaks at interior p", ok,
        f"max {peak:.4f} vs p=0 value {at_zero:.4f}",
    )


def test_criterion_07_monte_carlo_acf_recovery(acceptance):
    t0 = time.perf_counter()
    tau_R, h = 1.0, 1.0 / 32.0
    n_steps, n_paths = 1 << 14, 200
    max_lag = int(round(5.0 * tau_R / h))
    tau = h * np.arange(max_lag + 1)

    # the driven GLE: a force drawn from the kernel's band-limited spectrum,
    # integrated from rest, with eight memory times of burn-in sliced off
    model = ModelSpec.linear_self_similar(tau_R=tau_R)
    n_gen = 17280  # even and 5-smooth, >= n_steps + 8 tau_R/h
    force_sd = spectral_density(force_evaluator(model), np.linspace(0.0, 2.0 / tau_R, 2001))
    force = generate_colored(
        NoiseRequest(n_steps=n_gen, n_paths=n_paths, seed=102, target_spectrum=force_sd, h=h)
    )
    driven = integrate_gle(memory_kernel(model, h, n_gen), force)
    ens = PathEnsemble(h=h, paths=driven.paths[:, n_gen - n_steps :], kind="return-rate")
    acf, se = ensemble_acf(ens, max_lag)
    z_memory = np.abs(acf.values - closed_form_acf(model, tau))[1:] / se[1:]

    ens = simulate_white_returns(tau_R, 1.0, n_steps, h, n_paths, seed=102)
    acf, se = ensemble_acf(ens, max_lag)
    z_white = np.abs(acf.values - np.exp(-tau / tau_R))[1:] / se[1:]

    elapsed = time.perf_counter() - t0
    ok = z_memory.max() <= 3.0 and z_white.max() <= 3.0 and elapsed < 120.0
    acceptance(
        7, "driven-ensemble ACF matches closed forms", ok,
        f"max |z| memory {z_memory.max():.2f}, white {z_white.max():.2f}, {elapsed:.1f}s",
    )


def test_criterion_08_gbm_volatility_round_trip(acceptance):
    sigma, mu, M0, var_R = 0.2, 0.05, 1.0, 1.0
    tau_R = tau_from_volatility(sigma, var_R)
    relation = abs(sigma_from_tau(tau_R, var_R) - sigma)
    params = MarketParams(mu=mu, sigma=sigma, variance_R=var_R, M0=M0)
    increments = generate_wiener_increments(500, 0.01, 2000, seed=77)
    paths = simulate_gbm(params, increments)
    sig2_hat = np.diff(np.log(paths.paths), axis=1).var(ddof=0) / 0.01
    rel_err = abs(sig2_hat - sigma**2) / sigma**2

    frozen = MarketParams(mu=mu, sigma=0.0, variance_R=var_R, M0=M0)
    path0 = simulate_gbm(frozen, generate_wiener_increments(16, 0.25, 1, seed=1))
    t = path0.h * np.arange(path0.n_steps)
    drift_dev = np.abs(path0.paths[0] / (M0 * np.exp(mu * t)) - 1.0).max()

    ok = relation <= 1e-12 and rel_err <= 0.05 and drift_dev <= 1e-12
    acceptance(
        8, "price volatility round trip", ok,
        f"sigma^2 rel err {rel_err:.3%}, sigma=0 deviation {drift_dev:.1e}",
    )


def test_criterion_09_memory_exponent_round_trip(acceptance):
    t0 = time.perf_counter()
    tau_r, h = 1.0, 0.125
    n_steps, n_paths, max_lag = 4096, 200, 320
    lag_window = max_lag * h  # 40 correlation times
    n_trials = 20
    summary = []
    all_ok = True
    for theta in (0.0, 1.0, 2.0, 3.0):
        hits = 0
        estimates = []
        for trial in range(n_trials):
            seed = 7000 + 100 * int(theta) + trial
            if theta == 0.0:
                ens = simulate_white_returns(tau_r, 1.0, n_steps, h, n_paths, seed)
            else:
                model = ModelSpec.stock_theta(tau_r=tau_r, theta=theta)
                ens = simulate_stationary_ensemble(model, h, n_steps, n_paths, seed)
            acf, _ = ensemble_acf(ens, max_lag)
            report = fit_theta(acf, lag_window)
            estimates.append(report.theta)
            if theta == 2.0:
                class_ok = report.stock_class in (StockClass.LIGHT, StockClass.ULTRA_LIGHT)
            else:
                class_ok = report.stock_class is classify_theta(theta)
            if abs(report.theta - theta) <= 0.3 and class_ok:
                hits += 1
        summary.append(f"theta={theta:g}: {hits}/{n_trials}, mean {np.mean(estimates):.2f}")
        all_ok = all_ok and hits >= int(np.ceil(0.9 * n_trials))
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 300.0
    acceptance(
        9, "memory-exponent estimator round trip", ok,
        "; ".join(summary) + f", {elapsed:.0f}s",
    )


def test_criterion_10_seeded_runs_are_reproducible(acceptance, tmp_path):
    model = ModelSpec.stock_theta(tau_r=1.0, theta=2.5)
    a = simulate_stationary_ensemble(model, 0.125, 256, 4, seed=31)
    b = simulate_stationary_ensemble(model, 0.125, 256, 4, seed=31)
    c = simulate_stationary_ensemble(model, 0.125, 256, 4, seed=32)
    library_ok = np.array_equal(a.paths, b.paths) and not np.array_equal(a.paths, c.paths)

    args = ["simulate", "--model", "selfsim", "--tau-R", "1.0", "--n-paths", "3",
            "--n-steps", "128", "--h", "0.125", "--seed", "5"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(dir_a)]) == 0
    assert cli_main(args + ["--out-dir", str(dir_b)]) == 0
    files_ok = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in ("simulate_paths.csv", "simulate_summary.csv")
    )
    ok = library_ok and files_ok
    acceptance(
        10, "seeded reruns byte-identical", ok,
        f"arrays {'equal' if library_ok else 'DIFFER'}, files "
        f"{'equal' if files_ok else 'DIFFER'}",
    )
