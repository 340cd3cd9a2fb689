"""Monte-Carlo check of the fluctuation-dissipation pairing.

Draws a band-limited stochastic force whose spectrum matches the
self-similar memory kernel (a semicircle on [0, 2/tau_R]), integrates the
generalized Langevin equation for an ensemble of return paths from rest,
drops eight memory times of burn-in, and compares the ensemble
autocorrelation with the closed-form curve.  The agreement is a joint test
of the noise generator, the kernel sampler, and the convolution
integrator.  (``simulate_stationary_ensemble`` samples the same process
directly from its folded spectrum, without the force or the integrator.)
"""

import numpy as np

from glemarket import (
    ModelSpec,
    NoiseRequest,
    PathEnsemble,
    closed_form_acf,
    ensemble_acf,
    force_evaluator,
    generate_colored,
    integrate_gle,
    memory_kernel,
    spectral_density,
)


def main():
    tau_R = 1.0
    h = 1.0 / 32.0
    n_steps, n_paths = 4096, 150
    max_lag = 160  # five correlation times

    burn_in = int(np.ceil(8.0 * tau_R / h))

    model = ModelSpec.linear_self_similar(tau_R=tau_R)
    n_gen = n_steps + burn_in
    force_sd = spectral_density(force_evaluator(model), np.linspace(0.0, 2.0 / tau_R, 2001))
    force = generate_colored(
        NoiseRequest(n_steps=n_gen, n_paths=n_paths, seed=2024, target_spectrum=force_sd, h=h)
    )
    driven = integrate_gle(memory_kernel(model, h, n_gen), force)
    ensemble = PathEnsemble(h=h, paths=driven.paths[:, burn_in:], kind="return-rate")
    acf, se = ensemble_acf(ensemble, max_lag)

    tau = h * np.arange(max_lag + 1)
    truth = closed_form_acf(model, tau)
    z = np.abs(acf.values - truth)[1:] / se[1:]
    print(f"{n_paths} paths x {n_steps} steps after {burn_in} burn-in steps, h = tau_R/32")
    print(f"ensemble variance: {acf.variance:.4f} (target 1.0)")
    print(f"worst |deviation|/SE over lags <= 5 tau_R: {z.max():.2f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(8, 4.5))
    ax.fill_between(tau, acf.values - 3 * se, acf.values + 3 * se,
                    alpha=0.3, label="ensemble +- 3 SE")
    ax.plot(tau, truth, "k-", lw=1.0, label="closed form")
    ax.plot(tau, acf.values, lw=0.7, label="ensemble mean")
    ax.axhline(0.0, color="gray", lw=0.5)
    ax.set_xlabel("lag")
    ax.set_ylabel("return ACF")
    ax.legend()
    fig.tight_layout()
    fig.savefig("driven_ensemble_acf.png", dpi=120)
    print("wrote driven_ensemble_acf.png")


if __name__ == "__main__":
    main()
