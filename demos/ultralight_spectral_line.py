"""The undamped oscillation hiding in ultra-light stocks.

For memory exponent theta > 2 the return image keeps a pole pair on the
imaginary axis just above the force band: an undamped spectral line at
omega* = 1/(tau_r sqrt(theta-1)) carrying weight (theta-2)/(2(theta-1))
of the variance.  The autocorrelation therefore never decays -- its tail
is a pure cosine.  This script shows the interior resonance of the image,
the line's exact location and weight, and a simulated ensemble whose ACF
tail rings forever.
"""

import numpy as np

from glemarket import (
    ModelSpec,
    ensemble_acf,
    invert_at,
    observable_evaluator,
    simulate_stationary_ensemble,
    spectral_atom,
)


def main():
    theta, tau_r = 3.0, 1.0
    model = ModelSpec.stock_theta(tau_r=tau_r, theta=theta)
    omega_line, weight = spectral_atom(model)
    print(f"theta = {theta}: line at omega* = {omega_line:.6f} "
          f"(band edge 2/tau_R = {2.0 / model.tau_R:.6f}), weight = {weight:.6f}")
    print(f"never-decaying ACF tail: {2 * weight:.4f} cos(omega* tau)")

    evaluator = observable_evaluator(model)
    p = np.linspace(1e-6, 3.0, 4000)
    image = evaluator.image(p)
    print(f"image resonance: max {image.max():.4f} at p = {p[np.argmax(image)]:.4f} "
          f"vs {evaluator.image_zero:.4f} at p = 0")

    h, n_steps, n_paths, max_lag = 0.125, 4096, 120, 400
    ensemble = simulate_stationary_ensemble(model, h, n_steps, n_paths, seed=99)
    acf, se = ensemble_acf(ensemble, max_lag)
    tau = h * np.arange(max_lag + 1)
    truth = np.empty(max_lag + 1)
    truth[0] = 1.0
    truth[1:] = invert_at(evaluator, tau[1:])  # normalized ACF
    tail = tau >= 20.0
    print(f"ACF tail amplitude over lags >= 20 tau_r: "
          f"simulated {np.abs(acf.values[tail]).max():.4f}, "
          f"exact {np.abs(truth[tail]).max():.4f} (2w = {2 * weight:.4f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    fig, (left, right) = plt.subplots(1, 2, figsize=(11, 4.2))
    left.plot(p, image)
    left.axhline(evaluator.image_zero, color="gray", lw=0.6, ls="--", label="p = 0 value")
    left.set_xlabel("real p")
    left.set_ylabel("return image")
    left.set_title("interior resonance")
    left.legend()

    right.plot(tau, acf.values, lw=0.7, label="ensemble mean")
    right.plot(tau, truth, "k--", lw=0.8, label="Laplace inversion")
    right.axhline(2 * weight, color="gray", lw=0.5)
    right.axhline(-2 * weight, color="gray", lw=0.5)
    right.set_xlabel("lag / tau_r")
    right.set_ylabel("return ACF")
    right.set_title("undamped tail, theta = 3")
    right.legend()

    fig.tight_layout()
    fig.savefig("ultralight_spectral_line.png", dpi=120)
    print("wrote ultralight_spectral_line.png")


if __name__ == "__main__":
    main()
