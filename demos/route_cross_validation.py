"""Three independent routes to the same autocorrelation function.

For the linear self-similar model the return ACF is known in closed form,
so it makes a sharp cross-check of the two numerical routes: inverting the
Laplace image on the lag grid, and propagating the memory-kernel
convolution equation step by step.  All three must agree to solver
accuracy everywhere on [0, 10 correlation times].

The Boltzmann closure has no closed form, but two routes reach it: the
same Laplace inversion of its Lambert-type image, and the causal march of
its convolution identity t c = (1 - t/2)(c*c), which forces an exact zero
at lag 2 tau_R.  The inversion must hit that zero to roundoff, and the
march must agree with it to its own O(h^2) accuracy.
"""

import numpy as np

from glemarket import (
    ModelSpec,
    boltzmann_acf,
    closed_form_acf,
    invert,
    memory_kernel,
    observable_evaluator,
    propagate_acf,
)


def main():
    tau_R = 1.0
    h = tau_R / 200.0
    n = 2001
    model = ModelSpec.linear_self_similar(tau_R=tau_R)
    tau = h * np.arange(n)

    closed = closed_form_acf(model, tau)
    inverted = invert(observable_evaluator(model), h, n).values
    propagated = propagate_acf(memory_kernel(model, h, n), n).values

    print(f"grid: h = tau_R/200, {n} lags covering [0, 10 tau_R]")
    print(f"closed vs inverted:   max |diff| = {np.abs(closed - inverted).max():.3e}")
    print(f"closed vs propagated: max |diff| = {np.abs(closed - propagated).max():.3e}")
    print(f"inverted vs propagated: max |diff| = {np.abs(inverted - propagated).max():.3e}")

    boltzmann = ModelSpec.boltzmann(tau_R=tau_R)
    boltzmann_inverted = invert(observable_evaluator(boltzmann), h, n).values
    boltzmann_marched = boltzmann_acf(boltzmann, h, n).values
    zero = 400  # lag 2 tau_R
    march_gap = np.abs(boltzmann_inverted - boltzmann_marched).max()
    print(f"boltzmann inverted vs marched: max |diff| = {march_gap:.3e}")
    print(f"boltzmann at lag 2 tau_R: inverted {boltzmann_inverted[zero]:.1e}, "
          f"marched {boltzmann_marched[zero]:.1e}")
    if abs(boltzmann_inverted[zero]) > 1e-12 or march_gap > 1e-3:
        raise SystemExit("boltzmann routes disagree beyond their accuracy")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    fig, (top, bottom) = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    top.plot(tau, closed, label="closed form")
    top.plot(tau, inverted, "--", label="Laplace inversion")
    top.plot(tau, propagated, ":", label="kernel propagation")
    top.set_ylabel("return ACF")
    top.legend()

    bottom.semilogy(tau, np.abs(closed - inverted) + 1e-18, label="|closed - inverted|")
    bottom.semilogy(tau, np.abs(closed - propagated) + 1e-18, label="|closed - propagated|")
    bottom.set_xlabel("lag")
    bottom.set_ylabel("abs difference")
    bottom.legend()

    fig.tight_layout()
    fig.savefig("route_cross_validation.png", dpi=120)
    print("wrote route_cross_validation.png")


if __name__ == "__main__":
    main()
