"""Round trip: synthesize a price history, then recover its memory class.

Generates an ensemble of return paths for a stock model with a chosen
memory exponent, converts one path to prices, and recovers the memory
class from the price series with ``fit_prices``, over a 40-time-unit
window: it estimates exactly as `glemarket estimate --lag-window 40` does,
and the figure shows the ACF that the call fitted.
"""

import numpy as np

from glemarket import (
    ModelSpec,
    fit_prices,
    model_curve,
    price_from_returns,
    simulate_stationary_ensemble,
)


def main():
    true_theta, tau_r = 1.0, 1.0
    h, n_steps = 0.125, 32768
    model = ModelSpec.stock_theta(tau_r=tau_r, theta=true_theta)
    ensemble = simulate_stationary_ensemble(model, h, n_steps, 1, seed=321)
    prices = price_from_returns(ensemble, mu=0.03, M0=100.0)
    print(f"synthesized {n_steps} prices, true theta = {true_theta}, drift 0.03")

    report, acf = fit_prices(prices, lag_window=40.0)

    print(f"fitted theta    = {report.theta:.4f}")
    print(f"fitted tau_r    = {report.tau_r:.4f}")
    print(f"return variance = {report.variance:.4f}")
    print(f"stock class     = {report.stock_class.value}")
    print(f"fit residual    = {report.residual:.2e} "
          f"({report.lags_used} lags, window_ok = {report.window_ok})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    fig, (top, bottom) = plt.subplots(2, 1, figsize=(8, 6.5))
    t = h * np.arange(prices.n_steps)
    top.plot(t, prices.paths[0], lw=0.6)
    top.set_xlabel("time")
    top.set_ylabel("price")
    top.set_title("synthesized history")

    lags = h * np.arange(acf.values.size)
    curve = model_curve(report.theta)
    bottom.plot(lags, acf.values, lw=0.7, label="sample ACF")
    bottom.plot(lags, np.interp(lags / report.tau_r, *curve), "k--", lw=0.9,
                label=f"fit: theta={report.theta:.2f}")
    bottom.axhline(0.0, color="gray", lw=0.5)
    bottom.set_xlabel("lag")
    bottom.set_ylabel("return ACF")
    bottom.legend()

    fig.tight_layout()
    fig.savefig("estimate_from_prices.png", dpi=120)
    print("wrote estimate_from_prices.png")


if __name__ == "__main__":
    main()
