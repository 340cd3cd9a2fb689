"""Fresh-interpreter entry points of the benchmark.

    python3 perfbench/child.py cli SPANS_JSON ARG...
        run ``glemarket.cli.main(ARG...)`` with every layer traced, dump the
        spans to SPANS_JSON and exit with the CLI's exit code;
    python3 perfbench/child.py ensemble N_PATHS N_STEPS H THETA MAX_LAG LAG_WINDOW SEED
        import glemarket and run one (cache-filling) ensemble operation,
        the set-up a library user pays before the first result.

Both expect ``PYTHONPATH`` to name the checkout's ``src`` directory.
"""

import sys


def traced_cli(spans_path, argv):
    from spans import Tracer

    tracer = Tracer().install()
    import glemarket.cli

    try:
        code = glemarket.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


def ensemble(n_paths, n_steps, h, theta, max_lag, lag_window, seed):
    import glemarket.estimate
    import glemarket.volterra
    from workloads import EnsembleSizes, fit_ensemble, simulate_ensemble

    sizes = EnsembleSizes(n_paths=int(n_paths), n_steps=int(n_steps), h=float(h),
                          max_lag=int(max_lag), lag_window=float(lag_window))
    _, ens = simulate_ensemble(glemarket.volterra, sizes, float(theta), int(seed))
    fit_ensemble(glemarket.estimate, sizes, ens)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    if mode == "ensemble":
        sys.exit(ensemble(*rest))
    sys.exit(f"unknown mode {mode!r}")
