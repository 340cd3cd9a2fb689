"""The benchmark tracer (perfbench/spans.py) patches package functions by
name; every site it lists must still exist, or a traced run fails."""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path,attr", sorted({(path, attr) for path, attr, _, _ in spans.SITES}))
def test_site_resolves(path, attr):
    assert hasattr(spans._resolve(path), attr)


def test_a_traced_run_records_each_layer_and_uninstall_restores_it(tmp_path, monkeypatch):
    # the tracer resolves each site itself, including the names glemarket.cli
    # and glemarket.estimate resolve on first use, and a command calls what
    # the tracer put there; as in a fresh child process, none is bound yet
    from contextlib import redirect_stdout
    from io import StringIO

    from glemarket import cli, estimate, laplace, volterra

    originals = {(path, attr): getattr(spans._resolve(path), attr) for path, attr, _, _ in spans.SITES}
    for name in cli._DEFERRED_MODULE:
        monkeypatch.delitem(vars(cli), name, raising=False)
    monkeypatch.delitem(vars(estimate), "invert_at", raising=False)
    monkeypatch.delitem(vars(volterra), "spectral_density", raising=False)
    out = ["--out-dir", str(tmp_path)]
    tracer = spans.Tracer().install()
    try:
        with redirect_stdout(StringIO()):
            codes = [
                cli.main(["acf", "--model", "selfsim", "--route", "laplace", "--h", "0.05",
                          "--n-points", "100", *out]),
                cli.main(["acf", "--model", "boltzmann", "--route", "volterra", "--h", "0.05",
                          "--n-points", "100", *out]),
                cli.main(["simulate", "--model", "stock", "--theta", "1.5", "--n-paths", "1",
                          "--n-steps", "512", "--h", "0.125", "--seed", "3", "--emit-prices", *out]),
                cli.main(["estimate", "--input", str(tmp_path / "simulate_prices.csv")]),
            ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    recorded = {name for name, _, _, _ in tracer.spans}
    assert {"laplace.invert", "volterra.lambert_acf", "volterra.simulate_stationary_ensemble",
            "estimate.fit_theta"} <= recorded
    restored = {(path, attr): getattr(spans._resolve(path), attr) for path, attr, _, _ in spans.SITES}
    assert all(restored[site] is original for site, original in originals.items())
    # the names volterra and estimate resolve on first read are laplace's own again
    assert vars(volterra)["spectral_density"] is laplace.spectral_density
    assert vars(estimate)["invert_at"] is laplace.invert_at
