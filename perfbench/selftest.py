"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Runs every workload untraced and traced at a tiny size and checks that the
result line carries every metric of BENCHMARK.json, finite and with its
unit; that the report names every stage metric of its workload with a unit;
that the operations pass their checks; and that every traced span lies
within its parent.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import nesting_violations  # noqa: E402
from workloads import WORKLOADS, CurvesSizes, EnsembleSizes, LongPathSizes, measure  # noqa: E402

TINY = {
    "long-path": LongPathSizes(n_steps=4096, estimate_repeats=1, setup_probes=1),
    "ensemble": EnsembleSizes(n_paths=200, n_steps=1280, setup_probes=1),
    "curves": CurvesSizes(n_points=400, h_lambert=0.1, n_real=20, n_complex=5, setup_probes=1),
}
REPORTED = {
    "long-path": ("simulate_s", "estimate_s", "theta_abs_err", "fail_ratio"),
    "ensemble": ("ensemble_msteps_per_s", "fit_s", "theta_abs_err", "fail_ratio"),
    "curves": ("curves_s", "audit_points_per_s", "route_max_dev", "fail_ratio"),
}


def benchmark_spec():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_tiny(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)], sizes=TINY[workload])
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(result, specs):
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert math.isfinite(metric["value"]), spec["name"]
        assert metric["unit"] == spec["unit"], spec["name"]


def test_end_to_end_metrics():
    specs = benchmark_spec()["end_to_end"]
    for workload in WORKLOADS:
        result, report = run_tiny(workload, 0)
        check_result(result, specs)
        for spec in specs:
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
        for name in REPORTED[workload]:
            line = next(line for line in report if line.strip().startswith(f"{name} = "))
            value, unit = line.split(" = ", 1)[1].split(" ", 1)
            assert math.isfinite(float(value)) and unit.strip(), line


def test_per_layer_metrics():
    specs = benchmark_spec()["per_layer"]
    for workload in WORKLOADS:
        result, _ = run_tiny(workload, 1)
        check_result(result, specs)


def test_spans_nest(tmp_path):
    for name, cls in WORKLOADS.items():
        work = Path(tmp_path)
        workload = cls(HERE.parent, work / name, 5, TINY[name])
        (work / name).mkdir(parents=True, exist_ok=True)
        workload.prepare()
        _, traced, tracer = measure(workload, 0.0, trace=True)
        assert traced["op_s"] and tracer.spans
        assert nesting_violations(tracer.spans) == []
        # every program span hangs below one benchmark operation
        roots = {span[0] for span in tracer.spans if span[3] < 0}
        assert roots == {"bench.op"}, roots
        assert workload.failed == 0, workload.problems


if __name__ == "__main__":
    test_end_to_end_metrics()
    print("ok test_end_to_end_metrics")
    test_per_layer_metrics()
    print("ok test_per_layer_metrics")
    scratch = HERE.parent / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        test_spans_nest(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    print("ok test_spans_nest")
