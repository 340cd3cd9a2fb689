"""glemarket benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {long-path,ensemble,curves} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``
directory, and metric names and units come from its ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report: run environment, computed work,
every metric with its unit and sample count beside the first recorded
baseline, and with tracing the self time of every layer and the tracing
overhead.
"""

import os

# BLAS/OpenMP pools are capped before numpy loads, here and in every child
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

from calibration import REFERENCE_S  # noqa: E402
from spans import layer_metrics, nesting_violations  # noqa: E402
from workloads import SIZES, WORKLOADS, measure, setup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# what each workload's two stages measure, under their own names, for the report
STAGE_NAMES = {
    "long-path": (("simulate_s", "s"), ("estimate_s", "s")),
    "ensemble": (("ensemble_msteps_per_s", "1e6 path-steps/s"), ("fit_s", "s")),
    "curves": (("curves_s", "s"), ("audit_points_per_s", "points/s")),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    if len(values) < 20:
        return None
    q = int(100 * (1 - 10 / len(values)))
    return q, float(np.percentile(values, q))


def environment(sizes):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": THREAD_CAPS,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "reference_probe_s": REFERENCE_S,
        "load": "closed loop, one client, one process (fresh interpreter per CLI call on long-path)",
        "workload_sizes": asdict(sizes),
    }


def computed_work(workload, sizes):
    """Work per operation derived from the sizes and output files, not measured."""
    ops = max(workload.ops, 1)
    if workload.name == "long-path":
        burn_in = int(np.ceil(8.0 * sizes.theta / sizes.h))
        n_gen = 1 << int(np.ceil(np.log2(sizes.n_steps + burn_in)))
        return {"path_steps": n_gen, "integrate_gle_fft_len": 2 * n_gen, "noise_fft_len": 2 * n_gen,
                "csv_bytes_written": workload.bytes_written / ops,
                "csv_bytes_read": workload.bytes_read / ops}
    if workload.name == "ensemble":
        gens = [1 << int(np.ceil(np.log2(sizes.n_steps + np.ceil(8.0 * t / sizes.h)))) for t in sizes.thetas]
        return {"path_steps_published": sizes.n_paths * sizes.n_steps,
                "path_steps_generated": [sizes.n_paths * g for g in gens],
                "noise_fft_len": [2 * g for g in gens]}
    return {"acf_points": 7 * sizes.n_points, "audit_points": workload.audit_points / ops,
            "csv_bytes_written": workload.bytes_written / ops}


def stage_report(name, samples, sizes, workload):
    """The workload's two stage medians under their own names and units."""
    (gen_name, gen_unit), (ana_name, ana_unit) = STAGE_NAMES[name]
    gen, ana = median(samples["generate_s"]), median(samples["analyze_s"])
    if name == "ensemble":
        gen = sizes.n_paths * sizes.n_steps / 1e6 / gen
    if name == "curves":
        ana = workload.audit_points / max(workload.ops, 1) / ana
    return [(gen_name, gen, gen_unit), (ana_name, ana, ana_unit)]


def run(args, sizes):
    name = args.workload
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, work, args.seed, sizes)
    try:
        setup_samples = ([], []) if args.trace else setup(workload)
        workload.prepare()
        samples, traced, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()
    return workload, setup_samples, samples, traced, tracer


def end_to_end(name, sizes, workload, setup_samples, samples, baseline):
    timed = {"setup_s": setup_samples[0], **samples}
    wall = {"setup_s": setup_samples[1], "generate_s": samples["wall_generate_s"],
            "analyze_s": samples["wall_analyze_s"]}
    metrics = {}
    print("end-to-end metrics: median at reference speed (see calibration.py); wall-clock median and tail")
    for key in ("setup_s", "generate_s", "analyze_s"):
        metrics[key] = median(timed[key])
        extra = tail(wall[key])
        extra = f", p{extra[0]} {extra[1]:.4f}" if extra else ""
        base = f"; first baseline {baseline[key]:.4f}" if key in baseline else ""
        print(f"  {key} = {metrics[key]:.6f} s (median of {len(timed[key])}{base}; "
              f"wall {median(wall[key]):.4f}{extra})")
    for label, value, unit in stage_report(name, samples, sizes, workload):
        print(f"  {label} = {value:.6f} {unit}")
    return metrics


def per_layer(workload, samples, traced, tracer):
    bad = nesting_violations(tracer.spans)
    if bad:
        workload.record("span nesting", [f"{len(bad)} spans outside their parent, e.g. {bad[0]}"])
    traced_ops = len(traced["op_s"])
    metrics, layer_self, work = layer_metrics(tracer, traced_ops)
    metrics["cli.bytes_written"] = workload.bytes_written / workload.ops
    metrics["cli.bytes_read"] = workload.bytes_read / workload.ops
    metrics["estimate.theta_abs_err"] = float(np.mean(workload.theta_errors)) if workload.theta_errors else 0.0
    metrics["cli.route_max_dev"] = max(getattr(workload, "route_devs", []), default=0.0)
    metrics["trace.overhead_ratio"] = np.mean(traced["op_s"]) / np.mean(samples["op_s"]) - 1.0
    op_time = sum(layer_self.values())
    metrics["trace.self_time_share"] = (op_time - layer_self.get("bench", 0.0)) / op_time
    print(f"traced operations {traced_ops}, untraced {len(samples['op_s'])}, spans {len(tracer.spans)}")
    print("self time per traced operation by layer (s, share):")
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {seconds:10.4f}  {seconds / op_time:6.1%}")
    print("  (bench = the benchmark's own code: fresh-interpreter start, import and exit of CLI"
          " processes, in-process CLI output capture, speed probes, checks)")
    print("tracing overhead, traced vs untraced median at reference speed:")
    for key in ("generate_s", "analyze_s", "op_s"):
        t, u = median(traced[key]), median(samples[key])
        print(f"  {key}: {t:.4f} s traced vs {u:.4f} s untraced ({t / u - 1.0:+.1%})")
    print("computed work from the spans " + json.dumps(work, sort_keys=True))
    return metrics


def main(argv=None, sizes=None):
    """Run one workload; ``sizes`` replaces the workload's standard sizes."""
    args = parse_args(argv)
    if not (ROOT / "src" / "glemarket" / "__init__.py").is_file():
        print(f"error: no glemarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one core for the benchmark and every child, so that the speed probes
    # and the work they calibrate run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    name = args.workload
    sizes = sizes or SIZES[name]
    workload, setup_samples, samples, traced, tracer = run(args, sizes)
    if not all(samples[key] or traced[key] for key in ("generate_s", "analyze_s")):
        for problem in workload.problems[:10]:
            print(f"check failed: {problem}", file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1

    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(sizes), sort_keys=True))
    print("computed work per operation " + json.dumps(computed_work(workload, sizes), sort_keys=True))
    baseline_path = HERE / "baseline.json"
    baseline = load_json(baseline_path) if baseline_path.exists() else {}
    if args.trace:
        metrics = per_layer(workload, samples, traced, tracer)
    else:
        metrics = end_to_end(name, sizes, workload, setup_samples, samples,
                             baseline.get("workloads", {}).get(name, {}))
    if baseline:
        print(f"first baseline: {baseline['note']}")

    print(f"  fail_ratio = {workload.failed / workload.attempted:.4f} failed/attempted "
          f"({workload.failed}/{workload.attempted})")
    if workload.theta_errors:
        print(f"  theta_abs_err = {np.mean(workload.theta_errors):.6f} theta")
    if getattr(workload, "route_devs", None):
        print(f"  route_max_dev = {max(workload.route_devs):.6e} acf")
    for problem in workload.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)

    specs = load_json(ROOT / "BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {spec["name"]: {"value": float(metrics[spec["name"]]), "unit": spec["unit"]}
                    for spec in specs},
    }
    if args.trace:
        for key, entry in result["metrics"].items():
            print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
