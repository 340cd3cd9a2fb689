"""A same-host A/B byte battery for the command line.

    python tests/ab_battery.py run SRC MANIFEST.json
    python tests/ab_battery.py compare A.json B.json

``run`` imports ``glemarket`` from the ``src/`` tree SRC and runs a fixed
list of calls through ``glemarket.cli.main``, in order, in one interpreter
and one temporary working directory.  The list holds the benchmark's
long-path and curves argv, one ``acf`` call per (model, route) cell of the
catalog, the README's command-line block, the refusal cases of the CI
console-script step, and ``estimate`` on LF, CRLF and price-only copies of
one price file.  For each call the manifest records the exit code and the
SHA-256 of stdout, of stderr and of every file the call created or
changed, by its path relative to the working directory.  It then makes the
benchmark's ensemble workload's library calls at fixed seeds, which no
command line covers: ``simulate_stationary_ensemble``, ``ensemble_acf`` and
``fit_theta``, read from ``glemarket.volterra`` and ``glemarket.estimate``
as the workload reads them.  Each is recorded with the SHA-256 of the
paths, of the ACF values, of their standard errors and of the fit
report's repr.

``compare`` prints every call whose record differs between two manifests
and exits 1 if any does.  Run both trees on one host: numpy's SIMD ufuncs
and FFTs may round differently across CPUs and numpy versions, so the
hashes are an A/B check, not a committed gate.  pytest does not collect
this file.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

# the benchmark's sizes (perfbench/workloads.py) at fixed seeds
SEED = "501"
VARIANCE = "1.25"
LONG_PATH = ["--model", "stock", "--theta", "1.0", "--n-paths", "1", "--n-steps", "16384",
             "--h", "0.125", "--seed", SEED, "--emit-prices", "--out-dir", "long-path"]
FAST = ["--h", "0.05", "--n-points", "8000"]
SLOW = ["--h", "0.01", "--n-points", "8000"]
ACF_CALLS = {
    "selfsim-laplace": ["--model", "selfsim", "--route", "laplace", *FAST],
    "selfsim-volterra": ["--model", "selfsim", "--route", "volterra", *FAST],
    "stock1.5-laplace": ["--model", "stock", "--theta", "1.5", "--route", "laplace", *FAST],
    "stock1.5-volterra": ["--model", "stock", "--theta", "1.5", "--route", "volterra", *FAST],
    "boltzmann-volterra": ["--model", "boltzmann", "--route", "volterra", *SLOW],
    "differential-volterra": ["--model", "differential", "--route", "volterra", *SLOW],
    "stock2-closed": ["--model", "stock", "--theta", "2", "--route", "closed", *FAST],
}
MODELS = ("white", "selfsim", "stock", "scaling", "fractional", "boltzmann", "differential")
# the ensemble workload's library calls: paths x steps, h, max_lag, lag window
ENSEMBLE = dict(n_paths=500, n_steps=2048, h=0.125)
ENSEMBLE_FIT = dict(max_lag=320, lag_window=40.0)
ENSEMBLE_THETAS = (0.5, 1.0, 1.5, 3.0)
THETA_MODELS = ("stock", "scaling", "fractional")
# the CI step's refused calls (exit 2), each writing into its own directory
REFUSED = [
    "audit --model selfsim --n-real 4 --tolerance -1 --out audit.csv",
    "simulate --model gbm --variance 2 --n-paths 1 --n-steps 64 --h 0.1 --seed 1",
    "simulate --model stock --theta 1 --sigma 0.3 --n-paths 1 --n-steps 64 --h 0.1 --seed 1",
    "simulate --model gbm --sigma 0 --max-lag 5 --n-paths 1 --n-steps 64 --h 0.1 --seed 1",
    "simulate --model gbm --config sigma0.cfg --max-lag 5 --n-paths 1 --n-steps 64 --h 0.1 --seed 1",
    "audit --model selfsim --n-real 4 --fd-step 1e-3 --out audit.csv",
    "audit --model selfsim --n-real 4",
]


def _audit_argv(model):
    argv = ["audit", "--model", model, "--n-real", "300", "--variance", VARIANCE]
    if model in THETA_MODELS:
        argv += ["--theta", "1.5"]
    if model in ("white", "selfsim", "stock"):
        argv += ["--n-complex", "100", "--seed", SEED]
    return argv


def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv]


def _price_copies():
    """LF, CRLF and price-only copies of the long-path prices, in copies/."""
    text = Path("long-path/simulate_prices.csv").read_text(encoding="utf-8")
    os.makedirs("copies", exist_ok=True)
    Path("copies/lf.csv").write_bytes(text.encode("utf-8"))
    Path("copies/crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    prices = "".join(line.split(",")[1] + "\n" for line in text.splitlines())
    Path("copies/price.csv").write_bytes(prices.encode("utf-8"))


def _config_files():
    Path("sigma0.cfg").write_text("model.sigma = 0\n", encoding="utf-8")
    Path("unread.cfg").write_text("tolerance = 0\nseed = -1\n", encoding="utf-8")


def battery():
    """The calls in order: an argv list, or a function that writes inputs."""
    calls = [["simulate", *LONG_PATH],
             ["estimate", "--input", "long-path/simulate_prices.csv", "--lag-window", "40.0"]]
    common = ["--variance", VARIANCE]
    calls += [["acf", *argv, *common, "--out-dir", "curves", "--out", f"{label}.csv"]
              for label, argv in ACF_CALLS.items()]
    calls += [_audit_argv(model) for model in MODELS]
    # every (model, route) cell of the catalog, refused ones (exit 3) too
    calls += [["acf", "--model", model, *(["--theta", "1.5"] if model in THETA_MODELS else []),
               "--route", route, "--h", "0.05", "--n-points", "400", "--out-dir", "cells",
               "--out", f"{model}-{route}.csv"]
              for model in MODELS for route in ("closed", "laplace", "volterra")]
    calls += _readme_commands()
    calls.append(_price_copies)
    for name, h in (("lf", []), ("crlf", []), ("price", ["--h", "0.125"])):
        calls.append(["estimate", "--input", f"copies/{name}.csv", *h, "--lag-window", "40.0",
                      "--out-dir", "copies", "--out", f"report_{name}.csv"])
    calls.append(_config_files)
    calls += [shlex.split(line) + ["--out-dir", f"refused_{i}"] for i, line in enumerate(REFUSED)]
    calls += [
        ["acf", "--model", "scaling", "--theta", "1.5", "--route", "laplace", "--h", "0.05",
         "--out-dir", "cli"],
        ["fig1", "--config", "unread.cfg", "--out-dir", "unread"],
        ["audit", "--model", "differential", "--n-real", "50", "--out-dir", "audit", "--out", "audit.csv"],
        ["audit", "--model", "scaling", "--theta", "1.00015", "--n-real", "20"],
    ]
    return calls


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _library_records():
    """One record per ensemble-workload draw and fit, at seeds 701, 702, ..."""
    from glemarket import estimate, volterra
    from glemarket.models import ModelSpec

    records = []
    for seed, theta in enumerate(ENSEMBLE_THETAS, start=701):
        call = ["library", "ensemble", f"theta={theta!r}", f"seed={seed}"]
        try:
            model = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
            ens = volterra.simulate_stationary_ensemble(model, seed=seed, **ENSEMBLE)
            acf, se = estimate.ensemble_acf(ens, max_lag=ENSEMBLE_FIT["max_lag"])
            report = estimate.fit_theta(acf, lag_window=ENSEMBLE_FIT["lag_window"])
        except Exception as exc:  # recorded, and the battery goes on
            records.append({"argv": call, "exit": f"{type(exc).__name__}: {exc}", "files": {}})
            continue
        outputs = {"paths": ens.paths, "acf": acf.values, "acf_se": se}
        files = {name: _sha(np.ascontiguousarray(value).tobytes()) for name, value in outputs.items()}
        files["fit_report"] = _sha(repr(report).encode("utf-8"))
        records.append({"argv": call, "exit": 0, "files": files})
        print(f"  0  {shlex.join(call)}", file=sys.__stderr__)
    return records


def _snapshot():
    return {path.as_posix(): _sha(path.read_bytes()) for path in sorted(Path(".").rglob("*"))
            if path.is_file()}


def run(src, manifest):
    sys.path.insert(0, str(Path(src).resolve()))
    import glemarket.cli

    if not Path(glemarket.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"glemarket was imported from {glemarket.cli.__file__}, not from {src}")
    records = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ab_battery_") as work:
        os.chdir(work)
        try:
            before = {}
            for call in battery():
                if callable(call):
                    call()
                    before = _snapshot()
                    continue
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = glemarket.cli.main(call)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # recorded, and the battery goes on
                        code = f"{type(exc).__name__}: {exc}"
                after = _snapshot()
                files = {path: sha for path, sha in after.items() if before.get(path) != sha}
                records.append({"argv": call, "exit": code,
                                "stdout": _sha(out.getvalue().encode("utf-8")),
                                "stderr": _sha(err.getvalue().encode("utf-8")), "files": files})
                before = after
                print(f"{code!s:>3}  {shlex.join(call)}", file=sys.__stderr__)
        finally:
            os.chdir(home)
    records += _library_records()
    Path(manifest).write_text(json.dumps({"calls": records}, indent=1) + "\n", encoding="utf-8")


def compare(a_path, b_path):
    a, b = (json.loads(Path(p).read_text(encoding="utf-8"))["calls"] for p in (a_path, b_path))
    differences = 0
    if len(a) != len(b):
        print(f"{len(a)} calls against {len(b)}")
        differences += 1
    for left, right in zip(a, b):
        name = shlex.join(left["argv"])
        if left["argv"] != right["argv"]:
            print(f"argv differs: {name} | {shlex.join(right['argv'])}")
            differences += 1
            continue
        for key in ("exit", "stdout", "stderr"):
            if left.get(key) != right.get(key):
                print(f"{name}: {key} differs ({left.get(key)} | {right.get(key)})")
                differences += 1
        for path in sorted(left["files"].keys() | right["files"].keys()):
            if left["files"].get(path) != right["files"].get(path):
                print(f"{name}: output {path} differs")
                differences += 1
    files = sum(len(call["files"]) for call in a)
    print(f"{len(a)} calls, {files} outputs: {differences} differences")
    return 1 if differences else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "run":
        run(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n", 2)[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
