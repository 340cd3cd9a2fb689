"""The three glemarket workloads: long-path, ensemble and curves.

Each workload drives the package only from outside, through the CLI
(``python -m glemarket`` in a fresh process, or ``glemarket.cli.main`` in
process) or the public library functions, as one closed-loop client: the
next operation starts when the previous one has finished.  An operation has
two timed stages, ``generate`` and ``analyze``; what they are differs by
workload:

=========== ========================================= ===========================================
workload    generate_s                                analyze_s
=========== ========================================= ===========================================
long-path   CLI ``simulate`` (16384 steps, process)   CLI ``estimate`` on its prices (cold cache)
ensemble    ``simulate_stationary_ensemble`` 500x2048 ``ensemble_acf`` + ``fit_theta`` (warm cache)
curves      fixed set of seven ``acf`` CLI calls      ``audit`` on all seven models
=========== ========================================= ===========================================

Every operation is checked, and a failed check, nonzero exit or exception
counts the operation as failed.  Inputs come from the workload seed only.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import Clock
from spans import Tracer

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CALL_TIMEOUT_S = 150
CLASS_BANDS = ((2.0 / 3.0, "heavy"), (4.0 / 3.0, "neutral"), (2.0, "light"), (np.inf, "ultra-light"))

# tolerances of the curve checks: the Laplace route is asked for 1e-6 by the
# CLI; the volterra marches are O(h^2) (5e-4 measured against the closed
# form at h = 0.05); the stock closed form must match the oracle to roundoff
LAPLACE_TOL = 1e-6
MARCH_TOL = 2e-3
CLOSED_TOL = 1e-10
# sample variance of a 500-path stationary ensemble (model variance 1);
# the spectral line of theta = 3 spreads it by a few per cent
ENSEMBLE_VARIANCE_TOL = 0.15
WARM_BLOCKS = 2


def expected_class(theta):
    return next(label for edge, label in CLASS_BANDS if theta < edge)


@dataclass(frozen=True)
class LongPathSizes:
    # half the README's 32768 steps: a 30 s run then holds about eight
    # simulate samples of ~2 s, each between its own speed probes, and the
    # quadratic march is still ~70% of a simulate call, process start included
    n_steps: int = 16384
    h: float = 0.125
    theta: float = 1.0
    lag_window: float = 40.0
    estimate_repeats: int = 2
    setup_probes: int = 8


@dataclass(frozen=True)
class EnsembleSizes:
    n_paths: int = 500
    n_steps: int = 2048
    h: float = 0.125
    thetas: tuple = (0.5, 1.0, 1.5, 3.0)
    max_lag: int = 320
    lag_window: float = 40.0
    setup_probes: int = 3


@dataclass(frozen=True)
class CurvesSizes:
    n_points: int = 8000
    h: float = 0.05
    h_lambert: float = 0.01
    n_real: int = 300
    n_complex: int = 100
    setup_probes: int = 8


def bessel_oracle(order, x, nodes=1024):
    """J_order(x) by the trapezoid rule on (1/pi) int_0^pi cos(n t - x sin t) dt.

    The integrand is a smooth periodic function, so the rule converges
    geometrically once 2 * nodes exceeds |x|; independent of glemarket.specfun.
    """
    t = np.linspace(0.0, np.pi, nodes + 1)
    w = np.full(nodes + 1, 1.0 / nodes)
    w[[0, -1]] *= 0.5
    out = np.empty(x.size)
    for lo in range(0, x.size, 512):
        xs = x[lo : lo + 512, None]
        out[lo : lo + 512] = np.cos(order * t - xs * np.sin(t)) @ w
    return out


class Workload:
    """Shared closed-loop bookkeeping: operation counts, checks, stage samples."""

    name = ""
    ops_per_block = 1  # operations that make up one full input cycle

    def __init__(self, root, work, seed, sizes):
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.theta_errors = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def python(self, argv):
        """Run a fresh interpreter in the checkout; returns (seconds, process)."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    def setup_sample(self, i):
        """Seconds of set-up number i: fresh interpreter plus import."""
        seconds, proc = self.python(["-c", "import glemarket, glemarket.cli"])
        self.record("import", [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]])
        return seconds

    def prepare(self):
        """Untimed in-process warm-up before the measured loop."""

    def op(self, k, tracer, clock):
        """Run operation k, adding each timed stage to ``clock`` as it ends."""
        raise NotImplementedError

    def stage(self, tracer, name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    def derived_seed(self, k, lane=0):
        """Program seed of operation k; lanes keep loop, setup and warm-up inputs apart."""
        return int(np.random.default_rng([self.seed, lane, k]).integers(0, 2**31))


def _key_values(text):
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class LongPath(Workload):
    """README CLI workflow, one fresh interpreter per call."""

    name = "long-path"

    def __init__(self, *args):
        super().__init__(*args)
        self.out_dir = self.work / "long-path"
        self.first_digests = None
        self.spans_file = self.work / "child_spans.json"

    def cli(self, argv, tracer):
        if tracer is None:
            return self.python(["-m", "glemarket", *argv])
        with tracer.span("bench.process") as parent:
            seconds, proc = self.python([str(CHILD), "cli", str(self.spans_file), *argv])
        if self.spans_file.exists():
            tracer.adopt(self.spans_file, parent)
            self.spans_file.unlink()
        return seconds, proc

    def op(self, k, tracer, clock):
        s = self.sizes
        # operation 1 repeats operation 0's seed: its CSVs must be byte-identical
        seed = self.derived_seed(0 if k == 1 else k)
        argv = ["simulate", "--model", "stock", "--theta", repr(s.theta), "--n-paths", "1",
                "--n-steps", str(s.n_steps), "--h", repr(s.h), "--seed", str(seed),
                "--emit-prices", "--out-dir", str(self.out_dir)]
        with self.stage(tracer, "bench.generate"):
            sim_s, proc = self.cli(argv, tracer)
        clock.add("generate_s", sim_s)
        problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        files = [self.out_dir / f"simulate_{part}.csv" for part in ("paths", "prices", "summary")]
        if not problems:
            missing = [f.name for f in files if not f.exists()]
            problems += [f"missing {name}" for name in missing]
        if not problems:
            digests = [_digest(f) for f in files]
            self.bytes_written += sum(f.stat().st_size for f in files)
            if k == 0:
                self.first_digests = digests
            elif k == 1 and digests != self.first_digests:
                problems.append("rerun with the same seed is not byte-identical")
        self.record("simulate", problems)

        prices = files[1]
        outputs = set()
        for _ in range(s.estimate_repeats):
            argv = ["estimate", "--input", str(prices), "--lag-window", repr(s.lag_window)]
            with self.stage(tracer, "bench.analyze"):
                est_s, proc = self.cli(argv, tracer)
            clock.add("analyze_s", est_s)
            self.bytes_read += prices.stat().st_size if prices.exists() else 0
            self.record("estimate", self.check_estimate(proc))
            outputs.add(proc.stdout)
        if len(outputs) > 1:
            self.record("estimate-repeat", ["repeated estimates on one input differ"])

    def check_estimate(self, proc):
        if proc.returncode != 0:
            return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        report = _key_values(proc.stdout)
        try:
            theta = float(report["theta"])
        except (KeyError, ValueError):
            return [f"no theta in output {proc.stdout[-300:]!r}"]
        self.theta_errors.append(abs(theta - self.sizes.theta))
        want = expected_class(self.sizes.theta)
        if report.get("stock_class") != want:
            return [f"stock_class {report.get('stock_class')} for theta = {self.sizes.theta} (want {want})"]
        return []


def simulate_ensemble(volterra, sizes, theta, seed):
    """Library quick start, first half; returns (seconds, ensemble)."""
    from glemarket import ModelSpec

    model = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    start = time.perf_counter()
    ens = volterra.simulate_stationary_ensemble(model, h=sizes.h, n_steps=sizes.n_steps,
                                                n_paths=sizes.n_paths, seed=seed)
    return time.perf_counter() - start, ens


def fit_ensemble(estimate, sizes, ens):
    """Library quick start, second half; returns (seconds, fit report)."""
    start = time.perf_counter()
    acf, _ = estimate.ensemble_acf(ens, max_lag=sizes.max_lag)
    report = estimate.fit_theta(acf, lag_window=sizes.lag_window)
    return time.perf_counter() - start, report


class Ensemble(Workload):
    """README library quick start in one warm process, theta cycling over the classes."""

    name = "ensemble"

    def __init__(self, *args):
        super().__init__(*args)
        self.ops_per_block = len(self.sizes.thetas)

    def setup_sample(self, i):
        """Fresh interpreter, import, and the first (cache-filling) operation."""
        s = self.sizes
        argv = [str(CHILD), "ensemble", str(s.n_paths), str(s.n_steps), repr(s.h),
                repr(s.thetas[i % len(s.thetas)]), str(s.max_lag), repr(s.lag_window),
                str(self.derived_seed(i, lane=1))]
        seconds, proc = self.python(argv)
        self.record("setup", [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]])
        return seconds

    def prepare(self):
        import glemarket.estimate
        import glemarket.volterra

        self.volterra, self.estimate = glemarket.volterra, glemarket.estimate
        # fill the model-curve cache around every theta the loop will fit:
        # after two operations per theta most later fits find every curve
        thetas = self.sizes.thetas
        for i in range(WARM_BLOCKS * len(thetas)):
            self.op(i, None, None, seed=self.derived_seed(i, lane=2))

    def op(self, k, tracer, clock, seed=None):
        s = self.sizes
        theta = s.thetas[k % len(s.thetas)]
        seed = self.derived_seed(k) if seed is None else seed
        try:
            with self.stage(tracer, "bench.generate"):
                gen_s, ens = simulate_ensemble(self.volterra, s, theta, seed)
            if clock is not None:
                clock.add("generate_s", gen_s)
            with self.stage(tracer, "bench.analyze"):
                ana_s, report = fit_ensemble(self.estimate, s, ens)
            if clock is not None:
                clock.add("analyze_s", ana_s)
        except Exception as exc:  # the loop must go on; the failure is counted
            self.record("ensemble", [f"{type(exc).__name__}: {exc}"])
            return
        problems = []
        if ens.paths.shape != (s.n_paths, s.n_steps) or not np.all(np.isfinite(ens.paths)):
            problems.append(f"bad ensemble shape {ens.paths.shape} or non-finite values")
        variance = float(np.mean(ens.paths**2))
        if abs(variance - 1.0) > ENSEMBLE_VARIANCE_TOL:
            problems.append(f"sample variance {variance:.4f} for model variance 1")
        want = expected_class(theta)
        if report.stock_class.value != want:
            problems.append(f"stock_class {report.stock_class.value} for theta = {theta} (want {want})")
        self.theta_errors.append(abs(report.theta - theta))
        self.record("ensemble", problems)


class Curves(Workload):
    """Deterministic ACF routes and identity audits through glemarket.cli.main."""

    name = "curves"

    def prepare(self):
        import glemarket.cli

        self.cli = glemarket.cli
        s = self.sizes
        self.out_dir = self.work / "curves"
        self.variance = float(0.5 + np.random.default_rng([self.seed, 3]).random())
        common = ["--variance", repr(self.variance)]
        fast = ["--h", repr(s.h), "--n-points", str(s.n_points)]
        slow = ["--h", repr(s.h_lambert), "--n-points", str(s.n_points)]
        self.acf_calls = [
            ("selfsim-laplace", ["--model", "selfsim", "--route", "laplace", *fast]),
            ("selfsim-volterra", ["--model", "selfsim", "--route", "volterra", *fast]),
            ("stock1.5-laplace", ["--model", "stock", "--theta", "1.5", "--route", "laplace", *fast]),
            ("stock1.5-volterra", ["--model", "stock", "--theta", "1.5", "--route", "volterra", *fast]),
            ("boltzmann-volterra", ["--model", "boltzmann", "--route", "volterra", *slow]),
            ("differential-volterra", ["--model", "differential", "--route", "volterra", *slow]),
            ("stock2-closed", ["--model", "stock", "--theta", "2", "--route", "closed", *fast]),
        ]
        self.acf_calls = [
            (label, ["acf", *argv, *common, "--out-dir", str(self.out_dir), "--out", f"{label}.csv"])
            for label, argv in self.acf_calls
        ]
        lags = s.h * np.arange(s.n_points)
        self.selfsim_ref = np.ones(s.n_points)
        self.selfsim_ref[1:] = 2.0 * bessel_oracle(1, 2.0 * lags[1:]) / (2.0 * lags[1:])
        self.stock2_ref = bessel_oracle(0, lags)
        self.route_devs = []
        self.audit_points = 0

    def audit_argv(self, model, seed):
        s = self.sizes
        argv = ["audit", "--model", model, "--n-real", str(s.n_real), "--variance", repr(self.variance)]
        if model in ("stock", "scaling", "fractional"):
            argv += ["--theta", "1.5"]
        if model in ("white", "selfsim", "stock"):  # complex-capable images
            argv += ["--n-complex", str(s.n_complex), "--seed", str(seed)]
        return argv

    def timed_main(self, argv, clock):
        """``glemarket.cli.main(argv)`` in process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # the loop must go on; the failure is counted
            code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
        clock.part(time.perf_counter() - start)
        return code, out.getvalue(), err.getvalue()

    def op(self, k, tracer, clock):
        # every call is timed between its own pair of speed probes
        results = []
        with self.stage(tracer, "bench.generate"):
            for label, argv in self.acf_calls:
                results.append((label, self.timed_main(argv, clock)))
        clock.close("generate_s")
        audits = []
        seed = self.derived_seed(k)
        with self.stage(tracer, "bench.analyze"):
            for model in ("white", "selfsim", "stock", "scaling", "fractional", "boltzmann", "differential"):
                audits.append((model, self.timed_main(self.audit_argv(model, seed), clock)))
        clock.close("analyze_s")
        with self.stage(tracer, "bench.check"):
            self.check_curves(results)
            for model, (code, out, err) in audits:
                self.check_audit(model, code, out, err)

    def check_curves(self, results):
        curves = {}
        for label, (code, _, err) in results:
            path = self.out_dir / f"{label}.csv"
            if code != 0 or not path.exists():
                self.record(f"acf {label}", [f"exit {code}: {err.strip()[-300:]}"])
                continue
            self.bytes_written += path.stat().st_size
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            values = data[:, 1]
            problems = []
            if data.shape != (self.sizes.n_points, 2) or not np.all(np.isfinite(values)):
                problems.append(f"bad table shape {data.shape} or non-finite values")
            elif values[0] != 1.0:
                problems.append(f"normalized ACF starts at {values[0]!r}")
            curves[label] = values
            self.record(f"acf {label}", problems)

        # each route against the closed form where one exists, else the other route
        devs = []
        pairs = [
            ("selfsim-laplace", self.selfsim_ref, LAPLACE_TOL),
            ("selfsim-volterra", self.selfsim_ref, MARCH_TOL),
            ("stock1.5-volterra", curves.get("stock1.5-laplace"), MARCH_TOL),
            ("stock2-closed", self.stock2_ref, CLOSED_TOL),
        ]
        for label, reference, tol in pairs:
            if label in curves and reference is not None:
                dev = float(np.max(np.abs(curves[label] - reference)))
                devs.append(dev)
                self.record(f"route {label}", [] if dev <= tol else [f"max deviation {dev:.3e} > {tol:g}"])
        if "boltzmann-volterra" in curves:
            # the Boltzmann identity forces an exact zero at lag 2 tau_R
            c = curves["boltzmann-volterra"]
            at_two = abs(c[int(round(2.0 / self.sizes.h_lambert))])
            self.record("route boltzmann zero", [] if at_two <= 1e-9 else [f"|c(2 tau_R)| = {at_two:.3e}"])
        if "differential-volterra" in curves:
            tail = abs(curves["differential-volterra"][-1])
            self.record("route differential decay", [] if tail <= 1e-6 else [f"|c(end)| = {tail:.3e}"])
        if devs:
            self.route_devs.append(max(devs))

    def check_audit(self, model, code, out, err):
        report = out.strip().splitlines()[-1] if out.strip() else ""
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[-300:]}")
        elif "failures = 0" not in report:
            problems.append(f"audit summary {report!r}")
        else:
            self.audit_points += int(report.split()[1])
        self.record(f"audit {model}", problems)


WORKLOADS = {cls.name: cls for cls in (LongPath, Ensemble, Curves)}
SIZES = {"long-path": LongPathSizes(), "ensemble": EnsembleSizes(), "curves": CurvesSizes()}


def setup(workload):
    """Set-up samples as (reference-speed seconds, wall seconds)."""
    clock = Clock()
    for i in range(workload.sizes.setup_probes):
        clock.add("setup_s", workload.setup_sample(i))
    return ([wall * factor for _, wall, factor in clock.samples],
            [wall for _, wall, _ in clock.samples])


def measure(workload, seconds, trace):
    """Closed loop of whole blocks until ``seconds`` have passed.

    Stage times are kept twice: at reference speed under their metric name
    and as wall time under ``wall_<name>``; each operation's total at
    reference speed goes under ``op_s``.  With ``trace`` on, blocks
    alternate between traced and untraced so that the tracing overhead is
    measured on the same inputs in the same run.  Returns (untraced
    samples, traced samples, tracer).
    """
    keys = ("generate_s", "analyze_s", "op_s", "wall_generate_s", "wall_analyze_s")
    samples = {key: [] for key in keys}
    traced_samples = {key: [] for key in keys}
    tracer = Tracer() if trace else None
    block = workload.ops_per_block
    # long-path needs two operations for its byte-identical rerun check
    min_blocks = 2 if trace or workload.name == "long-path" else 1
    start = time.perf_counter()
    k = 0
    while k < min_blocks * block or time.perf_counter() - start < seconds or k % block:
        traced = trace and (k // block) % 2 == 0
        clock = Clock()
        if traced:
            tracer.install()
            try:
                with tracer.span("bench.op"):
                    workload.op(k, tracer, clock)
            finally:
                tracer.uninstall()
        else:
            workload.op(k, None, clock)
        into = traced_samples if traced else samples
        for key, wall, factor in clock.samples:
            into[key].append(wall * factor)
            into["wall_" + key].append(wall)
        if clock.samples:
            into["op_s"].append(sum(wall * factor for _, wall, factor in clock.samples))
        workload.ops += 1
        k += 1
    return samples, traced_samples, tracer
