"""In-memory span tracing of glemarket's layers, installed from outside.

The tracer replaces public functions at the names their callers look up
(``glemarket.volterra.generate_colored``, ``glemarket.estimate.invert_at``,
``glemarket.cli.fit_theta`` ...) with wrappers that record one span per
call: name, start, end and parent span.  A few wrappers also add work
counts computed from their arguments.  Nothing inside ``src/`` changes, and
``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory; a child process dumps its spans to a JSON file that
the parent adopts under the span that launched it (``time.perf_counter`` is
the system-wide monotonic clock on Linux, so both processes share one
timeline).
"""

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

_SPECFUN_SITES = {
    "glemarket.models": ("bessel_j0", "lambda1", "lambert_w0_exp", "lambert_wm1_neg_exp"),
    "glemarket.volterra": ("lambda1",),
    "glemarket.cli": ("lambda0", "lambda1"),
}


def _forcing_steps(args, kwargs):
    forcing = args[1] if len(args) > 1 else kwargs["forcing"]
    n_paths, n_steps = forcing.paths.shape
    return {"volterra.path_steps": n_paths * n_steps,
            "volterra.integrate_gle.fft_len": 1 << int(np.ceil(np.log2(2 * n_steps)))}


def _noise_request(args, kwargs):
    request = args[0] if args else kwargs["request"]
    return {"noise.paths": request.n_paths, "noise.requests": 1}


def _invert_times(args, kwargs):
    times = args[1] if len(args) > 1 else kwargs["times"]
    return {"laplace.invert_at.times": int(np.size(times))}


def _shape_points(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return {"models.image_points": int(np.size(p))}


def _embed_length(args, kwargs):
    request = args[0]
    half = args[1] if len(args) > 1 and args[1] is not None else request.n_steps
    return {"noise.fft_len": 2 * int(half)}


# (module[:class], attribute, span name, count hook)
SITES = [
    ("glemarket.cli", "main", "cli.main", None),
    ("glemarket.cli", "simulate_stationary_ensemble", "volterra.simulate_stationary_ensemble", None),
    ("glemarket.volterra", "simulate_stationary_ensemble", "volterra.simulate_stationary_ensemble", None),
    ("glemarket.volterra", "integrate_gle", "volterra.integrate_gle", _forcing_steps),
    ("glemarket.volterra", "memory_kernel", "volterra.memory_kernel", None),
    ("glemarket.cli", "memory_kernel", "volterra.memory_kernel", None),
    ("glemarket.cli", "propagate_acf", "volterra.propagate_acf", None),
    ("glemarket.cli", "boltzmann_acf", "volterra.lambert_acf", None),
    ("glemarket.cli", "differential_acf", "volterra.lambert_acf", None),
    ("glemarket.volterra", "generate_colored", "noise.generate_colored", _noise_request),
    ("glemarket.noise", "circulant_spectrum", "noise.circulant_spectrum", _embed_length),
    ("glemarket.volterra", "spectral_density", "laplace.spectral_density", None),
    ("glemarket.cli", "invert", "laplace.invert", None),
    ("glemarket.laplace", "invert_at", "laplace.invert_at", _invert_times),
    ("glemarket.estimate", "invert_at", "laplace.invert_at", _invert_times),
    ("glemarket.models:ShapeEvaluator", "__call__", "models.shape", _shape_points),
    ("glemarket.models", "solve_functional_shape", "models.solve_functional_shape", None),
    ("glemarket.cli", "identity_residual", "models.identity_residual", None),
    ("glemarket.cli", "closed_form_acf", "models.closed_form_acf", None),
    ("glemarket.cli", "fit_theta", "estimate.fit_theta", None),
    ("glemarket.estimate", "fit_theta", "estimate.fit_theta", None),
    ("glemarket.cli", "ensemble_acf", "estimate.ensemble_acf", None),
    ("glemarket.estimate", "ensemble_acf", "estimate.ensemble_acf", None),
    ("glemarket.cli", "sample_acf", "estimate.sample_acf", None),
    ("glemarket.estimate", "model_curve", "estimate.model_curve", None),
    ("glemarket.cli", "price_from_returns", "market.price_from_returns", None),
    ("glemarket.cli", "returns_from_prices", "market.returns_from_prices", None),
] + [
    (module, name, "specfun", None)
    for module, names in _SPECFUN_SITES.items()
    for name in names
]


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans ``(name, start, end, parent)`` and work counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, (self._stack[-2] if len(self._stack) > 1 else -1)

    def _close(self, index, name, start, parent):
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            index, parent = tracer._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, name, start, parent)
                if hook is not None:
                    tracer.counts.update(hook(args, kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for path, attr, name, hook in SITES:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        return self

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def adopt(self, path, parent):
        """Append a child process's dumped spans beneath span ``parent``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, up in data["spans"]:
            self.spans.append((name, start, end, parent if up < 0 else up + offset))
        self.counts.update(data["counts"])


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index, self.parent = self.tracer._open(self.name)
        self.start = time.perf_counter()
        return self.index

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.name, self.start, self.parent)
        return False


def nesting_violations(spans):
    """Spans that end before they start or stick out of their parent."""
    bad = []
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append((index, name, "ends before it starts"))
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad.append((index, name, f"outside parent {spans[parent][0]}"))
    return bad


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo = max(c_start, reach)
            if c_end > lo:
                covered += c_end - lo
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer, n_ops):
    """Per-operation layer metrics from the recorded spans and counts."""
    spans = tracer.spans
    own = self_times(spans)
    total = Counter()
    self_total = Counter()
    layer_self = Counter()
    calls = Counter()
    misses = 0
    for (name, start, end, parent), s in zip(spans, own):
        total[name] += end - start
        self_total[name] += s
        layer_self[name.split(".", 1)[0]] += s
        calls[name] += 1
        if name == "laplace.invert_at" and parent >= 0 and spans[parent][0] == "estimate.model_curve":
            misses += 1
    counts = tracer.counts
    curve_calls = calls["estimate.model_curve"]
    requests = counts["noise.requests"]
    per_op = {
        "volterra.integrate_gle.s": total["volterra.integrate_gle"],
        "volterra.simulate_stationary_ensemble.self_s": self_total["volterra.simulate_stationary_ensemble"],
        "volterra.propagate_acf.s": total["volterra.propagate_acf"],
        "volterra.lambert_acf.s": total["volterra.lambert_acf"],
        "volterra.path_steps": counts["volterra.path_steps"],
        "noise.generate_colored.s": total["noise.generate_colored"],
        "noise.paths": counts["noise.paths"],
        "laplace.invert_at.s": total["laplace.invert_at"],
        "laplace.invert_at.times": counts["laplace.invert_at.times"],
        "laplace.spectral_density.s": total["laplace.spectral_density"],
        "models.image_points": counts["models.image_points"],
        "models.solve_functional_shape.s": total["models.solve_functional_shape"],
        "models.identity_residual.s": total["models.identity_residual"],
        "models.identity_residual.calls": calls["models.identity_residual"],
        "specfun.s": total["specfun"],
        "estimate.fit_theta.s": total["estimate.fit_theta"],
        "estimate.ensemble_acf.s": total["estimate.ensemble_acf"],
        "estimate.sample_acf.s": total["estimate.sample_acf"],
        "estimate.model_curve.calls": curve_calls,
        "estimate.curve_misses": misses,
        "market.s": total["market.price_from_returns"] + total["market.returns_from_prices"],
        "cli.self_s": self_total["cli.main"],
    }
    metrics = {name: value / n_ops for name, value in per_op.items()}
    # ratios are not per-operation quantities
    metrics["noise.embed_attempts"] = calls["noise.circulant_spectrum"] / requests if requests else 0.0
    metrics["estimate.curve_hit_ratio"] = (curve_calls - misses) / curve_calls if curve_calls else 0.0
    work = {
        "volterra.integrate_gle.fft_len": counts["volterra.integrate_gle.fft_len"] / max(calls["volterra.integrate_gle"], 1),
        "noise.fft_len": counts["noise.fft_len"] / max(calls["noise.circulant_spectrum"], 1),
    }
    return metrics, {layer: s / n_ops for layer, s in layer_self.items()}, work
