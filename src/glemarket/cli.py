"""Command-line surface: figure data, ACF evaluation, simulation, estimation,
and identity auditing, glued together with CSV files and a flat config file.

Conventions shared by every subcommand:

* CSV only, header row mandatory, dot decimal separator, fixed column
  order, "\n" line endings, trailing newline.  Floats are written with
  repr, the shortest round-tripping form, so output is locale-independent
  and byte-identical across reruns.
* Config file: flat ``key = value`` lines (``#`` comments and blank lines
  allowed).  Recognized keys: ``seed``, ``out_dir``, ``tolerance``, and
  model parameter presets ``model.<name>``; any other key is a ParseError
  with its line number.  Flags override config values, which override
  built-in defaults.
* Exit codes: 0 success, 2 bad input (including parse and degenerate-data
  errors), 3 capability gap (the combination is not defined), 4 accuracy
  or convergence failure.
* Randomized commands never fall back to wall-clock seeding: an explicit
  ``--seed`` (or a ``seed`` line in the config) is required.
"""

import argparse
import csv
import functools
import io
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateSeriesError,
    GleMarketError,
    InputError,
    ParseError,
    check_count,
    check_positive,
    check_seed,
)
from .estimate import ensemble_acf, fit_theta, sample_acf
from .laplace import invert
from .market import MarketParams, price_from_returns, returns_from_prices, simulate_gbm
from .models import (
    CATALOG,
    ROUTES,
    Variant,
    closed_form_acf,
    force_shape,
    identity_residual,
    observable_evaluator,
    observable_shape,
    render_catalog,
)
from .noise import LANES, generate_wiener_increments
from .series import PathEnsemble
from .specfun import lambda0, lambda1
from .volterra import (_circulant_length, boltzmann_acf, differential_acf, memory_kernel,
                       propagate_acf, simulate_stationary_ensemble)

_PRESET_KEYS = (
    "model.tau_r",
    "model.tau_R",
    "model.theta",
    "model.variance",
    "model.mu",
    "model.sigma",
    "model.M0",
)

CAPABILITY_MATRIX = (
    "Model capability matrix: a note starting with 'no' refuses its route, and volterra\n"
    "also refuses the memoryless white and stock theta = 0 models (exit code 3):\n\n"
    + render_catalog()
)


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration, parsed from key=value text."""

    seed: int | None = None
    out_dir: str = "."
    tolerance: float | None = None  # None: each command's own default
    presets: tuple = ()

    def __post_init__(self):
        if self.seed is not None:
            check_seed(self.seed)
        if self.tolerance is not None:
            check_positive(self.tolerance, "tolerance")
        object.__setattr__(self, "presets", tuple(sorted(dict(self.presets).items())))
        for key, value in self.presets:
            if key not in _PRESET_KEYS:
                raise InputError(f"unknown preset key {key!r}")
            if not np.isfinite(value):
                raise InputError(f"preset {key} must be finite")

    def preset(self, name, default=None):
        return dict(self.presets).get(f"model.{name}", default)


def parse_config(text):
    """Parse flat key=value config text into a RunConfig."""
    fields = {}
    presets = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields or key in presets:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if key not in ("seed", "out_dir", "tolerance") and key not in _PRESET_KEYS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        try:
            if key == "seed":
                fields[key] = int(value)
            elif key == "out_dir":
                fields[key] = value
            elif key == "tolerance":
                fields[key] = float(value)
            else:
                presets[key] = float(value)
        except ValueError:
            raise ParseError(
                f"could not parse value {value!r} for key {key!r}", line=lineno
            ) from None
    return RunConfig(presets=tuple(sorted(presets.items())), **fields)


def _read_text(path, what):
    """The UTF-8 text of the file at ``path``, line endings untranslated.

    A file that cannot be read is an InputError naming ``what`` it is;
    bytes that are not UTF-8 are a ParseError at their line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None


def load_config(path):
    # parse_config splits at any line ending, so untranslated ones parse alike
    return parse_config(_read_text(path, "config "))


# -- CSV plumbing ---------------------------------------------------------------


# rows of a column CSV formatted into one string and written with one call,
# at most _CSV_BLOCK of them and at most _CSV_CELLS cells
_CSV_BLOCK = 1024
_CSV_CELLS = 16384


def _write_csv(path, rows, blocks=()):
    """Write rows through csv.writer, then each preformatted block of lines
    with one write call."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
            for block in blocks:
                fh.write(block)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _write_columns(path, header, *columns):
    """CSV of equal-length numeric columns under a csv.writer header.

    Each cell is the repr of the column's .tolist() value, which is what
    csv.writer prints for ints, bools and floats (shortest float repr), so
    the bytes are a csv.writer file's.  The rows go out in blocks of at
    most _CSV_BLOCK rows and _CSV_CELLS cells (one row at the least), each
    formatted as one string and written with one call, so only one block
    of Python values is alive at once, however wide the file.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    rows = max(1, min(_CSV_BLOCK, _CSV_CELLS // max(1, len(columns))))

    def blocks():
        for lo in range(0, n_rows, rows):
            cells = [map(repr, c[lo : lo + rows].tolist()) for c in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _write_csv(path, [header], blocks())


def _out_path(args, filename):
    out_dir = args.out_dir if args.out_dir is not None else args.config.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    return os.path.join(out_dir, filename)


def _resolved_seed(args):
    seed = args.seed if args.seed is not None else args.config.seed
    if seed is None:
        raise InputError(
            "this command draws random numbers: pass --seed (or set seed in the config)"
        )
    return check_seed(seed)


def _resolved_tolerance(args, default):
    """--tolerance, else the config's tolerance, else the command's default;
    one rule for either source: positive and finite."""
    for tolerance in (args.tolerance, args.config.tolerance):
        if tolerance is not None:
            return check_positive(tolerance, "tolerance")
    return default


def _param(args, name, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    preset = args.config.preset(name)
    return default if preset is None else preset


# -- model construction -----------------------------------------------------------


def _build_model(args):
    row = CATALOG[Variant(args.model)]
    variance = _param(args, "variance", 1.0)
    if row.family == "market":
        if args.tau_r is not None or args.theta is not None:
            raise InputError(f"model {args.model!r} takes --tau-R only")
        return row.make(_param(args, "tau_R", 1.0), variance=variance)
    theta, tau_R = args.theta, args.tau_R
    if theta is None and tau_R is None:
        theta = args.config.preset("theta")
        tau_R = args.config.preset("tau_R") if theta is None else None
        if theta is None and tau_R is None:
            theta = 1.0
    return row.make(_param(args, "tau_r", 1.0), theta=theta, tau_R=tau_R, variance=variance)


def _add_model_arguments(parser, models):
    parser.add_argument("--model", required=True, choices=models)
    parser.add_argument("--tau-R", type=float, default=None, dest="tau_R",
                        help="market memory time (market-family models, or stock via ratio)")
    parser.add_argument("--tau-r", type=float, default=None, dest="tau_r",
                        help="stock correlation time (stock-family models)")
    parser.add_argument("--theta", type=float, default=None,
                        help="memory ratio tau_R/tau_r (stock-family models)")
    parser.add_argument("--variance", type=float, default=None,
                        help="equal-time second moment (default 1)")


# -- subcommands --------------------------------------------------------------------


def cmd_fig1(args):
    check_count(args.n_points, "--n-points", 2)
    check_positive(args.max_lag_ratio, "--max-lag-ratio")
    ratio = np.linspace(0.0, args.max_lag_ratio, args.n_points)
    col1 = lambda1(2.0 * ratio)
    col0 = lambda0(2.0 * ratio)
    path = _out_path(args, args.out)
    _write_columns(path, ["lag_ratio", "lambda1", "lambda0"], ratio, col1, col0)
    print(f"wrote {path} ({args.n_points} rows)")
    return 0


def _acf_by_route(model, route, h, n_points, tolerance):
    if route == "closed":
        return closed_form_acf(model, h * np.arange(n_points))
    if route == "laplace":
        return invert(observable_evaluator(model), h, n_points, tolerance=tolerance).values
    if model.variant is Variant.BOLTZMANN:  # the volterra route from here on
        return boltzmann_acf(model, h, n_points).values
    if model.variant is Variant.DIFFERENTIAL:
        return differential_acf(model, h, n_points).values
    return propagate_acf(memory_kernel(model, h, n_points), n_points).values


def cmd_acf(args):
    model = _build_model(args)
    check_positive(args.h, "--h")
    check_count(args.n_points, "--n-points", 2)
    if args.tolerance is not None and args.route != "laplace":
        raise InputError(f"--tolerance applies to --route laplace only, not {args.route}")
    CATALOG[model.variant].require(model, args.route)
    values = _acf_by_route(model, args.route, args.h, args.n_points, _resolved_tolerance(args, 1e-6))
    path = _out_path(args, args.out)
    _write_columns(path, ["lag", "acf"], args.h * np.arange(args.n_points), values)
    print(f"wrote {path} ({args.n_points} rows, model={args.model}, route={args.route})")
    return 0


_LANE_LEGEND = "seed lanes: " + ", ".join(f"{name}={lane}" for name, lane in LANES.items())


def _write_paths_csv(path, times, paths, prices=False):
    if prices and paths.shape[0] == 1:
        # single price path: use the exact header cmd_estimate reads back
        header = ["t", "price"]
    else:
        header = ["t"] + [f"path_{i}" for i in range(paths.shape[0])]
    _write_columns(path, header, times, *paths)


def _simulate_size(args, model):
    """Peak bytes of a simulate run, checked before anything is allocated:
    eight float64 arrays per path and two shared, over the generated grid."""
    samples = args.n_steps
    if model is not None and not model.memoryless:
        samples = _circulant_length(args.n_steps)
    need = 64 * (args.n_paths + 2) * samples
    size = f"{args.n_paths} paths x {samples} steps need about {need:.3g} bytes"
    if hasattr(os, "sysconf"):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise InputError(f"request too large: {size}; this machine has {have:.3g} bytes")
    return size


def cmd_simulate(args):
    seed = _resolved_seed(args)
    check_positive(args.h, "--h")
    # the summary ACF needs at least 4 samples (lag 1 at n/4)
    check_count(args.n_steps, "--n-steps", 4)
    check_count(args.n_paths, "--n-paths", 1)
    # checked for every model, before anything is written
    check_count(args.max_lag, "--max-lag", 1)
    if args.model == "gbm" and (args.theta, args.tau_r, args.tau_R, args.variance) != (None,) * 4:
        raise InputError("model 'gbm' takes --mu, --sigma and --M0 only")
    if args.model == "gbm" and args.emit_prices:
        raise InputError("model 'gbm' writes prices already; --emit-prices is for return models")
    model = None if args.model == "gbm" else _build_model(args)
    size = _simulate_size(args, model)
    try:
        return _run_simulate(args, model, seed)
    except MemoryError:
        raise InputError(f"out of memory: {size}") from None


def _run_simulate(args, model, seed):
    base = args.out

    if model is None:  # gbm
        params = MarketParams(
            mu=_param(args, "mu", 0.0),
            sigma=_param(args, "sigma", 0.2),
            variance_R=_param(args, "variance", 1.0),
            M0=_param(args, "M0", 1.0),
        )
        increments = generate_wiener_increments(args.n_steps, args.h, args.n_paths, seed)
        prices = simulate_gbm(params, increments)
        paths_file = _out_path(args, f"{base}_paths.csv")
        _write_paths_csv(paths_file, prices.times, prices.paths, prices=True)
        print(f"wrote {paths_file} (prices, {prices.n_paths} paths x {prices.n_steps} samples)")
        # sample-mean detrended log returns; at sigma = 0 the return rate is
        # exactly the drift, and there is no ACF to summarize
        returns = returns_from_prices(prices) if params.sigma > 0.0 else None
    else:
        returns = simulate_stationary_ensemble(model, args.h, args.n_steps, args.n_paths, seed)
        if args.emit_prices:  # built first: it validates --mu and --M0 before any write
            mu = _param(args, "mu", 0.0)
            M0 = _param(args, "M0", 1.0)
            prices = price_from_returns(returns, mu=mu, M0=M0)
        paths_file = _out_path(args, f"{base}_paths.csv")
        _write_paths_csv(paths_file, returns.times, returns.paths)
        print(f"wrote {paths_file} (return rates, {returns.n_paths} paths x {returns.n_steps} samples)")
        if args.emit_prices:
            prices_file = _out_path(args, f"{base}_prices.csv")
            _write_paths_csv(prices_file, prices.times, prices.paths, prices=True)
            print(f"wrote {prices_file} (prices via exp integral, mu={mu!r}, M0={M0!r})")
    _summarize_returns(args, returns, base)
    print(f"master_seed = {seed}")
    print(_LANE_LEGEND)
    return 0


def _summarize_returns(args, ensemble, base):
    """Write the ensemble-mean ACF summary; ``None`` (a deterministic run)
    writes an empty one."""
    summary_file = _out_path(args, f"{base}_summary.csv")
    if ensemble is None:
        _write_csv(summary_file, [["lag", "acf_mean", "acf_se"]])
        print(f"wrote {summary_file} (deterministic run: zero return variance, ACF omitted)")
        print("variance = 0.0")
        return
    max_lag = min(ensemble.n_steps // 4, args.max_lag)
    acf, se = ensemble_acf(ensemble, max_lag)
    lags = acf.h * np.arange(max_lag + 1)
    _write_columns(summary_file, ["lag", "acf_mean", "acf_se"], lags, acf.values, se)
    print(f"wrote {summary_file} ({max_lag + 1} rows)")
    print(f"variance = {float(acf.variance)!r}")


def _split_price_csv(text):
    """(t, prices) of a plain price CSV by ``str.split``, or None.

    Plain is what csv.reader reads as one row per line: no carriage return
    (a row end to csv.reader, whitespace to float), a known header, at
    least 3 samples, and on every line as many cells as the header, each a
    float.  A quote or a NUL fails float, so it reaches the csv.reader
    loop, which parses everything else and words every error.
    """
    if "\r" in text:
        return None
    head, _, body = text.partition("\n")
    header = [cell.strip() for cell in head.split(",")]
    if body.endswith("\n"):
        body = body[:-1]
    lines = body.split("\n")
    if header not in (["t", "price"], ["price"]) or len(lines) < 3:
        return None
    if set(map(str.count, lines, itertools.repeat(","))) != {len(header) - 1}:
        return None
    try:
        cells = np.array(list(map(float, body.replace("\n", ",").split(","))))
    except ValueError:
        return None
    columns = cells.reshape(len(lines), len(header)).T.copy()
    return (columns[0] if len(header) == 2 else None), columns[-1]


def _read_price_csv(path):
    text = _read_text(path, "")
    plain = _split_price_csv(text)
    if plain is not None:
        return plain
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise ParseError("empty file: expected a 't,price' or 'price' header", line=1)
    header = [cell.strip() for cell in rows[0]]
    if header == ["t", "price"]:
        t_col, p_col = 0, 1
    elif header == ["price"]:
        t_col, p_col = None, 0
    else:
        raise ParseError(
            f"unrecognized header {','.join(header)!r}: expected 't,price' or 'price'",
            line=1,
        )
    times, prices = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(row)}", line=lineno
            )
        try:
            if t_col is not None:
                times.append(float(row[t_col]))
            prices.append(float(row[p_col]))
        except ValueError:
            raise ParseError(
                f"could not parse {row[p_col] if t_col is None else row!r} as a number",
                line=lineno,
            ) from None
    if len(prices) < 3:
        raise InputError("need at least 3 price samples to estimate anything")
    t = np.asarray(times) if t_col is not None else None
    return t, np.asarray(prices)


def _infer_h(args, t):
    if args.h is not None:
        return check_positive(args.h, "--h")
    if t is None:
        raise InputError("input has no 't' column: pass --h explicitly")
    steps = np.diff(t)
    if steps.size == 0 or not np.all(steps > 0):
        raise InputError("'t' column must be strictly increasing")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise InputError("'t' column is not uniformly spaced: pass --h explicitly")
    return h


def cmd_estimate(args):
    t, price_row = _read_price_csv(args.input)
    h = _infer_h(args, t)
    prices = PathEnsemble(h=h, paths=price_row[None, :], kind="price")
    mu = None if args.detrend == "sample-mean" else 0.0
    returns = returns_from_prices(prices, mu=mu)
    series = returns.paths[0]
    # a deterministic price series leaves only log/exp roundoff after
    # detrending; refuse to fit that noise rather than report a bogus model
    raw_scale = float(np.sqrt(np.mean(np.square(np.diff(np.log(price_row)) / h))))
    if float(np.sqrt(np.mean(series * series))) <= 1e-12 * raw_scale:
        raise DegenerateSeriesError("series has zero variance after detrending")
    n = series.size
    max_lag = min(n // 4, args.max_lag)
    if max_lag < 8:
        raise InputError("series too short: fewer than 8 usable ACF lags")
    acf = sample_acf(series, max_lag, h=h)
    lag_window = args.lag_window if args.lag_window is not None else max_lag * h
    report = fit_theta(acf, lag_window)
    lines = [
        ("tau_r", repr(float(report.tau_r))),
        ("theta", repr(float(report.theta))),
        ("variance", repr(float(report.variance))),
        ("residual", repr(float(report.residual))),
        ("stock_class", report.stock_class.value),
        ("lags_used", str(report.lags_used)),
        ("degenerate", str(report.degenerate).lower()),
        ("window_ok", str(report.window_ok).lower()),
    ]
    for key, value in lines:
        print(f"{key} = {value}")
    if not report.window_ok:
        print("note: lag window shorter than 3 fitted correlation times", file=sys.stderr)
    if report.degenerate:
        print("note: objective is flat near the optimum (non-identifiable fit)", file=sys.stderr)
    if args.out is not None:
        path = _out_path(args, args.out)
        _write_csv(path, [[k for k, _ in lines], [v for _, v in lines]])
        print(f"wrote {path}")
    return 0


# decades of corr_time * p that the real audit grid spans
_AUDIT_DECADES = (-2.0, 2.0)


def _grid_residuals(model, grid):
    """Closure residuals of a whole p grid from one identity_residual call;
    only if that raises is the grid redone point by point, with None for
    exactly the points that fail to converge."""
    try:
        return list(identity_residual(model, grid))
    except AccuracyError:  # SolverError included
        residuals = []
    for p in grid:
        try:
            residuals.append(identity_residual(model, p))
        except AccuracyError:
            residuals.append(None)
    return residuals


def _audit_rows(model, args, tolerance):
    """Audit table rows and their failure count.  Each p grid is one array
    call: identity_residual on the real and on the seeded complex grid, and
    for differential force_shape at u + du and u - du and observable_shape."""
    scale = 1.0 / model.corr_time
    p_real = scale * np.logspace(*_AUDIT_DECADES, args.n_real)
    grids = [p_real]
    if args.n_complex > 0:
        rng = np.random.default_rng(_resolved_seed(args))
        magnitude = scale * 10.0 ** rng.uniform(-2.0, 2.0, size=(args.n_complex, 2))
        signs = rng.choice([-1.0, 1.0], size=args.n_complex)
        grids.append(magnitude[:, 0] + 1j * (signs * magnitude[:, 1]))
    rows = []
    for points in grids:
        for p, residual in zip(points, _grid_residuals(model, points)):
            status = ("no-converge" if residual is None
                      else "ok" if residual <= tolerance else "FAIL")
            cell = "nan" if residual is None else repr(float(residual))
            rows.append(["closure", repr(float(p.real)), repr(float(p.imag)), cell, status])

    if model.variant is Variant.DIFFERENTIAL:
        # defining derivative identity dg/du = y(u) in normalized units,
        # checked by central differences; accuracy is limited by the step,
        # so these rows pass at max(tolerance, 10 * step^2)
        step = args.fd_step
        fd_tol = max(tolerance, 10.0 * step * step)
        u = model.tau_R * p_real
        du = step * np.maximum(u, 1.0)
        gp = force_shape(model, (u + du) / model.tau_R)
        # at the largest allowed step u - du is 0 up to roundoff
        gm = force_shape(model, np.maximum(u - du, 0.0) / model.tau_R)
        residuals = np.abs((gp - gm) / (2.0 * du) - observable_shape(model, p_real))
        for p, residual in zip(p_real, residuals):
            rows.append(["derivative", repr(float(p)), "0.0", repr(float(residual)),
                         "ok" if residual <= fd_tol else "FAIL"])
    failures = sum(row[4] != "ok" for row in rows)
    return rows, failures


def cmd_audit(args):
    """Print (and optionally write) the audit table; exit 4 on any failed row.
    The real grid and the complex grid each cost one identity_residual call."""
    model = _build_model(args)
    check_count(args.n_real, "--n-real", 2)
    check_count(args.n_complex, "--n-complex", 0)
    if args.seed is not None and args.n_complex == 0:
        raise InputError("--seed seeds the --n-complex points only; the real grid draws nothing")
    u_min = 10.0 ** _AUDIT_DECADES[0]
    if not 0 < args.fd_step <= u_min:  # nan and inf fail it too
        raise InputError(
            f"--fd-step must be in (0, {u_min!r}]: derivative rows evaluate g at "
            f"u - du = u - fd_step * max(u, 1), which must stay >= 0 down to the "
            f"smallest grid point u = tau_R p = {u_min!r}"
        )
    tolerance = _resolved_tolerance(args, 1e-10)
    rows, failures = _audit_rows(model, args, tolerance)
    print("check,p_real,p_imag,residual,status")
    for row in rows:
        print(",".join(row))
    if args.out is not None:
        path = _out_path(args, args.out)
        _write_csv(path, [["check", "p_real", "p_imag", "residual", "status"], *rows])
        print(f"wrote {path}")
    worst = max((float(r[3]) for r in rows if r[3] != "nan"), default=0.0)
    print(f"checked {len(rows)} points, worst residual = {worst!r}, "
          f"tolerance = {tolerance!r}, failures = {failures}")
    if failures:
        raise AccuracyError(f"{failures} audit rows exceed tolerance", achieved=worst)
    return 0


# -- argument parsing ----------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="glemarket",
        description="Numerical laboratory for memory-kernel market and stock return models.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=CAPABILITY_MATRIX,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    models = [v.value for v in Variant]

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out-dir", default=None, help="output directory (default: config out_dir or '.')")

    p = sub.add_parser(
        "fig1",
        help="emit the two market-ACF reference curves vs dimensionless lag",
        description="CSV columns: lag_ratio (tau/tau_R), lambda1(2 tau/tau_R), lambda0(2 tau/tau_R); the first row is (0, 1, 1).",
    )
    common(p)
    p.add_argument("--max-lag-ratio", type=float, default=12.0)
    p.add_argument("--n-points", type=int, default=481)
    p.add_argument("--out", default="fig1.csv")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser(
        "acf",
        help="evaluate a model ACF by the closed, laplace, or volterra route",
        description="Emits CSV columns (lag, acf).\n\n" + CAPABILITY_MATRIX,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p)
    _add_model_arguments(p, models)
    p.add_argument("--route", required=True, choices=ROUTES[:3])  # the ACF routes
    p.add_argument("--tolerance", type=float, default=None, help="laplace accuracy target (default 1e-6)")
    p.add_argument("--h", type=float, required=True, help="lag step")
    p.add_argument("--n-points", type=int, default=256)
    p.add_argument("--out", default="acf.csv")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser(
        "simulate",
        help="synthesize a seeded path ensemble plus an ACF/variance summary",
        description="gbm draws geometric Brownian prices from --mu, --sigma and --M0; the\n"
        "catalog models draw stationary return rates (simulate column below).\n"
        + _LANE_LEGEND + "\n\n" + CAPABILITY_MATRIX,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p)
    _add_model_arguments(
        p, ["gbm"] + [v.value for v, row in CATALOG.items() if row.supports("simulate")]
    )
    p.add_argument("--seed", type=int, default=None, help="master seed (required)")
    p.add_argument("--mu", type=float, default=None, help="drift rate (gbm / --emit-prices)")
    p.add_argument("--sigma", type=float, default=None, help="gbm volatility")
    p.add_argument("--M0", type=float, default=None, dest="M0", help="initial price")
    p.add_argument("--n-paths", type=int, required=True)
    p.add_argument("--n-steps", type=int, required=True)
    p.add_argument("--h", type=float, required=True, help="time step")
    p.add_argument("--max-lag", type=int, default=400, help="summary ACF lag cap")
    p.add_argument("--emit-prices", action="store_true",
                   help="also write price paths integrated from the return rates")
    p.add_argument("--out", default="simulate", help="output basename")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "estimate",
        help="fit (tau_r, theta) and the stock class to a price series CSV",
        description="Input CSV header must be 't,price' or 'price'. "
        "The fitted report is printed as key = value lines.",
    )
    common(p)
    p.add_argument("--input", required=True, help="price CSV path")
    p.add_argument("--h", type=float, default=None,
                   help="sample spacing (default: inferred from the 't' column)")
    p.add_argument("--detrend", choices=["sample-mean", "none"], default="sample-mean")
    p.add_argument("--max-lag", type=int, default=400, help="ACF lag cap (also capped at n/4)")
    p.add_argument("--lag-window", type=float, default=None,
                   help="fit window in time units (default: the full ACF range)")
    p.add_argument("--out", default=None, help="optional one-row CSV report")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "audit",
        help="evaluate closure-identity residuals on a p grid and flag failures",
        description="Rows: closure residual |y (tau p + g) - 1| on a real log grid, plus "
        "--n-complex random\nright-half-plane points; for differential, central-difference "
        "rows of dg/du = y.\n\n" + CAPABILITY_MATRIX,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p)
    _add_model_arguments(p, models)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of the --n-complex points (required with them only)")
    p.add_argument("--tolerance", type=float, default=None, help="closure residual bound (default 1e-10)")
    p.add_argument("--n-real", type=int, default=100, help="log-spaced real-axis points")
    p.add_argument("--n-complex", type=int, default=0,
                   help="random right-half-plane points (requires --seed)")
    p.add_argument("--fd-step", type=float, default=1e-4,
                   help="derivative-identity step, du = step * max(u, 1) at u = tau_R p, "
                   "in (0, 0.01] so u - du >= 0 on the grid; rows pass at "
                   "max(tolerance, 10 step^2)")
    p.add_argument("--out", default=None, help="optional CSV copy of the table")
    p.set_defaults(func=cmd_audit)

    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing never changes it, and
    help text reads the terminal width when it is printed, not here."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.config = load_config(args.config) if args.config else RunConfig()
        return args.func(args)
    except GleMarketError as exc:  # each class carries its exit code
        matrix = f"\n\n{CAPABILITY_MATRIX}" if isinstance(exc, CapabilityError) else ""
        print(f"error: {exc}{matrix}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory; the request is too large for this machine", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
