"""Command-line surface: figure data, ACF evaluation, simulation, estimation,
and identity auditing, glued together with CSV files and a flat config file.

Conventions shared by every subcommand:

* Flags: ``FLAGS`` names the commands that take each flag, when each reads
  it, such as ``--sigma``, read by gbm only, and its default.  One pass
  after parsing gives every flag its value: the flag if given, else its
  config key, else the default.  A flag given where it is not read exits 2
  before anything is written.  ``acf`` and ``audit`` accept ``--variance``
  but do not read it for now.
* Config file: flat ``key = value`` lines (``#`` comments and blank lines
  allowed).  Each key is a flag's value, checked and read exactly where
  that flag would be: as one config serves every command, a key the
  command does not read is dropped unchecked.  Any other key is a
  ParseError with its line number.  Of the stock pair, a ``--theta`` or
  ``--tau-R`` flag replaces both presets, ``model.theta`` wins over
  ``model.tau_R``, and theta is 1 when neither is set.
* CSV only, header row mandatory, dot decimal separator, fixed column
  order, "\n" line endings, trailing newline.  Floats are written with
  repr, the shortest round-tripping form, so output is locale-independent
  and byte-identical across reruns.
* Exit codes: 0 success, 2 bad input (including parse and degenerate-data
  errors), 3 capability gap (the combination is not defined), 4 accuracy
  or convergence failure.
* Randomized commands never fall back to wall-clock seeding: an explicit
  ``--seed`` (or a ``seed`` line in the config) is required.
"""

import argparse
import csv
import functools
import importlib
import io
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AccuracyError,
    CapabilityError,
    GleMarketError,
    InputError,
    ParseError,
    check_count,
    check_positive,
    check_seed,
)
from .models import (
    CATALOG,
    ROUTES,
    StockClass,
    Variant,
    _solvable,
    closed_form_acf,
    force_shape,
    identity_residual,
    observable_evaluator,
    observable_shape,
    render_catalog,
)
from .noise import LANES, generate_wiener_increments
from .series import PathEnsemble, _usable_lags, ensemble_acf
from .specfun import lambda0, lambda1

# the names the subcommands call from the modules only some of them run, per
# module; each is bound in this module when first needed: by main() for the
# modules every run of the chosen command needs (_COMMANDS), by the command
# for those of one route or model, or on attribute access, the way
# perfbench's tracer and a test's monkeypatch reach it.  An already bound name
# is kept, so a patched one is the one called.  fit_theta and sample_acf are
# not called here: the tracer patches them at this name
_DEFERRED = {
    "estimate": ("FitReport", "fit_prices", "fit_theta", "sample_acf"),
    "lambert": ("boltzmann_acf", "differential_acf"),
    "laplace": ("invert",),
    "market": ("MarketParams", "price_from_returns", "returns_from_prices", "simulate_gbm"),
    "volterra": ("_circulant_length", "memory_kernel", "propagate_acf", "simulate_stationary_ensemble"),
}
_DEFERRED_MODULE = {name: module for module, names in _DEFERRED.items() for name in names}


def _bind(module):
    """Bind here each deferred name of ``module`` that is not bound yet."""
    namespace = globals()
    unbound = [name for name in _DEFERRED[module] if name not in namespace]
    if unbound:
        source = importlib.import_module(f"{__package__}.{module}")
        namespace.update((name, getattr(source, name)) for name in unbound)


def __getattr__(name):
    if name not in _DEFERRED_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_DEFERRED_MODULE[name])
    return globals()[name]


CAPABILITY_MATRIX = (
    "Model capability matrix: a note starting with 'no' refuses its route, and volterra\n"
    "also refuses the memoryless white and stock theta = 0 models (exit code 3):\n\n"
    + render_catalog()
)


def parse_config(text):
    """Parse flat key=value config text into a ``{key: value}`` dict, each
    value parsed as its flag's is."""
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in config:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        if key not in _CONFIG_FLAGS:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
        # a key's value parses as its flag's does
        parse = _CONFIG_FLAGS[key].keywords.get("type", str)
        try:
            config[key] = parse(value)
        except ValueError:
            raise ParseError(
                f"could not parse value {value!r} for key {key!r}", line=lineno
            ) from None
    return config


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
    of Python values is alive at once, however wide the file.  A column
    given as a list holds its cells already formatted so.
    """
    columns = [c if isinstance(c, list) else np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in columns), default=0)
    rows = max(1, min(_CSV_BLOCK, _CSV_CELLS // max(1, len(columns))))

    def blocks():
        for lo in range(0, n_rows, rows):
            cells = [c[lo : lo + rows] if isinstance(c, list) else map(repr, c[lo : lo + rows].tolist())
                     for c in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _write_csv(path, [header], blocks())


def _out_path(args, filename):
    out_dir = args.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out_dir!r}: {exc}") from exc
    return os.path.join(out_dir, filename)


def _resolved_seed(args):
    if args.seed is None:
        raise InputError(
            "this command draws random numbers: pass --seed (or set seed in the config)"
        )
    return args.seed


# -- model construction -----------------------------------------------------------


def _build_model(args):
    row = CATALOG[Variant(args.model)]
    if row.family == "market":
        return row.make(args.tau_R, variance=args.variance)
    return row.make(args.tau_r, theta=args.theta, tau_R=args.tau_R, variance=args.variance)


# -- subcommands --------------------------------------------------------------------


def cmd_fig1(args):
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
        _bind("laplace")
        return invert(observable_evaluator(model), h, n_points, tolerance=tolerance).values
    if model.variant is Variant.BOLTZMANN:  # the volterra route from here on
        _bind("lambert")
        return boltzmann_acf(model, h, n_points).values
    if model.variant is Variant.DIFFERENTIAL:
        _bind("lambert")
        return differential_acf(model, h, n_points).values
    _bind("volterra")
    return propagate_acf(memory_kernel(model, h, n_points), n_points).values


def cmd_acf(args):
    model = _build_model(args)
    CATALOG[model.variant].require(model, args.route)
    values = _acf_by_route(model, args.route, args.h, args.n_points, args.tolerance)
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
    model = None if args.model == "gbm" else _build_model(args)
    if model is not None:  # the stationary sampler, whose grid _simulate_size reads
        _bind("volterra")
    size = _simulate_size(args, model)
    try:
        return _run_simulate(args, model, seed)
    except MemoryError:
        raise InputError(f"out of memory: {size}") from None


def _run_simulate(args, model, seed):
    base = args.out

    if model is None:  # gbm
        params = MarketParams(
            mu=args.mu,
            sigma=args.sigma,
            variance_R=1.0,  # gbm prices never read the return variance
            M0=args.M0,
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
        times = returns.times
        if args.emit_prices:  # built first: it validates --mu and --M0 before any write
            prices = price_from_returns(returns, mu=args.mu, M0=args.M0)
            # the return grid is the price grid's first n points, bit for
            # bit, so both files take one formatting of the time cells
            times = list(map(repr, prices.times.tolist()))
        paths_file = _out_path(args, f"{base}_paths.csv")
        _write_paths_csv(paths_file, times[: returns.n_steps], returns.paths)
        print(f"wrote {paths_file} (return rates, {returns.n_paths} paths x {returns.n_steps} samples)")
        if args.emit_prices:
            prices_file = _out_path(args, f"{base}_prices.csv")
            _write_paths_csv(prices_file, times, prices.paths, prices=True)
            print(f"wrote {prices_file} (prices via exp integral, mu={args.mu!r}, M0={args.M0!r})")
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
    max_lag = _usable_lags(ensemble.n_steps, args.max_lag)
    acf, se = ensemble_acf(ensemble, max_lag)
    lags = acf.h * np.arange(max_lag + 1)
    _write_columns(summary_file, ["lag", "acf_mean", "acf_se"], lags, acf.values, se)
    print(f"wrote {summary_file} ({max_lag + 1} rows)")
    print(f"variance = {float(acf.variance)!r}")


# characters that keep a file off the split parse: csv.reader ends a row at
# a carriage return, and np.loadtxt strips the separators \x1c-\x1f from a
# cell as whitespace where float() refuses them
_SPLIT_REFUSED = "\r\x1c\x1d\x1e\x1f"


def _split_price_csv(text):
    """(t, prices) of a plain price CSV by numpy's C reader, or None.

    Plain is what csv.reader reads as one row per line: none of
    ``_SPLIT_REFUSED``, a known header, at least 3 samples, no blank line,
    and on every line as many cells as the header, each a float.
    np.loadtxt converts a cell with the parser float() uses, so the arrays
    are the csv.reader loop's bit for bit.  A cell float() takes but the
    reader refuses (``1_0``, a non-ASCII digit, a quote, a NUL), a blank
    line, which the reader would skip, and a ``#``, which ``comments=None``
    keeps a cell character, all reach the csv.reader loop, which parses
    everything else and words every error.
    """
    if any(char in text for char in _SPLIT_REFUSED):
        return None
    head, _, body = text.partition("\n")
    header = [cell.strip() for cell in head.split(",")]
    # loadtxt warns on a body without data; the csv.reader loop words it
    if header not in (["t", "price"], ["price"]) or not body or body.isspace():
        return None
    lines = body.count("\n") + (not body.endswith("\n"))
    try:
        cells = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if cells.shape != (lines, len(header)) or lines < 3:
        return None
    columns = cells.T.copy()
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
        return args.h
    if t is None:
        raise InputError("input has no 't' column: pass --h explicitly")
    steps = np.diff(t)
    if steps.size == 0 or not np.all(steps > 0):
        raise InputError("'t' column must be strictly increasing")
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * h:
        raise InputError("'t' column is not uniformly spaced: pass --h explicitly")
    return h


def _report_cell(value):
    """A FitReport field as ``estimate`` prints it: repr, but the class label and lower-case flags."""
    if isinstance(value, bool):
        return str(value).lower()
    return value.value if isinstance(value, StockClass) else repr(value)


def cmd_estimate(args):
    t, price_row = _read_price_csv(args.input)
    prices = PathEnsemble(h=_infer_h(args, t), paths=price_row[None, :], kind="price")
    report, _ = fit_prices(prices, args.max_lag, args.lag_window, args.detrend)
    cells = {field.name: _report_cell(getattr(report, field.name)) for field in fields(FitReport)}
    for key, value in cells.items():
        print(f"{key} = {value}")
    if not report.window_ok:
        print("note: lag window shorter than 3 fitted correlation times", file=sys.stderr)
    if report.degenerate:
        print("note: objective is flat near the optimum (non-identifiable fit)", file=sys.stderr)
    if args.out is not None:
        path = _out_path(args, args.out)
        _write_csv(path, [list(cells), list(cells.values())])
        print(f"wrote {path}")
    return 0


# decades of corr_time * p that the real audit grid spans
_AUDIT_DECADES = (-2.0, 2.0)


def _grid_residuals(model, grid):
    """Closure residuals of a p grid, one identity_residual call on the points the solver
    reaches, and the mask of the rest (nan): scaling chains deeper than the solver's bound."""
    ok = _solvable(model, grid)
    residuals = np.full(grid.size, np.nan)
    if ok.any():
        residuals[ok] = identity_residual(model, grid[ok])
    return residuals, ~ok


_AUDIT_HEADER = ["check", "p_real", "p_imag", "residual", "status"]


def _audit_rows(model, args, tolerance):
    """Audit table lines, their failure count and worst residual, built column by column.
    Each p grid is at most one array call: identity_residual on its solvable points, real
    and seeded complex, and for differential force_shape at u +/- du and observable_shape."""
    scale = 1.0 / model.corr_time
    p_real = scale * np.logspace(*_AUDIT_DECADES, args.n_real)
    grids = [p_real]
    if args.n_complex > 0:
        rng = np.random.default_rng(_resolved_seed(args))
        magnitude = scale * 10.0 ** rng.uniform(-2.0, 2.0, size=(args.n_complex, 2))
        signs = rng.choice([-1.0, 1.0], size=args.n_complex)
        grids.append(magnitude[:, 0] + 1j * (signs * magnitude[:, 1]))
    # per check: its name, points, residuals, no-converge mask and bound
    parts = [("closure", points, *_grid_residuals(model, points), tolerance) for points in grids]

    if model.variant is Variant.DIFFERENTIAL:
        # defining derivative identity dg/du = y(u) in normalized units,
        # checked by central differences; accuracy is limited by the step,
        # so these rows pass at max(tolerance, 10 * step^2)
        fd_tol = max(tolerance, 10.0 * args.fd_step * args.fd_step)
        u = model.tau_R * p_real
        du = args.fd_step * np.maximum(u, 1.0)
        gp = force_shape(model, (u + du) / model.tau_R)
        # at the largest allowed step u - du is 0 up to roundoff
        gm = force_shape(model, np.maximum(u - du, 0.0) / model.tau_R)
        residual = np.abs((gp - gm) / (2.0 * du) - observable_shape(model, p_real))
        parts.append(("derivative", p_real, residual, np.zeros(p_real.size, dtype=bool), fd_tol))
    names, points, residuals, failed, bounds = zip(*parts)
    p, residual, no_converge = map(np.concatenate, (points, residuals, failed))
    ok = np.concatenate([r <= bound for r, bound in zip(residuals, bounds)])  # nan fails
    status = np.where(no_converge, "no-converge", np.where(ok, "ok", "FAIL"))
    columns = ([name for name, grid in zip(names, points) for _ in range(grid.size)],
               *(map(repr, column.tolist()) for column in (p.real, p.imag, residual)),
               status.tolist())
    converged = residual[~np.isnan(residual)]
    worst = float(converged.max()) if converged.size else 0.0
    return list(map(",".join, zip(*columns))), int(np.count_nonzero(~ok)), worst


def cmd_audit(args):
    """Print (and optionally write) the audit table; exit 4 on a failed or no-converge row,
    or on a solver error, before writing.  Each grid costs at most one identity_residual call."""
    model = _build_model(args)
    lines, failures, worst = _audit_rows(model, args, args.tolerance)
    table = "\n".join(lines)
    print(",".join(_AUDIT_HEADER) + "\n" + table)
    if args.out is not None:
        path = _out_path(args, args.out)
        _write_csv(path, [_AUDIT_HEADER], [table + "\n"])
        print(f"wrote {path}")
    print(f"checked {len(lines)} points, worst residual = {worst!r}, "
          f"tolerance = {args.tolerance!r}, failures = {failures}")
    if failures:
        raise AccuracyError(f"{failures} audit rows exceed tolerance", achieved=worst)
    return 0


# -- the flag table ------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """A flag: its keywords, the check a given or config value must pass as
    ``check(value, name)``, its config key, and per command the keywords
    that differ there, with ``read``, the (wording, test) of when the
    command reads it if not always, and ``check`` if that differs.  The
    keywords go to argparse, all but ``default``, which the post-parse pass
    applies last, after the flag and the config."""

    name: str
    keywords: dict
    cells: dict
    check: object = lambda value, name: None
    config: str | None = None


def _at_least(minimum):
    return functools.partial(check_count, minimum=minimum)


def _check_fd_step(step, name):
    u_min = 10.0 ** _AUDIT_DECADES[0]
    if not 0 < step <= u_min:  # nan and inf fail it too
        raise InputError(
            f"{name} must be in (0, {u_min!r}]: derivative rows evaluate g at "
            f"u - du = u - fd_step * max(u, 1), which must stay >= 0 down to the "
            f"smallest grid point u = tau_R p = {u_min!r}"
        )


# each command's function, the modules of the deferred names every run of it
# calls (bound by main() before it runs; a route or model binds its own), its
# one-line help and description
_COMMANDS = {
    "fig1": (cmd_fig1, (), "emit the two market-ACF reference curves vs dimensionless lag",
             "CSV columns: lag_ratio (tau/tau_R), lambda1(2 tau/tau_R), lambda0(2 tau/tau_R);\n"
             "the first row is (0, 1, 1)."),
    "acf": (cmd_acf, (),
            "evaluate a model ACF by the closed, laplace, or volterra route",
            "Emits CSV columns (lag, acf).\n\n" + CAPABILITY_MATRIX),
    "simulate": (cmd_simulate, ("market",),
                 "synthesize a seeded path ensemble plus an ACF/variance summary",
                 "gbm draws geometric Brownian prices from --mu, --sigma and --M0; the\n"
                 "catalog models draw stationary return rates (simulate column below).\n"
                 + _LANE_LEGEND + "\n\n" + CAPABILITY_MATRIX),
    "estimate": (cmd_estimate, ("estimate",),
                 "fit (tau_r, theta) and the stock class to a price series CSV",
                 "Input CSV header must be 't,price' or 'price'.\n"
                 "The fitted report is printed as key = value lines."),
    "audit": (cmd_audit, (), "evaluate closure-identity residuals on a p grid and flag failures",
              "Rows: closure residual |y (tau p + g) - 1| on a real log grid, plus --n-complex random\n"
              "right-half-plane points; for differential, central-difference rows of dg/du = y.\n\n"
              + CAPABILITY_MATRIX),
}


def _family(args):
    """The catalog family of ``--model``: "market", "stock", or None for gbm."""
    return None if args.model == "gbm" else CATALOG[Variant(args.model)].family


# when a command reads a flag: (wording, test on the arguments taken so far);
# theta comes first in FLAGS, so of the stock pair a flag wins over the
# config, and within each source theta wins over tau_R
_STOCK = ("a stock-family --model", lambda args: _family(args) == "stock")
_THETA = ("a stock-family --model, without --tau-R",
          lambda args: _family(args) == "stock" and args.tau_R is None)
_TAU_R = ("a market-family --model, or a stock-family one without --theta",
          lambda args: _family(args) == "market" or (_family(args) == "stock" and args.theta is None))
_RETURNS = ("a return-rate --model, not gbm", lambda args: args.model != "gbm")
_PRICES = ("--model gbm or --emit-prices", lambda args: args.model == "gbm" or args.emit_prices)
_OUT = ("--out", lambda args: args.out is not None)  # nothing else is written

FLAGS = (
    Flag("--config", dict(help="flat key=value config file"), dict.fromkeys(_COMMANDS, {})),
    Flag("--out-dir", dict(default=".", help="output directory (default: config out_dir or '.')"),
         {"fig1": {}, "acf": {}, "simulate": {}, "estimate": dict(read=_OUT), "audit": dict(read=_OUT)},
         config="out_dir"),
    Flag("--input", dict(required=True, help="price CSV path"), {"estimate": {}}),
    Flag("--model", dict(required=True, choices=[v.value for v in Variant]), {"acf": {}, "audit": {},
         "simulate": dict(choices=["gbm"] + [v.value for v, r in CATALOG.items() if r.supports("simulate")])}),
    Flag("--theta", dict(type=float, default=1.0, help="memory ratio tau_R/tau_r (stock-family models)"),
         dict.fromkeys(("acf", "simulate", "audit"), dict(read=_THETA)), config="model.theta"),
    Flag("--tau-R", dict(type=float, default=1.0,
                         help="market memory time (market-family models, or stock via ratio)"),
         dict.fromkeys(("acf", "simulate", "audit"), dict(read=_TAU_R)), config="model.tau_R"),
    Flag("--tau-r", dict(type=float, default=1.0, help="stock correlation time (stock-family models)"),
         dict.fromkeys(("acf", "simulate", "audit"), dict(read=_STOCK)), config="model.tau_r"),
    # acf and audit accept --variance without reading it, because their ACFs
    # are normalized: the benchmark's curves workload passes it to both
    Flag("--variance", dict(type=float, default=1.0, help="equal-time second moment (default 1)"),
         {"acf": {}, "simulate": dict(read=_RETURNS), "audit": {}}, config="model.variance"),
    Flag("--route", dict(required=True, choices=ROUTES[:3]), {"acf": {}}),  # the ACF routes
    # gbm at --sigma 0 draws nothing, and keeps --seed as its printed master_seed lineage
    Flag("--seed", dict(type=int), {
        "simulate": dict(help="master seed (required)"),
        "audit": dict(read=("--n-complex above 0", lambda args: bool(args.n_complex)),
                      help="master seed of the --n-complex points (required with them only)"),
    }, check=lambda seed, _: check_seed(seed), config="seed"),
    # worded as the config key's check, so that the flag and the key refuse alike
    Flag("--tolerance", dict(type=float), {
        "acf": dict(read=("--route laplace", lambda args: args.route == "laplace"), default=1e-6,
                    help="laplace accuracy target (default 1e-6)"),
        "audit": dict(default=1e-10, help="closure residual bound (default 1e-10)"),
    }, check=lambda tolerance, _: check_positive(tolerance, "tolerance"), config="tolerance"),
    Flag("--mu", dict(type=float, default=0.0, help="drift rate (gbm / --emit-prices)"),
         {"simulate": dict(read=_PRICES)}, config="model.mu"),
    Flag("--sigma", dict(type=float, default=0.2, help="gbm volatility"),
         {"simulate": dict(read=("--model gbm", lambda args: args.model == "gbm"))}, config="model.sigma"),
    Flag("--M0", dict(type=float, default=1.0, help="initial price"),
         {"simulate": dict(read=_PRICES)}, config="model.M0"),
    Flag("--max-lag-ratio", dict(type=float, default=12.0), {"fig1": {}}, check=check_positive),
    Flag("--n-paths", dict(type=int, required=True), {"simulate": {}}, check=_at_least(1)),
    # the summary ACF needs at least 4 samples (lag 1 at n/4)
    Flag("--n-steps", dict(type=int, required=True), {"simulate": {}}, check=_at_least(4)),
    Flag("--h", dict(type=float), {
        "acf": dict(required=True, help="lag step"),
        "simulate": dict(required=True, help="time step"),
        "estimate": dict(help="sample spacing (default: inferred from the 't' column)"),
    }, check=check_positive),
    Flag("--n-points", dict(type=int), {"fig1": dict(default=481), "acf": dict(default=256)},
         check=_at_least(2)),
    Flag("--detrend", dict(choices=["sample-mean", "none"], default="sample-mean"), {"estimate": {}}),
    Flag("--max-lag", dict(type=int, default=400), {
        # a deterministic gbm run (sigma 0) writes no summary ACF
        "simulate": dict(read=("a return-rate --model, or gbm with --sigma other than 0",
                               lambda args: not (args.model == "gbm" and args.sigma == 0)),
                         help="summary ACF lag cap", check=_at_least(1)),
        # the fit needs 8 lags; a series too short for them is refused later
        "estimate": dict(help="ACF lag cap (also capped at n/4)", check=_at_least(8)),
    }),
    Flag("--lag-window", dict(type=float, help="fit window in time units (default: the full ACF range)"),
         {"estimate": {}}),
    Flag("--emit-prices", dict(action="store_true",
                               help="also write price paths integrated from the return rates"),
         {"simulate": dict(read=_RETURNS)}),
    Flag("--n-real", dict(type=int, default=100, help="log-spaced real-axis points"),
         {"audit": {}}, check=_at_least(2)),
    Flag("--n-complex", dict(type=int, default=0, help="random right-half-plane points (requires --seed)"),
         {"audit": {}}, check=_at_least(0)),
    Flag("--fd-step", dict(type=float, default=1e-4,
                           help="derivative-identity step, du = step * max(u, 1) at "
                           "u = tau_R p, in (0, 0.01] so u - du >= 0 on the grid (default 1e-4); "
                           "rows pass at max(tolerance, 10 step^2)"),
         {"audit": dict(read=("--model differential", lambda args: args.model == "differential"))},
         check=_check_fd_step),
    Flag("--out", {}, {
        "fig1": dict(default="fig1.csv"),
        "acf": dict(default="acf.csv"),
        "simulate": dict(default="simulate", help="output basename"),
        "estimate": dict(help="optional one-row CSV report"),
        "audit": dict(help="optional CSV copy of the table"),
    }),
)

_CONFIG_FLAGS = {flag.config: flag for flag in FLAGS if flag.config}

# per command, the (flag, cell, argparse dest) of each flag it takes, in table order
_CELLS = {command: [(flag, flag.cells[command], flag.name[2:].replace("-", "_"))
                    for flag in FLAGS if command in flag.cells] for command in _COMMANDS}


def _reads(cell, args):
    """Whether the command of ``cell`` reads its flag, given ``args``."""
    return "read" not in cell or cell["read"][1](args)


def _resolve_flags(args):
    """Give each flag of ``args.command`` its value: the flag if given, else
    its key's value in the ``--config`` file, else its default in FLAGS.
    An unset flag takes its config value, then its default, only where the
    command reads it, judged on the values taken before it; one not read is
    dropped.  A given flag is judged after the config pass, so a config
    value (``model.sigma = 0``) can leave it unread, which exits 2.  A given
    or config value passes the flag's check first, so a bad one exits 2
    before anything is written; a bad config value is reported first."""
    # parse_config splits at any line ending, so untranslated ones parse alike
    config = parse_config(_read_text(args.config, "config ")) if args.config else {}
    given, unset = [], []
    for flag, cell, dest in _CELLS[args.command]:
        value = getattr(args, dest)
        (unset if value is None or value is False else given).append((flag, cell, dest))
    for flag, cell, dest in unset:
        value = config.get(flag.config)
        if value is not None and _reads(cell, args):
            cell.get("check", flag.check)(value, flag.name)
            setattr(args, dest, value)
    for flag, cell, dest in given:
        if not _reads(cell, args):
            raise InputError(f"{args.command} reads {flag.name} only with {cell['read'][0]}")
        cell.get("check", flag.check)(getattr(args, dest), flag.name)
    for flag, cell, dest in unset:
        value = cell.get("default", flag.keywords.get("default"))
        if value is not None and getattr(args, dest) is None and _reads(cell, args):
            setattr(args, dest, value)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="glemarket",
        description="Numerical laboratory for memory-kernel market and stock return models.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=CAPABILITY_MATRIX,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, _, help, description) in _COMMANDS.items():
        p = sub.add_parser(command, help=help, description=description,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag, cell, _ in _CELLS[command]:
            keywords = {**flag.keywords, **cell}
            for key in ("read", "check", "default"):  # the post-parse pass applies these
                keywords.pop(key, None)
            p.add_argument(flag.name, **keywords)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing never changes it, and
    help text reads the terminal width when it is printed, not here."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    for module in _COMMANDS[args.command][1]:
        _bind(module)
    try:
        _resolve_flags(args)
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
