"""Statistical inverse path: sample ACF estimation and memory-ratio fitting.

The forward theory maps (tau_r, theta) to an observable ACF; this module
goes the other way.  sample_acf estimates a normalized ACF from one
return-rate series as the one-path ``ensemble_acf``; that estimator moved
to ``series``, so that ``simulate``'s summary reads it without loading the
fitter, and is re-exported here under its old name.  fit_theta then
least-squares matches the estimate against the two-relaxation-time stock
family, scanning a coarse (tau_r, theta) grid and refining by coordinate
descent.  The coarse thetas share one tau_r grid and the curves one unit
grid, so the whole coarse scan takes one interpolation index; every scan
value equals the scalar objective's bit for bit, so the search takes the
same path as a point-by-point scan.  A golden-section polish of a scan's
bracket can only return values above the bracket's floor (the misfit to
the range of curve nodes each lag can read there), so a polish whose
floor already loses is skipped; the fit is the one the unpruned search
finds, field for field.  The model curves are
the exact stock ACF (``closed_form_acf``: closed forms at theta = 0, 1, 2
and a Bessel-Neumann series elsewhere) on a unit-time grid, cached per
theta; a cold series curve, one Miller recurrence, costs about 0.65 ms at
theta = 1.5 and grows as 1/theta below it, to about 2 ms at theta = 0.2.
A cached curve carries the tables the scans and the bracket floors read
(np.interp's cell slopes, the curve padded by its last value), built once
with it; the unit grid, the coarse thetas and the relative tau_r spans of
the scans are module constants.  The cache is a read-mostly dict, safe
under concurrent fits because entries are write-once.

fit_prices, the call behind ``glemarket estimate``, runs the recipe on one
price path: detrended log returns (refused when only roundoff is left),
their sample ACF to min(n // 4, max_lag) lags, at least 8, and fit_theta
over lag_window, max_lag * h by default.
"""

import inspect
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InputError, check_count, check_positive
from .market import returns_from_prices
from .models import ModelSpec, StockClass, classify_theta, closed_form_acf
# ensemble_acf and _usable_lags live in series; sample_acf and fit_prices call
# them by these names, and perfbench's tracer patches ensemble_acf here
from .series import AcfSeries, PathEnsemble, _usable_lags, check_ensemble, ensemble_acf


def __getattr__(name):
    """``invert_at``, imported from laplace when first read (PEP 562).

    Nothing here calls it since the model curves come from the series, but
    perfbench's tracer patches glemarket.estimate.invert_at and fails if the
    name is missing; read only then, it leaves laplace out of a fit.  The
    tracer wraps laplace.invert_at first, so a wrapper found there is looked
    through (``__wrapped__``) to laplace's own function, the one an import
    at load time bound: uninstalling the tracer then leaves no wrapper here.
    """
    if name == "invert_at":
        from .laplace import invert_at

        return inspect.unwrap(invert_at)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# unit-tau_r lag grid for cached model curves; fits are restricted to
# lag/tau_r <= _U_MAX so interpolation never extrapolates
_U_MAX = 50.0
_U_POINTS = 2001
_THETA_KEY_DECIMALS = 6
# all fitted thetas live on this lattice so the curve cache is shared
# across fits
_THETA_STEP = 0.0125
# a polish is skipped when its bracket floor exceeds the value to beat by
# this relative margin, which keeps the skip exact under summation roundoff
_PRUNE_SLACK = 1e-9
# interpolated values overshoot their nodes by at most a few ulps of a
# curve bounded by 1 in magnitude
_NODE_ROUNDING = 4.0 * np.finfo(float).eps
# the unit grid every model curve shares, its cell widths, the coarse
# thetas, and the relative tau_r spans of the coarse scan and of the
# descent's profiled scans
_GRID = np.linspace(0.0, _U_MAX, _U_POINTS)
_GRID.flags.writeable = False
_GRID_STEP = np.diff(_GRID)
_COARSE_THETAS = np.arange(0.0, 4.0 + 1e-9, 0.2)
_COARSE_SPAN = np.logspace(-1.2, 1.2, 97)
_PROFILE_SPAN = np.logspace(-0.15, 0.15, 13)

_model_curve_cache = {}


@dataclass(frozen=True)
class FitReport:
    """Fitted stock parameters and diagnostics."""

    tau_r: float
    theta: float
    variance: float
    residual: float
    stock_class: StockClass
    lags_used: int
    degenerate: bool = False
    window_ok: bool = True


def _as_clean_series(series):
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise InputError("series must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise InputError("series contains non-finite values")
    return x


def sample_acf(series, max_lag, h=1.0):
    """Normalized biased-estimator ACF of one zero-centered series: the
    one-path ``ensemble_acf``."""
    x = _as_clean_series(series)
    check_positive(h, "h")
    return ensemble_acf(PathEnsemble(h=h, paths=x[None, :]), max_lag)[0]


class _ModelCurve(tuple):
    """A cached model curve: unpacks as (grid, values) and carries the
    tables the scans and bracket floors read, built once with the curve.

    ``slope`` is np.interp's cell slope with a zero appended for u on the
    last node; ``padded`` repeats the last value so that a reduceat bound
    may equal the grid size.
    """

    def __new__(cls, grid, values):
        curve = super().__new__(cls, (grid, values))
        curve.slope = np.append(np.diff(values) / _GRID_STEP, 0.0)
        curve.padded = np.append(values, values[-1])
        return curve


def model_curve(theta):
    """Normalized stock ACF on the unit-tau_r lag grid, cached per theta."""
    key = round(float(theta), _THETA_KEY_DECIMALS)
    hit = _model_curve_cache.get(key)
    if hit is not None:
        return hit
    entry = _ModelCurve(_GRID, closed_form_acf(ModelSpec.stock_theta(tau_r=1.0, theta=key), _GRID))
    _model_curve_cache[key] = entry
    return entry


def _objective(lags, data, tau_r, model):
    """Mean squared misfit at tau_r of ``model``, a ``model_curve`` entry."""
    u = lags / tau_r
    if u[-1] > _U_MAX:
        return np.inf
    grid, curve = model
    diff = data - np.interp(u, grid, curve)
    return float(diff @ diff) / lags.size


def _scan_models(lags, data, taus, models):
    """_objective of each of ``models`` at each of ``taus``, bit for bit.

    One row per model.  The models share the unit grid, so one
    interpolation index serves every row; each row is then np.interp's own
    formula, slope[j] * (u - g[j]) + c[j], with the curve's zero slope past
    the last node for its u == g[-1] branch.
    """
    u = lags / taus[:, None]
    ok = u[:, -1] <= _U_MAX
    u = u[ok]
    j = np.searchsorted(_GRID, u, side="right") - 1
    du = u - _GRID[j]
    diffs = np.empty((len(models),) + u.shape)
    for diff, model in zip(diffs, models):
        _, curve = model
        np.subtract(data, model.slope[j] * du + curve[j], out=diff)
    # a stack of 1 x n @ n x 1 products is the dot that ``r @ r`` takes
    vals = np.full((len(models), taus.size), np.inf)
    vals[:, ok] = np.matmul(diffs[..., None, :], diffs[..., :, None])[..., 0, 0] / lags.size
    return vals


def _scan_tau(lags, data, taus, model):
    """_objective at each of ``taus``, bit for bit, from one interpolation."""
    return _scan_models(lags, data, taus, [model])[0]


def _bracket_floor(lags, data, model, lo, hi):
    """A lower bound on every value ``_refine_tau(lo, hi)`` can return.

    At tau_r in [lo, hi] lag l reads the curve at u in [l / hi, l / lo],
    cut at _U_MAX because a larger u makes the objective inf, and an
    interpolated value lies between the nodes of the cells that range
    covers.  The cells are located to within one by u times the nodes per
    unit u, one node more on each side absorbs the rounding of
    exp(log lo), exp(log hi) and l / tau_r, and _NODE_ROUNDING the
    interpolation's own.  The floor is the misfit to each lag's node range.
    """
    per_u = (_U_POINTS - 1) / _U_MAX
    first = (np.minimum(lags / hi, _U_MAX) * per_u).astype(np.intp) - 2
    stop = (np.minimum(lags / lo, _U_MAX) * per_u).astype(np.intp) + 4
    # reduceat over [first, stop) for each lag; the pad keeps stop a valid index
    bounds = np.empty(2 * lags.size, dtype=np.intp)
    bounds[0::2] = np.maximum(first, 0)
    bounds[1::2] = np.minimum(stop, _U_POINTS)
    low = np.minimum.reduceat(model.padded, bounds)[0::2] - _NODE_ROUNDING
    high = np.maximum.reduceat(model.padded, bounds)[0::2] + _NODE_ROUNDING
    gap = np.maximum(low - data, 0.0) + np.maximum(data - high, 0.0)
    return float(gap @ gap) / lags.size


def _refine_tau(lags, data, model, lo, hi, iters=40):
    """Golden-section minimum of the tau_r slice on a log interval."""
    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    a, b = np.log(lo), np.log(hi)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = _objective(lags, data, np.exp(c), model)
    fd = _objective(lags, data, np.exp(d), model)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _objective(lags, data, np.exp(c), model)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _objective(lags, data, np.exp(d), model)
    mid = np.exp(0.5 * (a + b))
    return mid, _objective(lags, data, mid, model)


def _polish(lags, data, model, taus, scan, f_ref):
    """Golden polish around the minimum of a tau_r ``scan`` over ``taus``.

    The tau_r slice can be multimodal for oscillatory ACFs, so the golden
    section is only trusted inside the bracket found by the scan.  Returns
    (tau_r, value), or None when the bracket's floor shows that the polish
    cannot reach f_ref.
    """
    j = int(np.argmin(scan))
    ratio = taus[1] / taus[0]
    lo, hi = taus[j] / ratio, taus[j] * ratio
    if f_ref < np.inf and _bracket_floor(lags, data, model, lo, hi) > f_ref * (1.0 + _PRUNE_SLACK):
        return None
    return _refine_tau(lags, data, model, lo, hi)


def _refine_profiled(lags, data, theta, tau, f):
    """Lattice descent in theta on the tau_r-profiled objective.

    The objective valley is diagonal and narrow in (theta, tau_r); stepping
    theta is only meaningful after re-minimizing tau_r, so each candidate
    theta gets a profiled evaluation: a scan of 13 log-spaced tau_r within
    0.15 decades of the current one, then the golden polish unless the
    bracket's floor already exceeds f.  The lower neighbor is tried first,
    breaking ties toward smaller theta.
    """
    for step in (0.1, 0.05, 0.025, _THETA_STEP):
        improved = True
        while improved:
            improved = False
            for cand in (theta - step, theta + step):
                cand = max(cand, 0.0)
                if cand == theta:
                    continue
                model = model_curve(cand)
                taus = tau * _PROFILE_SPAN
                polished = _polish(lags, data, model, taus, _scan_tau(lags, data, taus, model), f)
                if polished is not None and polished[1] < f:
                    theta, (tau, f) = cand, polished
                    improved = True
                    break
    return theta, tau, f


def fit_theta(acf, lag_window):
    """Fit (tau_r, theta) to a normalized ACF over lags <= lag_window.

    Unweighted least squares; coarse scan over theta with the tau_r
    direction profiled out (dense log grid + golden section), then lattice
    descent in theta on the profiled objective, ties broken toward smaller
    theta.  A flat objective (relative curvature below 1e-6 along theta) is
    reported via the degenerate flag rather than raised.

    The coarse thetas are polished in order of their scan minimum, and a
    theta is skipped when its bracket floor exceeds the best polished value
    by more than _PRUNE_SLACK; a descent candidate is skipped when its floor
    exceeds the current value so.  The floor bounds every value the polish
    can return, so a skipped theta could neither win nor tie, and the
    winner is still the smallest theta of least value: the report is the
    unpruned search's, bit for bit.
    """
    if not isinstance(acf, AcfSeries):
        raise InputError("acf must be an AcfSeries")
    check_positive(lag_window, "lag_window")
    n_fit = min(int(np.floor(lag_window / acf.h)), len(acf) - 1)
    if n_fit < 8:
        raise InputError("lag_window must cover at least 8 ACF samples")
    lags = acf.h * np.arange(n_fit + 1)
    data = acf.values[: n_fit + 1]

    # initial correlation-time scale: integrate the ACF up to its first
    # nonpositive sample (crude but only needs to land within the bracket)
    positive = np.nonzero(data <= 0.0)[0]
    head = data[: positive[0]] if positive.size else data
    tau_scale = acf.h * (head.sum() - 0.5)
    tau_scale = min(max(tau_scale, lags[-1] / _U_MAX, acf.h), lags[-1])

    # profile the objective over tau_r separately for every coarse theta:
    # oscillatory ACFs make the tau_r slice multimodal (phase aliasing), so
    # the scan must be dense before the smooth profiled minimum is trusted
    models = [model_curve(theta) for theta in _COARSE_THETAS]
    taus = tau_scale * _COARSE_SPAN
    scans = _scan_models(lags, data, taus, models)
    # the best scans first, so that the value to beat falls early and most
    # floors lose to it; the winner is then picked in ascending theta
    polished = {}
    f_ref = np.inf
    for i in np.argsort(scans.min(axis=1), kind="stable"):
        out = _polish(lags, data, models[i], taus, scans[i], f_ref)
        if out is not None:
            polished[i] = out
            f_ref = min(f_ref, out[1])
    best = (np.inf, 0.0, tau_scale)
    for i in sorted(polished):
        tau_j, f_j = polished[i]
        if f_j < best[0]:
            best = (f_j, _COARSE_THETAS[i], tau_j)
    f_best, theta_best, tau_best = best

    theta_best, tau_best, f_best = _refine_profiled(
        lags, data, theta_best, tau_best, f_best
    )

    # flat-objective diagnostic along theta
    probe = 0.1
    f_plus = _objective(lags, data, tau_best, model_curve(theta_best + probe))
    f_minus = _objective(lags, data, tau_best, model_curve(max(theta_best - probe, 0.0)))
    curvature = abs(f_plus + f_minus - 2.0 * f_best)
    # the floor keeps curve-cache roundoff (~1e-16 per sample, ~1e-32 in the
    # MSE) from masking a genuinely flat objective when f_best is exactly 0
    floor = 1e-18 * float(np.mean(data * data))
    degenerate = bool(curvature < 1e-6 * max(f_best, floor))

    return FitReport(
        tau_r=float(tau_best),
        theta=float(theta_best),
        variance=float(acf.variance),
        residual=float(np.sqrt(f_best)),
        stock_class=classify_theta(theta_best),
        lags_used=n_fit + 1,
        degenerate=degenerate,
        window_ok=bool(lags[-1] >= 3.0 * tau_best),
    )


def fit_prices(prices, max_lag=400, lag_window=None, detrend="sample-mean"):
    """(FitReport, AcfSeries): the fit to the return ACF of one price path,
    and that ACF.

    ``prices`` is a one-path PathEnsemble of kind "price".  Its log returns
    are detrended by their sample mean ("sample-mean") or not at all
    ("none"), their sample ACF is taken to min(n // 4, max_lag) lags, and
    fit_theta fits it over ``lag_window`` time units (default max_lag * h).
    """
    check_ensemble(prices, "prices", "price")
    if prices.n_paths != 1:
        raise InputError(f"prices must hold one path, got {prices.n_paths}")
    if detrend not in ("sample-mean", "none"):
        raise InputError(f"detrend must be 'sample-mean' or 'none', got {detrend!r}")
    max_lag = check_count(max_lag, "max_lag", 1)
    series = returns_from_prices(prices, mu=None if detrend == "sample-mean" else 0.0).paths[0]
    # a deterministic price series leaves only log/exp roundoff after
    # detrending; refuse to fit that noise rather than report a bogus model
    raw_scale = float(np.sqrt(np.mean(np.square(np.diff(np.log(prices.paths[0])) / prices.h))))
    if float(np.sqrt(np.mean(series * series))) <= 1e-12 * raw_scale:
        raise DegenerateSeriesError("series has zero variance after detrending")
    max_lag = _usable_lags(series.size, max_lag)
    if max_lag < 8:
        raise InputError("series too short: fewer than 8 usable ACF lags")
    acf = sample_acf(series, max_lag, h=prices.h)
    if lag_window is None:
        lag_window = max_lag * prices.h
    return fit_theta(acf, lag_window), acf
