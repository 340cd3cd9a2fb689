"""Statistical inverse path: sample ACF estimation and memory-ratio fitting.

The forward theory maps (tau_r, theta) to an observable ACF; this module
goes the other way.  sample_acf/ensemble_acf estimate a normalized ACF from
return-rate series with the biased (divide-by-N) estimator, which keeps the
estimate positive semidefinite as a sequence.  ensemble_acf transforms the
paths in blocks of _ACF_BLOCK, one batched rfft/irfft per block, so its
transient memory does not grow with the path count; the FFT length is the
smallest 5-smooth L >= n + max_lag, the shortest at which the circular
correlation wraps no product into a lag <= max_lag.  fit_theta then
least-squares matches the estimate against the two-relaxation-time stock
family, scanning a coarse (tau_r, theta) grid and refining by coordinate
descent.  Each tau_r scan is one interpolation over every (tau_r, lag)
pair, and its values equal the scalar objective's bit for bit, so the
search takes the same path as a point-by-point scan.  The model curves are
the exact stock ACF (``closed_form_acf``: closed forms at theta = 0, 1, 2
and a Bessel-Neumann series elsewhere) on a unit-time grid, cached per
theta; a cold curve costs about a millisecond at theta = 1 and grows as
1/theta below it.  The cache is a read-mostly dict, safe under
concurrent fits because entries are write-once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InputError
# unused since model curves come from the series, but perfbench's tracer
# patches glemarket.estimate.invert_at and fails if the name is missing
from .laplace import invert_at  # noqa: F401
from .models import ModelSpec, StockClass, classify_theta, closed_form_acf
from .series import AcfSeries, PathEnsemble
from .volterra import _five_smooth

# unit-tau_r lag grid for cached model curves; fits are restricted to
# lag/tau_r <= _U_MAX so interpolation never extrapolates
_U_MAX = 50.0
_U_POINTS = 2001
_THETA_KEY_DECIMALS = 6
# all fitted thetas live on this lattice so the curve cache is shared
# across fits
_THETA_STEP = 0.0125
# paths per batched FFT in ensemble_acf: its transient memory is
# O(_ACF_BLOCK * L) whatever the path count
_ACF_BLOCK = 128

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
    if not (np.isfinite(h) and h > 0.0):
        raise InputError("h must be positive and finite")
    return ensemble_acf(PathEnsemble(h=h, paths=x[None, :]), max_lag)[0]


def ensemble_acf(ensemble, max_lag):
    """Ensemble-mean ACF with standard errors.

    Averages the per-path biased autocovariance, normalizes by the mean
    lag-0 value, and returns (AcfSeries, se) where se holds the standard
    error of each normalized mean lag.
    """
    if not isinstance(ensemble, PathEnsemble):
        raise InputError("ensemble must be a PathEnsemble")
    max_lag = int(max_lag)
    if max_lag < 1:
        raise InputError("max_lag must be >= 1")
    if ensemble.n_steps < 4 * max_lag:
        raise InputError(
            f"paths of length {ensemble.n_steps} are too short for "
            f"max_lag={max_lag} (need >= 4*max_lag samples)"
        )
    # a circular correlation of length L >= n + max_lag wraps no product
    # into lags <= max_lag
    n = ensemble.n_steps
    size = _five_smooth(n + max_lag)
    rows = np.empty((ensemble.n_paths, max_lag + 1))
    for lo in range(0, ensemble.n_paths, _ACF_BLOCK):
        spec = np.fft.rfft(ensemble.paths[lo : lo + _ACF_BLOCK], size, axis=1)
        acov = np.fft.irfft(spec * np.conj(spec), size, axis=1)
        rows[lo : lo + _ACF_BLOCK] = acov[:, : max_lag + 1] / n
    mean = rows.mean(axis=0)
    if mean[0] <= 0.0:
        raise DegenerateSeriesError("ensemble has zero variance")
    if ensemble.n_paths > 1:
        se = rows.std(axis=0, ddof=1) / np.sqrt(ensemble.n_paths)
    else:
        se = np.zeros(max_lag + 1)
    acf = AcfSeries(h=ensemble.h, values=mean / mean[0], variance=mean[0])
    return acf, se / mean[0]


def model_curve(theta):
    """Normalized stock ACF on the unit-tau_r lag grid, cached per theta."""
    key = round(float(theta), _THETA_KEY_DECIMALS)
    hit = _model_curve_cache.get(key)
    if hit is not None:
        return hit
    grid = np.linspace(0.0, _U_MAX, _U_POINTS)
    entry = (grid, closed_form_acf(ModelSpec.stock_theta(tau_r=1.0, theta=key), grid))
    _model_curve_cache[key] = entry
    return entry


def _objective(lags, data, tau_r, model):
    """Mean squared misfit at tau_r of ``model``, a ``model_curve`` entry."""
    u = lags / tau_r
    if u[-1] > _U_MAX:
        return np.inf
    diff = data - np.interp(u, *model)
    return float(diff @ diff) / lags.size


def _scan_tau(lags, data, taus, model):
    """_objective at each of ``taus``, bit for bit, from one interpolation."""
    u = lags / taus[:, None]
    vals = np.full(taus.size, np.inf)
    ok = u[:, -1] <= _U_MAX
    diffs = data - np.interp(u[ok], *model)
    vals[ok] = [float(r @ r) / lags.size for r in diffs]
    return vals


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


def _profile_tau(lags, data, theta, tau_hint, span=0.15, points=13):
    """min over tau_r at fixed theta: a scan of ``points`` log-spaced values
    within ``span`` decades of ``tau_hint``, then golden polish.

    The tau_r slice can be multimodal for oscillatory ACFs, so the golden
    section is only trusted inside the bracket found by the scan.
    """
    model = model_curve(theta)
    taus = tau_hint * np.logspace(-span, span, points)
    j = int(np.argmin(_scan_tau(lags, data, taus, model)))
    ratio = taus[1] / taus[0]
    return _refine_tau(lags, data, model, taus[j] / ratio, taus[j] * ratio)


def _refine_profiled(lags, data, theta, tau, f):
    """Lattice descent in theta on the tau_r-profiled objective.

    The objective valley is diagonal and narrow in (theta, tau_r); stepping
    theta is only meaningful after re-minimizing tau_r, so each candidate
    theta gets a full profiled evaluation.  The lower neighbor is tried
    first, breaking ties toward smaller theta.
    """
    for step in (0.1, 0.05, 0.025, _THETA_STEP):
        improved = True
        while improved:
            improved = False
            for cand in (theta - step, theta + step):
                cand = max(cand, 0.0)
                if cand == theta:
                    continue
                tau_c, f_c = _profile_tau(lags, data, cand, tau)
                if f_c < f:
                    theta, tau, f = cand, tau_c, f_c
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
    """
    if not isinstance(acf, AcfSeries):
        raise InputError("acf must be an AcfSeries")
    if not (np.isfinite(lag_window) and lag_window > 0.0):
        raise InputError("lag_window must be positive and finite")
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
    best = (np.inf, 0.0, tau_scale)
    for theta in np.arange(0.0, 4.0 + 1e-9, 0.2):
        tau_j, f_j = _profile_tau(lags, data, theta, tau_scale, span=1.2, points=97)
        if f_j < best[0]:
            best = (f_j, theta, tau_j)
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
        variance=acf.variance,
        residual=float(np.sqrt(f_best)),
        stock_class=classify_theta(theta_best),
        lags_used=n_fit + 1,
        degenerate=degenerate,
        window_ok=bool(lags[-1] >= 3.0 * tau_best),
    )
