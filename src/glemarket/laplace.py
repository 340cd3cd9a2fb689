"""Numerical inversion of Laplace-domain ACF images, and spectral densities.

The inverter is the Euler-accelerated Fourier-series (Bromwich) method: for
each time t the image is sampled along the vertical line Re p = A/(2t),

    f(t) ~ (e^(A/2)/t) [ Re f(A/2t)/2 + sum_k (-1)^k Re f((A + 2 i pi k)/(2t)) ],

with binomial (Euler) averaging of the tail partial sums.  A = 23 puts the
series-truncation bias near 1e-10, which is also the double-precision noise
floor of the e^(A/2) prefactor; the pre-averaging term count adapts to the
image's frequency scale so oscillatory ACFs (light/ultra-light stocks) stay
resolved out to the requested horizon.

The times are inverted in ascending order, in blocks of at most BLOCK_POINTS
image points, and each block sums the term count its own largest time
needs.  Early lags thus stop paying for the horizon: a uniform lag grid
costs about n_times * n(t_max) / 2 image evaluations, half of one shared
count, and memory stays O(BLOCK_POINTS) however many times are asked for.

Only models whose shapes extend off the real axis can be inverted here;
the Lambert-type and functional-equation models are real-axis only and get
their ACFs from the time-domain evolution routines in ``volterra``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, CapabilityError, InputError
from .models import ShapeEvaluator
from .series import AcfSeries, SpectralDensity

EULER_A = 23.0
AVG_TERMS = 12
BASE_TERMS = 15
# image points one inversion block may hold: memory stays O(BLOCK_POINTS)
# whatever the number of times or the horizon
BLOCK_POINTS = 2**15
# image points one call may evaluate in all; the count is known before any
# evaluation, and above this bound the call refuses instead of running for
# many seconds (stock theta -> 0 needs ~1/theta points per time)
INVERSION_POINT_BOUND = 5e7
# binomial (Euler) weights averaging the last AVG_TERMS + 1 partial sums
_EULER_WEIGHTS = (np.array([math.comb(AVG_TERMS, i) for i in range(AVG_TERMS + 1)])
                  / 2.0**AVG_TERMS)
# spot check of f(conj p) = conj f(p); violations mean the image cannot be
# the transform of a real function and the cosine-series inversion is invalid
CONJUGATE_SYMMETRY_TOL = 1e-8


def _require_invertible(evaluator):
    if not isinstance(evaluator, ShapeEvaluator):
        raise InputError("evaluator must be a ShapeEvaluator")
    if not evaluator.complex_capable:
        raise CapabilityError(
            f"{evaluator.model.variant.value} images are defined on the real axis "
            "only; compute this ACF with the volterra evolution routines instead"
        )
    if evaluator.transform_scale is None:
        raise CapabilityError(
            f"the {evaluator.kind} ACF of {evaluator.model.variant.value} is not an "
            "ordinary function of time; there is nothing to invert"
        )


def _conjugate_residual(evaluator, p0):
    up = evaluator(p0)
    down = evaluator(np.conj(p0))
    return abs(down - np.conj(up)) / max(abs(up), 1e-300)


def _block_stops(width):
    """End indices of consecutive blocks over times sorted ascending, whose
    rows need ``width`` image points each: a block takes as many times as
    fit in BLOCK_POINTS at the width of its last (largest) time, and never
    fewer than one."""
    stops = []
    start = 0
    while start < width.size:
        # width is nondecreasing, so no block starting here fits more rows
        reach = min(width.size - start, max(1, BLOCK_POINTS // int(width[start])))
        load = np.arange(1, reach + 1) * width[start : start + reach]
        start += max(1, int(np.searchsorted(load, BLOCK_POINTS, side="right")))
        stops.append(start)
    return stops


def invert_at(evaluator, times, tolerance=1e-6):
    """Invert the normalized ACF image at strictly positive times.

    The times are inverted in ascending order, block by block, and returned
    in the caller's order.  Each block holds at most BLOCK_POINTS image
    points (a time that alone needs more gets a block of its own) and sums
    BASE_TERMS + ceil(1.8 freq_scale t_max / pi) terms before averaging,
    with t_max the block's largest time.  A uniform lag grid thus costs
    about n_times * n(t_max) / 2 image points and O(BLOCK_POINTS) memory.

    Returns the normalized ACF values; raises AccuracyError carrying the
    worst internal error estimate, over all blocks, if it exceeds
    ``tolerance``, and InputError, before any evaluation, if the blocks
    would hold more than INVERSION_POINT_BOUND image points in all.
    """
    _require_invertible(evaluator)
    t = np.asarray(times, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if t.size == 0 or np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("times must be finite and > 0")
    if not (0 < tolerance):
        raise InputError("tolerance must be positive")

    order = np.argsort(t, kind="stable")
    ts = t[order]
    # pre-averaging term count of each time; a block sums the count of its last
    n_pre = BASE_TERMS + np.ceil(1.8 * evaluator.freq_scale * ts / math.pi).astype(np.int64)
    width = n_pre + AVG_TERMS + 2
    stops = np.array(_block_stops(width))
    points = float(np.diff(stops, prepend=0) @ width[stops - 1])
    if points > INVERSION_POINT_BOUND:
        raise InputError(
            f"Laplace inversion too costly: {t.size} times up to t = {ts[-1]:.6g} need "
            f"{points:.3g} image points (bound {INVERSION_POINT_BOUND:.3g}); "
            "for stock models --route closed is exact"
        )

    sym = _conjugate_residual(evaluator, (1.0 + 2.0j) / evaluator.corr_time)
    if sym > CONJUGATE_SYMMETRY_TOL:
        raise AccuracyError(
            "image violates conjugate symmetry; not a real ACF transform",
            achieved=sym,
        )

    scale = evaluator.transform_scale
    values = np.empty(t.size)
    achieved = 0.0
    start = 0
    for stop in stops:
        tb = ts[start:stop]
        n0 = int(n_pre[stop - 1])
        k = np.arange(n0 + AVG_TERMS + 2)
        p = (0.5 * EULER_A + 1j * math.pi * k[None, :]) / tb[:, None]
        terms = scale * np.real(np.asarray(evaluator(p.ravel())).reshape(p.shape))
        terms[:, 1::2] *= -1.0
        terms[:, 0] *= 0.5
        partial = np.cumsum(terms, axis=1)
        prefactor = math.exp(0.5 * EULER_A) / tb
        vals = (partial[:, n0 : n0 + AVG_TERMS + 1] @ _EULER_WEIGHTS) * prefactor
        shifted = (partial[:, n0 + 1 : n0 + AVG_TERMS + 2] @ _EULER_WEIGHTS) * prefactor
        achieved = max(achieved, float(np.max(np.abs(vals - shifted))))
        values[order[start:stop]] = vals
        start = stop
    if achieved > tolerance:
        raise AccuracyError(
            "inversion error estimate above requested tolerance", achieved=achieved
        )
    return float(values[0]) if scalar else values


def invert(evaluator, h, n_lags, tolerance=1e-6):
    """Invert an ACF image onto the uniform lag grid 0, h, ..., (n_lags-1) h.

    The lag-0 value is pinned to 1 by normalization after an initial-value
    cross-check of the image's large-p behavior; the rest comes from the
    Euler-accelerated series.  Returns a normalized AcfSeries whose variance
    is the dimensionful equal-time value of the requested ACF.
    """
    _require_invertible(evaluator)
    if not (h > 0 and np.isfinite(h)):
        raise InputError("h must be positive and finite")
    if not (isinstance(n_lags, (int, np.integer)) and n_lags >= 2):
        raise InputError("n_lags must be an integer >= 2")
    # initial-value theorem: p * image(p) -> c(0) = 1 as real p -> inf
    p_big = 1e7 / evaluator.corr_time
    c0 = p_big * evaluator.transform_scale * float(evaluator(p_big))
    if abs(c0 - 1.0) > 1e-3:
        raise AccuracyError(
            "image fails the initial-value check for a normalized ACF",
            achieved=abs(c0 - 1.0),
        )
    lags = h * np.arange(1, n_lags)
    values = np.concatenate(([1.0], invert_at(evaluator, lags, tolerance)))
    return AcfSeries(h=h, values=values, variance=evaluator.peak_variance)


def spectral_density(evaluator, omega):
    """One-sided spectral density S(w) = 2 * image(0) * Re shape(i w).

    Normalized so the equal-time variance is (1/pi) * integral of S over
    [0, inf).  Tiny negative excursions (below 1e-8 of the peak) are
    clamped to zero; anything larger raises AccuracyError since the shape
    should be positive-real on the imaginary axis.
    """
    _require_invertible(evaluator)
    w = np.asarray(omega, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise InputError("omega must be a 1-d array with at least 2 points")
    if np.any(w < 0) or np.any(np.diff(w) <= 0):
        raise InputError("omega must be nonnegative and strictly increasing")
    vals = 2.0 * evaluator.image_zero * np.real(evaluator(1j * w))
    # ultra-light stocks (theta > 2) carry an undamped spectral line outside
    # the force band, a delta the sampled continuous part cannot hold; a grid
    # point landing exactly on it evaluates 0/0, whose continuous limit is 0
    vals = np.where(np.isfinite(vals), vals, 0.0)
    peak = float(np.max(np.abs(vals))) if vals.size else 0.0
    floor = -1e-8 * peak
    if np.any(vals < floor):
        raise AccuracyError(
            "spectral density came out negative beyond roundoff",
            achieved=float(-np.min(vals)),
        )
    return SpectralDensity(omega=w, values=np.maximum(vals, 0.0))
