"""Numerical inversion of Laplace-domain ACF images, and spectral densities.

The inverter sums the Fourier series of the Bromwich integral (Dubner &
Abate 1968; Crump 1976) on contours that whole octaves of times share, and
takes the series' limit by Wynn's epsilon algorithm (Wynn 1956), as de Hoog,
Knight & Stokes (1982) do.  The times are grouped in octaves
t in (t_J/2, t_J], t_J = J t_min for J = 1, 2, 4, ..., so the groups go down
to single times; one contour cannot serve them all, because early times
would then sit far below its half-period.  An octave's contour has
half-period T = 2 t_J and abscissa sigma = A/T, and it samples the image F
at p_k = sigma + i pi k/T for k = 0 .. K + M:

    f(t) ~ (e^(sigma t)/T) Re sum_k a_k e^(i pi k t/T),  a_0 = F(sigma)/2, a_k = F(p_k).

The series aliases f(t + 2nT) with weight e^(-2n sigma T) = e^(-2nA), which
A = 23 makes negligible; the factor e^(sigma t) <= e^(A/2) ~ 1e5 amplifies
rounding, and sets the ~1e-10 floor measured against the closed forms.
K = MIN_TERMS + ceil(freq_scale T/pi) resolves the image out to its
frequency scale, so the image-point count grows only linearly in
freq_scale t_max.  Wynn's epsilon runs on the complex partial sums
S_K .. S_(K+M), M = EPSILON_TERMS, and the real part is taken last: on real
parts alone it stalls at 1e-5 to 1e-7.  The achieved error estimate is the
distance between the last two even epsilon columns, times e^(sigma t)/T.

On a uniform grid t_j = j h an octave has N = 2T/h = 4J, and e^(i pi k t/T)
is the N-th root of unity to the power k j, so its partial sums S_K are one
inverse FFT of the coefficients folded mod N: a grid of n lags costs
O(n log n) operations and O(freq_scale t_max + (MIN_TERMS + M) log n) image
points.  At arbitrary times each octave sums its series directly, which
costs the octave's times x its image points.

Only models whose shapes extend off the real axis can be inverted here, as
the catalog's laplace notes say (``CatalogRow.require`` refuses the rest).
That includes the Lambert-type models, whose log-form Lambert roots take
complex arguments (``specfun._log_root``); the marches in ``volterra`` fill
their startup windows from this inverter.  The functional-equation models
(scaling, fractional) are solved on the real axis only, where ``audit``
checks them.
"""

import math

import numpy as np

from .errors import AccuracyError, CapabilityError, InputError, SpectralPositivityError
from .models import CATALOG, ShapeEvaluator
from .series import AcfSeries, SpectralDensity

CONTOUR_A = 23.0
MIN_TERMS = 64
EPSILON_TERMS = 12  # even, so Wynn's last column is an estimate
# image points on one contour (memory) and image-point x time terms of the
# direct sums (time): both are known before any evaluation, and above them a
# call refuses (stock theta -> 0 needs ~1/theta points per contour)
CONTOUR_POINT_BOUND = 2**20
DIRECT_TERM_BOUND = 1e9
# spot check of f(conj p) = conj f(p); violations mean the image cannot be
# the transform of a real function and the cosine-series inversion is invalid
CONJUGATE_SYMMETRY_TOL = 1e-8


def _require_invertible(evaluator):
    if not isinstance(evaluator, ShapeEvaluator):
        raise InputError("evaluator must be a ShapeEvaluator")
    CATALOG[evaluator.model.variant].require(evaluator.model, "laplace")
    if evaluator.transform_scale is None:
        raise CapabilityError(
            f"the {evaluator.kind} ACF of {evaluator.model.variant.value} is not an "
            "ordinary function of time; there is nothing to invert"
        )


def _wynn(sums):
    """Wynn's epsilon table down the rows of ``sums`` (one column per time).

    Returns the last even column's estimate and its distance from the even
    column before.  A zero difference (a sum that has already converged)
    makes the next odd entry infinite; an even entry that comes out
    non-finite keeps the estimate two columns back.
    """
    prev, cur = np.zeros((sums.shape[0] + 1, sums.shape[1]), complex), sums
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(1, sums.shape[0]):
            new = prev[1:-1] + 1.0 / (cur[1:] - cur[:-1])
            if col % 2 == 0:
                new = np.where(np.isfinite(new), new, prev[1:-1])
                last_even = prev
            prev, cur = cur, new
    return cur[0], np.abs(cur[0] - last_even[-1])


def _octave(evaluator, t_top, t, n_fft, n_points):
    """Invert at the times t <= t_top of one octave on its shared contour.

    With ``n_fft`` the times are j T/(n_fft/2) and the leading K + 1 terms
    are summed by one inverse FFT.  Without it they are summed directly:
    k = width k1 + k0 splits e^(i pi k t/T) into two factors, so a slab of
    times costs one matrix product and O(sqrt K) exponentials per time.
    The last M terms are added per time.  Returns the values and their
    error estimates.
    """
    T = 2.0 * t_top
    sigma = CONTOUR_A / T
    k = np.arange(n_points)
    a = evaluator.transform_scale * np.asarray(evaluator(sigma + 1j * math.pi / T * k))
    a[0] *= 0.5
    lead = n_points - EPSILON_TERMS
    if n_fft:  # e^(i pi k t/T) = e^(2 pi i k j/N): fold k mod N
        folded = np.pad(a[:lead], (0, -lead % n_fft)).reshape(-1, n_fft).sum(axis=0)
        head = n_fft * np.fft.ifft(folded)[np.rint(t * n_fft / (2.0 * T)).astype(np.int64)]
    else:
        width = math.isqrt(lead - 1) + 1
        blocks = np.pad(a[:lead], (0, -lead % width)).reshape(-1, width).T
        rows = max(1, 2**16 // width)  # times per slab of about 2^16 entries
        head = np.empty(t.size, complex)
        for i in range(0, t.size, rows):
            phase = 1j * math.pi / T * t[i : i + rows, None]
            inner = np.exp(phase * np.arange(width)) @ blocks
            outer = np.exp(phase * width * np.arange(blocks.shape[1]))
            head[i : i + rows] = np.sum(inner * outer, axis=1)
    tail = a[lead:, None] * np.exp(1j * math.pi / T * np.outer(k[lead:], t))
    limit, change = _wynn(np.cumsum(np.concatenate([head[None, :], tail]), axis=0))
    weight = np.exp(sigma * t) / T
    return weight * limit.real, weight * change


def _invert_octaves(evaluator, tops, groups, sizes, t_max, n_ffts, tolerance):
    """Invert each group of times on the contour of its octave top, in order.

    ``sizes`` counts each group's times, up to ``t_max``, and ``n_ffts``
    holds each octave's FFT length on a uniform grid, or None for direct
    sums.  From these alone, before it draws a group from the (possibly
    lazy) ``groups``, it refuses a contour above CONTOUR_POINT_BOUND image
    points or direct sums above DIRECT_TERM_BOUND terms.  Raises
    AccuracyError when the image fails the initial-value check c(0) = 1 or
    the conjugate-symmetry spot check, or when the worst error estimate
    exceeds ``tolerance``.
    """
    if not (0 < tolerance):
        raise InputError("tolerance must be positive")
    points = [MIN_TERMS + math.ceil(2.0 * evaluator.freq_scale * top / math.pi) + EPSILON_TERMS + 1
              for top in tops]
    terms = sum(n * size for n, size in zip(points, sizes))
    if max(points) > CONTOUR_POINT_BOUND or (n_ffts is None and terms > DIRECT_TERM_BOUND):
        need = (f"{max(points)} image points on one contour (bound {CONTOUR_POINT_BOUND})"
                if max(points) > CONTOUR_POINT_BOUND else
                f"{terms:.3g} image-point x time terms (bound {DIRECT_TERM_BOUND:.3g})")
        raise InputError(f"Laplace inversion too costly: {sum(sizes)} times up "
                         f"to t = {t_max:.6g} need {need}; --route closed needs no inversion")
    # initial-value theorem: p * image(p) -> c(0) = 1 as real p -> inf
    p_big = 1e7 / evaluator.corr_time
    c0 = p_big * evaluator.transform_scale * float(evaluator(p_big))
    p0 = (1.0 + 2.0j) / evaluator.corr_time
    up = evaluator(p0)
    for residual, bound, message in (
        (abs(c0 - 1.0), 1e-3, "image fails the initial-value check for a normalized ACF"),
        (abs(evaluator(np.conj(p0)) - np.conj(up)) / max(abs(up), 1e-300),
         CONJUGATE_SYMMETRY_TOL, "image violates conjugate symmetry; not a real ACF transform"),
    ):
        if residual > bound:
            raise AccuracyError(message, achieved=residual)
    results = [_octave(evaluator, *octave)
               for octave in zip(tops, groups, n_ffts or [None] * len(tops), points)]
    achieved = max(float(np.max(change)) for _, change in results)
    if achieved > tolerance:
        raise AccuracyError("inversion error estimate above requested tolerance", achieved=achieved)
    return np.concatenate([values for values, _ in results])


def invert_at(evaluator, times, tolerance=1e-6):
    """Invert the normalized ACF image at strictly positive times.

    The times are grouped in octaves (t_J/2, t_J], t_J = 2^q t_min, and each
    octave sums its contour's Fourier series directly at its times (see the
    module docstring), at a cost of its times x its image points.  Returns
    the normalized ACF values in the caller's order, a float for a scalar
    time.  Raises AccuracyError carrying the worst error estimate if it
    exceeds ``tolerance``, and InputError, before any evaluation, above
    CONTOUR_POINT_BOUND image points on one contour or DIRECT_TERM_BOUND
    terms in all.  Uniform grids are cheaper through ``invert``.
    """
    _require_invertible(evaluator)
    t = np.asarray(times, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if t.size == 0 or np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("times must be finite and > 0")
    order = np.argsort(t, kind="stable")
    ts = t[order]
    # ceil rounds a time at an octave top up an octave at worst: still on its contour
    q, starts = np.unique(np.maximum(np.ceil(np.log2(ts / ts[0])), 0.0), return_index=True)
    groups = np.split(ts, starts[1:])
    values = np.empty(t.size)
    values[order] = _invert_octaves(evaluator, ts[0] * 2.0**q, groups, [g.size for g in groups],
                                    ts[-1], None, tolerance)
    return float(values[0]) if scalar else values


def invert(evaluator, h, n_lags, tolerance=1e-6):
    """Invert an ACF image onto the uniform lag grid 0, h, ..., (n_lags-1) h.

    The lag-0 value is pinned to 1 by normalization, which the initial-value
    check of the image's large-p behavior backs.  Lags j in (J/2, J],
    J = 1, 2, 4, ..., share the contour with t_J = J h, and their partial
    sums are one inverse FFT of length 4J, so the grid costs O(n log n)
    operations.  Returns a normalized AcfSeries whose variance is the
    dimensionful equal-time value of the requested ACF; raises as
    ``invert_at`` does, refusing an oversized grid before any lag exists.
    """
    _require_invertible(evaluator)
    if not (h > 0 and np.isfinite(h)):
        raise InputError("h must be positive and finite")
    if not (isinstance(n_lags, (int, np.integer)) and n_lags >= 2):
        raise InputError("n_lags must be an integer >= 2")
    tops = 2 ** np.arange(int(n_lags - 2).bit_length() + 1)
    sizes = [min(top, int(n_lags) - 1) - top // 2 for top in tops.tolist()]
    # drawn octave by octave, after the cost check
    lags = (h * np.arange(top // 2 + 1, min(top, n_lags - 1) + 1) for top in tops)
    values = _invert_octaves(evaluator, h * tops, lags, sizes, h * (n_lags - 1), list(4 * tops),
                             tolerance)
    return AcfSeries(h=h, values=np.concatenate(([1.0], values)), variance=evaluator.peak_variance)


def spectral_density(evaluator, omega):
    """One-sided spectral density S(w) = 2 * image(0) * Re shape(i w).

    Normalized so the equal-time variance is (1/pi) * integral of S over
    [0, inf).  Tiny negative excursions (below 1e-8 of the peak) are
    clamped to zero.  Anything larger is the model's, not roundoff: its
    shape is not positive-real on the imaginary axis, so its ACF is not
    positive definite (the Boltzmann image has Re y(5i/tau_R) = -0.019),
    and SpectralPositivityError names the most negative omega and value.
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
    worst = int(np.argmin(vals))
    if vals[worst] < floor:
        raise SpectralPositivityError(
            f"spectral density is negative beyond roundoff at omega = {w[worst]:.6g}, "
            f"so the {evaluator.kind} ACF of {evaluator.model.variant.value} is not positive definite",
            worst=float(vals[worst]),
        )
    return SpectralDensity(omega=w, values=np.maximum(vals, 0.0))
