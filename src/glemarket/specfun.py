"""Special functions needed by every model: Bessel J0/J1, the normalized
lambda forms built from them, and both real Lambert W branches.

Bessel evaluation is two-branch: the defining power series (accumulated in
extended precision to absorb cancellation) below ``_SERIES_CUTOFF``, and the
Hankel large-argument expansion above it.  The branches are required to agree
at the seam to 1e-9; tests enforce 1e-12 against a brute-force series oracle.

``neumann_series`` sums the geometric Neumann series
sum_n a_n [J_2n(x) + J_2n+2(x)] = (2/x) sum_n a_n (2n+1) J_2n+1(x), the stock
ACF of every theta, by Miller's backward recurrence (Gautschi 1967, SIAM
Rev. 9:24) normalized by J0 + 2 sum_k J_2k = 1.  Against a direct
scipy.special.jv sum it agrees to a few 1e-15, and its theta = 1 and 2
cases reproduce lambda1 and J0 to ~4e-15 out to x = 800.

Lambert W uses Halley iteration from branch-appropriate starting points,
stopping when the step falls below 1e-14 (relative), with a residual
post-condition |w e^w - x| <= 1e-12 |x|.

All functions accept scalars or arrays and follow ufunc-style return rules.
"""

import numpy as np

from .errors import AccuracyError, DomainError

_SERIES_CUTOFF = 17.0
_HANKEL_TERMS = 30
# branch values frozen so the lag-0 normalization of downstream ACFs is exact
_INV_E = np.exp(-1.0)


def _return_like(x_in, out):
    if np.ndim(x_in) == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def _j_series(x, nu):
    """Power series for J_nu (nu in {0, 1}); |x| <= ~18 intended.

    Accumulated in longdouble: at the cutoff the series cancels ~5 decimal
    digits, which extended precision absorbs below the 1e-12 target.
    """
    xl = np.atleast_1d(np.asarray(x, dtype=np.longdouble))
    q = xl * xl / 4.0
    term = np.ones_like(xl) if nu == 0 else xl / 2.0
    total = term.copy()
    for k in range(1, 120):
        term = term * (-q) / (k * (k + nu))
        total = total + term
        if np.all(np.abs(term) <= 1e-24 * (1.0 + np.abs(total))):
            break
    return total.astype(float)


def _j_asymptotic(x, nu):
    """Hankel expansion for J_nu at x >= ~17, truncated before divergence."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    inv_x = 1.0 / xa
    a = np.ones_like(xa)          # running (nu,m) / x^m
    p_sum = np.ones_like(xa)      # + A0
    q_sum = np.zeros_like(xa)
    four_nu2 = 4.0 * nu * nu
    sign = 1.0
    for m in range(1, _HANKEL_TERMS + 1):
        a = a * (four_nu2 - (2 * m - 1) ** 2) / (8.0 * m) * inv_x
        if m % 2 == 1:
            q_sum = q_sum + sign * a
            sign = -sign             # flips after each (odd, even) pair
        else:
            p_sum = p_sum + sign * a
    chi = xa - (0.5 * nu + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * xa)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def _bessel_j(x, nu):
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("bessel argument must be finite")
    ax = np.abs(xa)
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    if np.any(small):
        out[small] = _j_series(ax[small], nu)
    if np.any(~small):
        out[~small] = _j_asymptotic(ax[~small], nu)
    if nu == 1:
        out = np.where(xa < 0, -out, out)  # J1 is odd, J0 even
    return out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Parameters
    ----------
    x : float or array_like
        Real argument(s); intended accuracy range |x| <= 200.
    """
    return _return_like(x, _bessel_j(x, 0))


def bessel_j1(x):
    """Bessel function of the first kind, order one."""
    return _return_like(x, _bessel_j(x, 1))


def lambda1(x):
    """Normalized oscillation 2 J1(x) / x with lambda1(0) = 1.

    A two-term series guards the 0/0 form below x = 1e-4; this is the
    closed-form market ACF evaluated at x = 2 tau / tau_R.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(xa)
    tiny = ax < 1e-4
    out = np.empty_like(xa)
    if np.any(tiny):
        x2 = xa[tiny] * xa[tiny]
        out[tiny] = 1.0 - x2 / 8.0 + x2 * x2 / 192.0
    if np.any(~tiny):
        xb = xa[~tiny]
        out[~tiny] = 2.0 * _bessel_j(xb, 1) / xb
    return _return_like(x, out)


def lambda0(x):
    """Half-argument form J0(x / 2) with lambda0(0) = 1.

    Scaled so the curve plotted against 2 tau / tau_R crosses zero where
    J0(tau / tau_R) does; see the lambda1/lambda0 figure command.
    """
    xa = np.asarray(x, dtype=float)
    return _return_like(x, _bessel_j(xa / 2.0, 0))


# below this argument the Neumann series is its x^4 Taylor polynomial (error
# ~x^6 < 1e-18), which also keeps Miller's start values from overflowing
_NEUMANN_TAYLOR_BELOW = 1e-3
# coefficients a_n below this magnitude are dropped from the Neumann series
_NEUMANN_COEF_FLOOR = 1e-17


def neumann_series(x, first, ratio):
    """sum_n a_n [J_2n(x) + J_2n+2(x)] with a_n = first * ratio**n, |ratio| <= 1.

    Evaluated as (2/x) sum_n a_n (2n+1) J_2n+1(x) by one Miller backward
    recurrence vectorized over the arguments: they are sorted, and each
    starts at its own even order N(x) = x + 10 x^(1/3) + 40, so the active
    arguments form a suffix and small ones never pay for the largest.  The
    recurrence is normalized by J0 + 2 sum_k J_2k = 1, and coefficients are
    dropped once |a_n| < 1e-17.  Arguments below 1e-3 use the series' Taylor
    polynomial; x = 0 gives ``first``.

    Cost is O(sum_i N(x_i)) array operations (for the stock ACF, about
    n_lags * t_max / (theta tau_r)); memory is O(len(x)).
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa < 0):
        raise DomainError("neumann_series requires finite x >= 0")
    if not (np.isfinite(first) and abs(ratio) <= 1.0):
        raise DomainError("neumann_series requires finite first and |ratio| <= 1")
    flat = xa.reshape(-1)
    order = np.argsort(flat, kind="stable")
    xs = flat[order]
    out = np.empty(xs.size)
    a1 = first * ratio
    small = int(np.searchsorted(xs, _NEUMANN_TAYLOR_BELOW))
    x2 = xs[:small] ** 2
    out[:small] = first - (first - a1) * x2 / 8.0 + (
        first / 192.0 - a1 / 128.0 + a1 * ratio / 384.0
    ) * (x2 * x2)
    xs = xs[small:]
    if xs.size:
        start = np.ceil(xs + 10.0 * np.cbrt(xs) + 40.0).astype(np.int64)
        start += start % 2
        top = int(start[-1])
        n = np.arange(top // 2)
        a = first * ratio**n  # |a_n| never grows, so the kept terms are a prefix
        coef = (a * (2 * n + 1))[: np.count_nonzero(np.abs(a) >= _NEUMANN_COEF_FLOOR)]
        size = xs.size
        inv = 2.0 / xs
        f_hi = np.zeros(size)   # f_{k+1}, then f_{k-1}
        f_lo = np.zeros(size)   # f_k, then f_{k-2}
        norm = np.zeros(size)
        odd = np.zeros(size)
        tmp = np.empty(size)
        # arguments [first_at[k]:] have started by order k
        first_at = np.searchsorted(start, np.arange(top + 2))
        for k in range(top, 0, -2):
            lo = first_at[k]
            f_lo[lo:first_at[k + 1]] = 1.0
            hi_v, lo_v, inv_v, tmp_v = f_hi[lo:], f_lo[lo:], inv[lo:], tmp[lo:]
            norm[lo:] += lo_v
            # f_{k-1} = (2k/x) f_k - f_{k+1}, then f_{k-2} = (2(k-1)/x) f_{k-1} - f_k
            np.multiply(inv_v, lo_v, out=tmp_v)
            tmp_v *= k
            np.subtract(tmp_v, hi_v, out=hi_v)
            j = k // 2 - 1
            if j < coef.size:
                np.multiply(hi_v, coef[j], out=tmp_v)
                odd[lo:] += tmp_v
            np.multiply(inv_v, hi_v, out=tmp_v)
            tmp_v *= k - 1
            np.subtract(tmp_v, lo_v, out=lo_v)
        out[small:] = inv * odd / (2.0 * norm + f_lo)
    result = np.empty_like(out)
    result[order] = out
    return _return_like(x, result.reshape(xa.shape))


def _halley_we(w, x, iters=60):
    """Halley iteration on f(w) = w e^w - x; returns converged w."""
    for _ in range(iters):
        ew = np.exp(w)
        f = w * ew - x
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
            step = f / denom
        # at the branch point w = -1 the update degenerates to 0/0; the
        # start values put us there only when the root itself is -1
        step = np.where(np.isfinite(step), step, 0.0)
        w = w - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(w))):
            break
    return w


def _check_residual(w, x):
    resid = np.abs(w * np.exp(w) - x)
    bad = resid > 1e-12 * np.maximum(np.abs(x), 1e-300)
    if np.any(bad):
        raise AccuracyError("Lambert W residual above 1e-12", achieved=float(np.max(resid)))


def lambert_w0(x):
    """Principal Lambert branch W0 on x >= -1/e.

    Halley iteration from a branch-point series near -1/e, log(1+x) in the
    midrange, and the two-term asymptotic beyond e.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa < -_INV_E - 1e-14) or not np.all(np.isfinite(xa)):
        raise DomainError("lambert_w0 requires x >= -1/e")
    w = np.empty_like(xa)
    near = xa < -_INV_E + 0.05
    if np.any(near):
        p = np.sqrt(np.maximum(2.0 * (np.e * xa[near] + 1.0), 0.0))
        w[near] = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    mid = ~near & (xa < np.e)
    if np.any(mid):
        w[mid] = np.log1p(xa[mid])
    big = xa >= np.e
    if np.any(big):
        l1 = np.log(xa[big])
        l2 = np.log(l1)
        w[big] = l1 - l2 + l2 / l1
    w = _halley_we(w, xa)
    exact = xa == 0.0
    if np.any(exact):
        w[exact] = 0.0
    _check_residual(w, xa)
    return _return_like(x, w)


def lambert_wm1(x):
    """Lower Lambert branch W-1 on -1/e <= x < 0 (values <= -1)."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa >= 0) or np.any(xa < -_INV_E - 1e-14) or not np.all(np.isfinite(xa)):
        raise DomainError("lambert_wm1 requires -1/e <= x < 0")
    w = np.empty_like(xa)
    near = xa < -_INV_E + 0.04
    if np.any(near):
        p = np.sqrt(np.maximum(2.0 * (np.e * xa[near] + 1.0), 0.0))
        w[near] = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0
    far = ~near
    if np.any(far):
        l1 = np.log(-xa[far])
        w[far] = l1 - np.log(-l1)
    w = _halley_we(w, xa)
    w = np.minimum(w, -1.0)  # branch point itself rounds to exactly -1
    _check_residual(w, xa)
    return _return_like(x, w)


def lambert_w0_exp(z):
    """Overflow-safe W0(e^z) for real z of any size.

    For z <= 1 this is lambert_w0(exp(z)).  Beyond that it solves
    w + ln w = z directly by Halley steps, never forming e^z.
    """
    za = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(za)):
        raise DomainError("lambert_w0_exp requires finite z")
    out = np.empty_like(za)
    low = za <= 1.0
    if np.any(low):
        out[low] = np.atleast_1d(lambert_w0(np.exp(za[low])))
    high = ~low
    if np.any(high):
        zh = za[high]
        w = zh - np.log(zh) + np.log(zh) / zh  # w + ln w = z asymptotic start
        w = np.maximum(w, 0.5)
        for _ in range(60):
            f = w + np.log(w) - zh
            fp = 1.0 + 1.0 / w
            fpp = -1.0 / (w * w)
            step = f / (fp - 0.5 * f * fpp / fp)
            w = w - step
            if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(w))):
                break
        out[high] = w
    return _return_like(z, out)


def lambert_wm1_neg_exp(z):
    """Underflow-safe W-1(-e^-z) for z >= 1, returned as -v with v - ln v = z.

    The composed form keeps the differential-model image evaluable at
    arbitrarily large arguments where -e^-z would round to zero.
    """
    za = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(za < 1.0 - 1e-12) or not np.all(np.isfinite(za)):
        raise DomainError("lambert_wm1_neg_exp requires z >= 1")
    # v - ln v = z on v >= 1; Newton from a padded start stays on the branch
    v = za + np.log(np.maximum(za, 1.0 + 1e-12)) + 0.5
    for _ in range(80):
        f = v - np.log(v) - za
        fp = 1.0 - 1.0 / v
        step = f / np.maximum(fp, 1e-3)
        v = np.maximum(v - step, 1.0)
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(v))):
            break
    return _return_like(z, -v)
