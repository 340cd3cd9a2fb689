"""Special functions needed by every model: Bessel J0/J1, the normalized
lambda forms built from them, and both Lambert W branches.

``neumann_series`` sums the geometric Neumann series
sum_n a_n [J_2n(x) + J_2n+2(x)] = (2/x) sum_n a_n (2n+1) J_2n+1(x), the stock
ACF of every theta, by Miller's backward recurrence (Gautschi 1967, SIAM
Rev. 9:24) normalized by J0 + 2 sum_k J_2k = 1.  Against a direct
scipy.special.jv sum it agrees to a few 1e-15.  J0 (a_n = (-1)^n) and
lambda1 = 2 J1/x (a_0 = 1 alone) are two of its cases, and every Bessel value
with |x| <= ``_SERIES_CUTOFF`` comes from it; above the cutoff the Hankel
large-argument expansion costs O(1) per argument where Miller's costs O(x).
The two agree at the seam to 1e-15, and J0, J1 and lambda1 are within 2e-15
of scipy.special on [0, 200].

The models need the Lambert branches only as W0(e^z) and W-1(-e^-z) with
Re z >= 1, so both are solved in their log forms w + ln w = z and
v - ln v = z by one guarded Newton iteration (``_log_root``); next to the
branch point z = 1 the lower branch is solved in v - 1 (``_branch_root``).
The log forms take real z >= 1 and complex z with Re z >= 1, where the same
iteration serves the Lambert-type images on Re p >= 0: it took at most 5
steps on a grid of tau_R p out to 1e6 along and 1e8 across the real axis,
and W0(e^z) matches scipy.special.wrightomega to 5e-16 out to
|Im z| = 1e4.

All functions accept scalars or arrays and follow ufunc-style return rules.
"""

import numpy as np

from .errors import DomainError, InputError, SolverError

_SERIES_CUTOFF = 17.0
_HANKEL_TERMS = 30


def _return_like(x_in, out):
    """``out`` for an array input; its one value as a Python float or
    complex for a scalar ``x_in``."""
    if np.ndim(x_in) == 0:
        return np.asarray(out).reshape(-1)[0].item()  # a float, or a complex
    return out


def _j_asymptotic(x, nu):
    """Hankel expansion for J_nu at x >= ~17, truncated before divergence."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    inv_x = 1.0 / xa
    a = np.ones_like(xa)          # running (nu,m) / x^m
    p_sum = np.ones_like(xa)      # + A0
    q_sum = np.zeros_like(xa)
    four_nu2 = 4.0 * nu * nu
    sign = 1.0
    term = np.empty_like(xa)
    for m in range(1, _HANKEL_TERMS + 1):
        # a = a * (4 nu^2 - (2m - 1)^2) / (8m) * inv_x, in place
        np.multiply(a, four_nu2 - (2 * m - 1) ** 2, a)
        np.divide(a, 8.0 * m, a)
        np.multiply(a, inv_x, a)
        np.multiply(a, sign, term)
        if m % 2 == 1:
            np.add(q_sum, term, q_sum)
            sign = -sign             # flips after each (odd, even) pair
        else:
            np.add(p_sum, term, p_sum)
    chi = xa - (0.5 * nu + 0.25) * np.pi
    return np.sqrt(2.0 / (np.pi * xa)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def _even_bessel(x, nu):
    """J0(x) for nu = 0, lambda1(x) = 2 J1(x)/x for nu = 1: both are even, so
    evaluated at |x|, as Neumann series up to _SERIES_CUTOFF (a_n = (-1)^n
    telescopes to J0; a_0 = 1 alone is J0 + J2 = 2 J1/x) and by the Hankel
    expansion above it."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("bessel argument must be finite")
    ax = np.abs(xa)
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    out[small] = neumann_series(ax[small], 1.0, nu - 1.0)
    big = ax[~small]
    out[~small] = _j_asymptotic(big, nu) * (2.0 / big if nu else 1.0)
    return out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Parameters
    ----------
    x : float or array_like
        Real, finite argument(s); within 2e-15 of scipy.special.j0 on
        [0, 200].
    """
    return _return_like(x, _even_bessel(x, 0))


def bessel_j1(x):
    """Bessel function of the first kind, order one, as (x/2) lambda1(x)."""
    xa = np.asarray(x, dtype=float)
    return _return_like(x, 0.5 * xa * _even_bessel(xa, 1))


def lambda1(x):
    """Normalized oscillation 2 J1(x) / x with lambda1(0) = 1.

    An even function, evaluated at |x|: the Neumann series J0 + J2 up to
    |x| = 17 (its Taylor polynomial below 1e-3, so x = 0 needs no special
    case) and the Hankel expansion above.  This is the closed-form market
    ACF evaluated at x = 2 tau / tau_R.
    """
    return _return_like(x, _even_bessel(x, 1))


def lambda0(x):
    """Half-argument form J0(x / 2) with lambda0(0) = 1.

    Scaled so the curve plotted against 2 tau / tau_R crosses zero where
    J0(tau / tau_R) does; see the lambda1/lambda0 figure command.
    """
    return _return_like(x, _even_bessel(np.asarray(x, dtype=float) / 2.0, 0))


# below this argument the Neumann series is its x^4 Taylor polynomial (error
# ~x^6 < 1e-18), which also keeps Miller's start values from overflowing
_NEUMANN_TAYLOR_BELOW = 1e-3
# coefficients a_n below this magnitude are dropped from the Neumann series
_NEUMANN_COEF_FLOOR = 1e-17
# work of one Neumann-series call is sum_i N(x_i) array steps plus, per
# recurrence order, a fixed loop cost worth about this many array steps;
# calls above the bound are refused (it is about 2 s on a 2-vCPU Xeon, and
# a fit_theta curve at theta = 0.0125 costs 4e7)
_NEUMANN_ORDER_COST = 4096
NEUMANN_WORK_BOUND = 2e9
# the recurrence slices its active suffix once per block of this many
# steps, two orders each
_NEUMANN_BLOCK_STEPS = 8


def neumann_series(x, first, ratio):
    """sum_n a_n [J_2n(x) + J_2n+2(x)] with a_n = first * ratio**n, |ratio| <= 1.

    Evaluated as (2/x) sum_n a_n (2n+1) J_2n+1(x) by one Miller backward
    recurrence vectorized over the arguments: they are sorted, and each
    starts at its own even order N(x) = x + 10 x^(1/3) + 40, so the active
    arguments form a suffix and small ones never pay for the largest.  The
    recurrence is normalized by J0 + 2 sum_k J_2k = 1, and coefficients are
    dropped once |a_n| < 1e-17.  Arguments below 1e-3 use the series' Taylor
    polynomial; x = 0 gives ``first``.

    The loop slices the active suffix once per block of 8 steps (16
    orders), taking every argument that starts within the block: one that
    has not started yet is all +0.0 and stays so under every step
    (0 * x = +-0, +0 + +-0 = +0, +0 - +0 = +0) until its f_lo = 1.0 is set
    at its own start order, so the sums are those of a per-order suffix
    bit for bit.  Each step calls the ufuncs with positional outputs and
    Python-float factors.

    Cost is sum_i N(x_i) array steps, plus at most 16 idle orders per
    argument, plus a fixed loop cost of about 3 us per order (a 2-vCPU Xeon,
    numpy 2.4) for each of the N(max x) orders; for the stock ACF, N(x) is
    about 2 t/(theta tau_r).  A call whose count exceeds NEUMANN_WORK_BOUND
    raises InputError before any work.  Memory is O(len(x) + N(max x)).
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
        work = float(start.sum()) + _NEUMANN_ORDER_COST * top
        if work > NEUMANN_WORK_BOUND:
            raise InputError(
                f"Neumann series too costly: {xs.size} arguments up to x = {xs[-1]:.6g} "
                f"need {work:.3g} recurrence steps (bound {NEUMANN_WORK_BOUND:.3g}); "
                f"--route laplace sums no series"
            )
        n = np.arange(top // 2)
        a = first * ratio**n  # |a_n| never grows, so the kept terms are a prefix
        coef = (a * (2 * n + 1))[: np.count_nonzero(np.abs(a) >= _NEUMANN_COEF_FLOOR)].tolist()
        n_coef = len(coef)
        size = xs.size
        inv = 2.0 / xs
        f_hi = np.zeros(size)   # f_{k+1}, then f_{k-1}
        f_lo = np.zeros(size)   # f_k, then f_{k-2}
        norm = np.zeros(size)
        odd = np.zeros(size)
        tmp = np.empty(size)
        # arguments [first_at[k]:] have started by order k
        first_at = np.searchsorted(start, np.arange(top + 2)).tolist()
        mul, add, sub = np.multiply, np.add, np.subtract
        for block in range(top, 0, -2 * _NEUMANN_BLOCK_STEPS):
            # one suffix serves the block's orders: an argument in it that
            # has not started stays +0.0 until its own start order
            end = max(block - 2 * _NEUMANN_BLOCK_STEPS, 0)
            lo = first_at[end]
            hi_v, lo_v, inv_v, tmp_v = f_hi[lo:], f_lo[lo:], inv[lo:], tmp[lo:]
            norm_v, odd_v = norm[lo:], odd[lo:]
            for k in range(block, end, -2):
                f_lo[first_at[k]:first_at[k + 1]] = 1.0
                add(norm_v, lo_v, norm_v)
                # f_{k-1} = (2k/x) f_k - f_{k+1}, then f_{k-2} = (2(k-1)/x) f_{k-1} - f_k
                mul(inv_v, lo_v, tmp_v)
                mul(tmp_v, k * 1.0, tmp_v)
                sub(tmp_v, hi_v, hi_v)
                j = k // 2 - 1
                if j < n_coef:
                    mul(hi_v, coef[j], tmp_v)
                    add(odd_v, tmp_v, odd_v)
                mul(inv_v, hi_v, tmp_v)
                mul(tmp_v, k - 1.0, tmp_v)
                sub(tmp_v, lo_v, lo_v)
        out[small:] = inv * odd / (2.0 * norm + f_lo)
    result = np.empty_like(out)
    result[order] = out
    return _return_like(x, result.reshape(xa.shape))


def _log_root(z, s):
    """Root w of w + s ln w = z (s = +1 or -1) by guarded Newton, for real
    z >= 1 (w >= 1) or complex z with Re z >= 1.

    Both real forms are monotone on w >= 1 (concave for s = +1, convex for
    s = -1), so Newton from the start z - s ln z + 1/2 stays on the branch;
    real iterates are clamped to w >= 1.  Complex z take the same start and
    steps with the principal log: the root is then the Wright omega value
    (s = +1) or the lower-branch root continued from the real w >= 1
    (s = -1), both analytic on Re z >= 1 away from z = 1.  The slope
    1 + s/w vanishes at the branch point w = 1 when s = -1, so there callers
    keep real z >= 1 + _BRANCH_GAP, where it is above 0.04, and solve below
    it by ``_branch_root``.  Raises SolverError if 80 steps do not converge.
    """
    real = not np.iscomplexobj(z)
    w = z - s * np.log(np.maximum(z, 1.0 + 1e-12) if real else z) + 0.5
    for _ in range(80):
        f = w + s * np.log(w) - z
        step = f / (1.0 + s / w)
        w = np.maximum(w - step, 1.0) if real else w - step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(w))):
            return w
    raise SolverError("log-form Lambert root: no convergence in 80 Newton steps",
                      residual=float(np.max(np.abs(step))))


# v - ln v = z is solved in d = v - 1 below z = 1 + _BRANCH_GAP
_BRANCH_GAP = 1e-3


def _branch_root(e):
    """d >= 0 with d - log1p(d) = e (0 <= e < _BRANCH_GAP): v = 1 + d solves
    v - ln v = 1 + e next to the branch point.

    In v the residual carries a rounding error of about 1e-16 against a
    slope 1 - 1/v that vanishes at v = 1; in d the residual's terms and the
    slope d/(1 + d) all scale with d, so Newton keeps full accuracy.  It
    starts from the branch-point series d = p + p^2/3, p = sqrt(2e), below
    the root of a convex residual, so from the first step on it falls onto
    the root from above.  e = 0 gives d = 0 exactly.  Raises SolverError if
    40 steps do not converge.
    """
    p = np.sqrt(2.0 * e)
    d = p + p * p / 3.0
    for _ in range(40):
        residual = (d - np.log1p(d) - e) * (1.0 + d)
        step = np.divide(residual, d, out=np.zeros_like(d), where=d > 0.0)
        d = d - step
        if np.all(np.abs(step) <= 1e-15):  # absolute: v = 1 + d >= 1
            return d
    raise SolverError("Lambert branch-point root: no convergence in 40 Newton steps",
                      residual=float(np.max(np.abs(step))))


def _complex_right_of_one(za, name):
    if not np.all(np.isfinite(za)) or np.any(za.real < 1.0):
        raise DomainError(f"{name} requires finite z with Re z >= 1 when z is complex")
    return za.astype(complex)


def lambert_w0_exp(z):
    """Overflow-safe W0(e^z) for real z >= 1 and complex z with Re z >= 1.

    Solves w + ln w = z (``_log_root``), never forming e^z; the complex root
    is the Wright omega function (Corless & Jeffrey 2002), which on
    Re z >= 1 is W0(e^z) continued off the real axis.  z = 1 gives 1
    exactly; real z < 1 raise DomainError.
    """
    za = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(za):
        return _return_like(z, _log_root(_complex_right_of_one(za, "lambert_w0_exp"), 1.0))
    za = za.astype(float)
    if not (np.all(np.isfinite(za)) and np.all(za >= 1.0)):
        raise DomainError("lambert_w0_exp requires finite z >= 1")
    return _return_like(z, _log_root(za, 1.0))


def lambert_wm1_neg_exp(z):
    """Underflow-safe W-1(-e^-z) for real z >= 1 and complex z with Re z >= 1,
    returned as -v with v - ln v = z.

    The composed form keeps the differential-model image evaluable at
    arbitrarily large arguments where -e^-z would round to zero.  Below
    real z = 1 + _BRANCH_GAP the root is solved in v - 1 (``_branch_root``).
    Complex z take ``_log_root``'s Newton iteration: its root is the real
    branch v >= 1 continued analytically off the real axis, v - 1 ~
    sqrt(2 (z - 1)) with the principal root near the branch point z = 1,
    and conjugate-symmetric.
    """
    za = np.atleast_1d(np.asarray(z))
    if np.iscomplexobj(za):
        return _return_like(z, -_log_root(_complex_right_of_one(za, "lambert_wm1_neg_exp"), -1.0))
    za = za.astype(float)
    if np.any(za < 1.0 - 1e-12) or not np.all(np.isfinite(za)):
        raise DomainError("lambert_wm1_neg_exp requires z >= 1")
    v = np.empty_like(za)
    near = za < 1.0 + _BRANCH_GAP
    v[near] = 1.0 + _branch_root(np.maximum(za[near] - 1.0, 0.0))
    v[~near] = _log_root(za[~near], -1.0)
    return _return_like(z, -v)
