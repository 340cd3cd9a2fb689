"""Lambert-type models: their ACFs by marching a causal convolution identity.

The images of the two Lambert-type models obey first-order ODEs in p,
which translate into causal convolution identities in time (written in
units of tau_R; the weighted Boltzmann integral collapses by the
s -> t - s substitution):

    Boltzmann:     t c(t) = (1 - t/2) (c*c)(t)
    differential:  t c(t) = (c*c)(t) + (c*c*c)(t)

Each step solves for c(t_j) given the earlier samples, but the
convolutions run over the whole history, so stepping them one by one would
cost O(n^2).  They are formed online instead (a relaxed product: Hairer,
Lubich & Schlichte 1985; van der Hoeven 2002): a divide-and-conquer tree
adds each finished block's share of the later sums with one FFT product,
and each step adds only the lags of its own 64-lag leaf, for O(n log^2 n)
work and O(n) memory.

The lag-zero behavior is logarithmic, c = 1 -+ v ln v + B v with
v = t/tau_R (minus/B = -gamma for Boltzmann, plus/B = -(2 - ln 2 - gamma)
for the differential model).  Two consequences for the discretization:

* Near t = 0 the identities are asymptotically scale-invariant, so a
  uniform-step march started at the corner locks onto a slightly wrong
  self-similar sequence no matter how small h is.  The startup window
  [0, STARTUP_SPAN tau_R] is therefore filled by Bromwich inversion of the
  model image (``laplace.invert_at``), and the march takes over beyond it.
* The convolution panels touching either endpoint see the logarithmic
  curvature of c; they are integrated in product form against the local
  behavior a(s) above, with exact panel moments, instead of plain
  trapezoid panels that would lose an O(h^2 ln h) slice per step.
"""

import numpy as np

from .errors import InputError, check_grid
from .laplace import invert_at
from .models import Variant, observable_evaluator
from .series import AcfSeries, _five_smooth

EULER_GAMMA = 0.5772156649015329
STARTUP_SPAN = 0.25  # in units of tau_R


# -- the relaxed march -------------------------------------------------------
#
# Symmetrizing s -> t - s collapses the weighted integral exactly,
# int_0^t s c(s) c(t-s) ds = (t/2) (c*c)(t), so the two identities marched
# here are (unit-tau_R time)
#
#     Boltzmann:     t c(t) = (1 - t/2) (c*c)(t)
#     differential:  t c(t) = (c*c)(t) + (c*(c*c))(t)
#
# The first forces an exact zero of the Boltzmann ACF at t = 2 tau_R.
# c has a logarithmic derivative at lag zero, so plain trapezoid panels next
# to either convolution endpoint would cost O(h^2 ln h) per step, amplified
# by the 1/t division at early times.  Both endpoint panels are therefore
# integrated in product form against the known local behavior
# a(s) = 1 + sign * s ln s + B s, with exact moments M0 = int a and
# M1 = int s a over one panel.
#
# What remains at step j is the interior trapezoid sum over all earlier
# lags, sum_{0<i<j} c_i c_{j-i} (and c_i q_{j-i} for the differential
# model), of series the march itself extends.  _relaxed_lags forms these
# sums online by divide and conquer: once the left half of a segment is
# final, its share of the right half's sums is one product per sum (by FFT
# from DIRECT_BELOW coefficients up).  A level of the tree costs
# O(n log n), so n steps cost O(n log^2 n) where full-history inner
# products cost O(n^2).
#
# The first RELAXED_LEAF lags are marched one by one with full inner
# products.  In every later leaf each remaining pair has its other index in
# the first leaf, so the step is linear in the leaf's unknowns: with M the
# Toeplitz matrix of the first leaf (_leaf_toeplitz) the in-leaf pairs add
# 2 (M x) to s1 and (M_q x + M y) to s2, the previous lag is a sub-diagonal
# shift, and the whole leaf is one lower-triangular solve (_solve_leaf)
# instead of a Python step per lag.

RELAXED_LEAF = 64    # lags per leaf (a power of two): the first is stepped, the rest solved
DIRECT_BELOW = 256   # block products shorter than this convolve directly


def _log_moments(h, sign, b):
    lh = np.log(h)
    m0 = h + sign * 0.5 * h * h * (lh - 0.5) + 0.5 * b * h * h
    m1 = 0.5 * h * h + sign * (h**3 / 3.0) * (lh - 1.0 / 3.0) + b * h**3 / 3.0
    return m0, m1


_STARTUP = {
    # variant -> (sign of the s ln s term, coefficient B of the linear term)
    Variant.BOLTZMANN: (-1.0, -EULER_GAMMA),
    Variant.DIFFERENTIAL: (1.0, -(2.0 - np.log(2.0) - EULER_GAMMA)),
}


def _panel_coeffs(variant, hh, c1):
    sign, b = _STARTUP[variant]
    m0, m1 = _log_moments(hh, sign, b)
    gamma0 = m0 - m1 / hh
    delta0 = m1 / hh - 0.5 * hh * c1
    return gamma0, delta0


def _relaxed_lags(c, q, start):
    """Leaves of a march that extends c and q, with the sums from outside them.

    c and q (None for s1 alone) span one grid of n lags with c[0] = q[0] = 0.
    Entries up to ``start`` are final from the outset, and the caller makes
    the first leaf, c[:RELAXED_LEAF] (and q), final before the first leaf is
    asked for.  The generator then yields (lo, sums) for each later leaf
    [lo, lo + m) that holds a lag above ``start``, in turn; sums has one row
    per sum and m columns, and before asking for the next leaf the caller
    must make c[lo:lo + m] and q[lo:lo + m] final.  For lag j = lo + J,
    sums[0, J] is the part of s1_j = sum_{0<i<j} c_i c_{j-i} from pairs whose
    larger index is below lo, and sums[1, J] the same part of
    s2_j = sum_{0<i<j} c_i q_{j-i}.  The pairs left out are those with one
    index in [lo, j) and the other in the first leaf: with x = c[lo:lo + m],
    y = q[lo:lo + m] and the first leaf's Toeplitz matrices
    M = _leaf_toeplitz(c), M_q = _leaf_toeplitz(q), they add 2 (M x)[J] to
    s1_j and (M_q x + M y)[J] to s2_j.

    The lags form a power-of-two segment tree whose leaves are RELAXED_LEAF
    lags wide.  Once the left half [lo, mid) of a segment is final, its
    pairs landing in [mid, hi) are added with one product per sum (see
    _spill).  Each boundary lo is the midpoint of exactly one segment, of
    half-width lo & -lo.  Every pair is thus counted once, at the segment
    that splits its larger index from its sum, for O(n log^2 n) work in all.
    """
    n = c.size
    first = max(start + 1, 2)
    leaf = RELAXED_LEAF
    acc = np.zeros((1 if q is None else 2, n))  # the sums gathered so far
    spectra = {}  # FFTs of the final prefixes c[:w] (and q[:w]), by (w, size)
    for lo in range(leaf, n, leaf):
        half = lo & -lo
        hi = min(lo + half, n)
        if hi > first:
            _spill(c, q, acc, spectra, lo - half, lo, hi)
        end = min(lo + leaf, n)
        if end > first:
            yield lo, acc[:, lo:end]


def _leaf_toeplitz(x):
    """M[r, s] = x[r - s] for r >= s, 0 above, over the first leaf of x.

    With x[0] = 0 the diagonal vanishes, and (M @ v)[J] = sum_{s<J} v_s x_{J-s}:
    the pairs a later leaf v forms with the first leaf of x.
    """
    lag = np.subtract.outer(np.arange(RELAXED_LEAF), np.arange(RELAXED_LEAF))
    return np.where(lag >= 0, x[np.maximum(lag, 0)], 0.0)


def _solve_leaf(x, known, d, coupling, b):
    """Make x[known:] solve d x = b + coupling x on one leaf, x[:known] given.

    coupling is strictly lower triangular, so the system is too: the lags
    the inverted head already covers move to the right-hand side, and the
    rest is one solve.
    """
    k = known
    lhs = -coupling[k:, k:]
    lhs.flat[:: lhs.shape[0] + 1] += d[k:]
    x[k:] = np.linalg.solve(lhs, b[k:] + coupling[k:, :k] @ x[:k])


def _spill(c, q, acc, spectra, lo, mid, hi):
    """Add the pairs whose larger index lies in [lo, mid) to acc[:, mid:hi].

    For lo = 0 these are c[:mid] c[:mid] (and c[:mid] q[:mid]).  Otherwise
    the segment is no wider than lo, so every pair has one index in
    [lo, mid) and the other below w = hi - lo, already final:
    2 c[lo:mid] c[:w] (and c[lo:mid] q[:w] + q[lo:mid] c[:w]).  Products
    shorter than DIRECT_BELOW convolve directly; longer ones share one FFT
    of each operand slice.  Being final, the early factors' FFTs are kept in
    ``spectra`` for every later segment of the same width in one march.
    """
    w = hi - lo
    reach = mid if lo == 0 else w  # length of the early factor
    top = min(w, mid - lo + reach - 1)  # needed, capped by the product length
    ops = [c] if q is None else [c, q]
    if top < DIRECT_BELOW:
        product = np.convolve
        seg = [x[lo:mid] for x in ops]
        early = [x[:reach] for x in ops]
    else:
        product = np.multiply
        size = _five_smooth(mid - lo + reach - 1)
        seg = [np.fft.rfft(x[lo:mid], size) for x in ops]
        if lo == 0:
            early = seg
        elif (w, size) in spectra:
            early = spectra[w, size]
        else:
            early = spectra[w, size] = [np.fft.rfft(x[:w], size) for x in ops]
    rows = [product(seg[0], early[0])]
    if q is not None:
        rows.append(product(seg[0], early[1]))
        if lo:
            rows[1] = rows[1] + product(seg[1], early[0])
    if lo:
        rows[0] = rows[0] + rows[0]
    parts = np.stack(rows) if top < DIRECT_BELOW else np.fft.irfft(np.stack(rows), size)
    acc[:, mid : lo + top] += parts[:, mid - lo : top]


def _boltzmann_march(hh, c, start):
    """Fill c[start+1:] of t c = (1 - t/2)(c*c); c[:start+1] already known.

    Lag j solves d_j c_j = half_j (hh s1_j + 2 delta0 c_{j-1}), with
    half = 1 - t/2 and d = t - 2 gamma0 half: stepped through the first
    leaf, one leaf at a time after it.
    """
    n = c.size
    leaf = RELAXED_LEAF
    t = hh * np.arange(n)
    gamma0, delta0 = map(float, _panel_coeffs(Variant.BOLTZMANN, hh, c[1]))
    half = 1.0 - 0.5 * t
    d = t - 2.0 * gamma0 * half
    first = max(start + 1, 2)
    c[0] = 0.0  # the interior sums exclude lag zero
    for j in range(first, min(leaf, n)):
        known = hh * c[1:j].dot(c[j - 1 : 0 : -1]) + 2.0 * delta0 * c[j - 1]
        c[j] = half[j] * known / d[j]
    if n > leaf:
        # hh s1 + 2 delta0 c_{j-1} inside a leaf: hh (sums + 2 M x) + 2 delta0 (shift x)
        coupling = 2.0 * hh * _leaf_toeplitz(c) + np.eye(leaf, k=-1) * (2.0 * delta0)
        for lo, (s1,) in _relaxed_lags(c, None, start):
            m = s1.size
            w = half[lo : lo + m]
            b = hh * s1
            b[0] += 2.0 * delta0 * c[lo - 1]
            _solve_leaf(c[lo : lo + m], max(first - lo, 0), d[lo : lo + m],
                        w[:, None] * coupling[:m, :m], w * b)
    c[0] = 1.0


def _differential_march(hh, c, q, start):
    """Fill c[start+1:] of t c = (c*c) + (c*(c*c)), and q[1:] with the (c*c)
    samples; c[:start+1] already known, q zero.

    With known_j = hh s1_j + 2 delta0 c_{j-1}, lag j solves
    d_j c_j = (1 + gamma0) known_j + hh s2_j + delta0 q_{j-1}, where
    d = t - 2 gamma0 (1 + gamma0), and then q_j = 2 gamma0 c_j + known_j,
    on the known lags too: stepped through the first leaf, one leaf at a
    time after it.
    """
    n = c.size
    leaf = RELAXED_LEAF
    t = hh * np.arange(n)
    gamma0, delta0 = map(float, _panel_coeffs(Variant.DIFFERENTIAL, hh, c[1]))
    g1 = 1.0 + gamma0
    d = t - 2.0 * gamma0 * g1
    first = max(start + 1, 2)
    c[0] = 0.0  # the interior sums exclude lag zero; q[0] is 0 already
    for j in range(1, min(leaf, n)):
        known = hh * c[1:j].dot(c[j - 1 : 0 : -1]) + 2.0 * delta0 * c[j - 1]
        if j >= first:
            c[j] = (g1 * known + hh * c[1:j].dot(q[j - 1 : 0 : -1]) + delta0 * q[j - 1]) / d[j]
        q[j] = 2.0 * gamma0 * c[j] + known
    if n > leaf:
        # inside a leaf, with x = c and y = q there: known = k0 + kx x, where
        # k0 holds the sums from outside the leaf and kx = 2 hh M + 2 delta0 shift;
        # y = 2 gamma0 x + known; and hh s2 + delta0 q_{j-1} adds hh M_q x + ky y,
        # ky = hh M + delta0 shift
        m0, shift = _leaf_toeplitz(c), np.eye(leaf, k=-1)
        kx = 2.0 * hh * m0 + 2.0 * delta0 * shift
        ky = hh * m0 + delta0 * shift
        qx = kx + 2.0 * gamma0 * np.eye(leaf)  # y = qx x + k0
        coupling = g1 * kx + hh * _leaf_toeplitz(q) + ky @ qx
        for lo, (s1, s2) in _relaxed_lags(c, q, 0):  # every leaf: q is marched on all
            m = s1.size
            k0 = hh * s1
            k0[0] += 2.0 * delta0 * c[lo - 1]
            b = g1 * k0 + hh * s2 + ky[:m, :m] @ k0
            b[0] += delta0 * q[lo - 1]
            _solve_leaf(c[lo : lo + m], max(first - lo, 0), d[lo : lo + m], coupling[:m, :m], b)
            q[lo : lo + m] = qx[:m, :m] @ c[lo : lo + m] + k0
    c[0] = 1.0


def _lambert_type_acf(model, h, n_steps, variant):
    if model.variant is not variant:
        raise InputError(f"model must be the {variant.value} variant")
    check_grid(h, n_steps)
    hh = h / model.tau_R
    head = min(n_steps - 1, max(4, int(np.ceil(STARTUP_SPAN / hh))))
    c = np.empty(n_steps)
    c[0] = 1.0
    c[1 : head + 1] = invert_at(observable_evaluator(model), h * np.arange(1, head + 1))
    if variant is Variant.BOLTZMANN:
        _boltzmann_march(hh, c, head)
    else:
        _differential_march(hh, c, np.zeros(n_steps), head)
    return AcfSeries(h=h, values=c, variance=model.variance)


def boltzmann_acf(model, h, n_steps):
    """Normalized ACF of the Boltzmann-statistics model by causal marching.

    The underlying identity forces an exact zero at lag 2 tau_R and a small
    negative tail just beyond it.  The startup window is ``invert_at`` of the
    same image; beyond it the march is off the inversion by 4.4e-4 at
    h = 0.01 tau_R, 3.5x less per halving of h.
    """
    return _lambert_type_acf(model, h, n_steps, Variant.BOLTZMANN)


def differential_acf(model, h, n_steps):
    """Normalized ACF of the differential-closure model by causal marching.

    The startup window is ``invert_at`` of the same image; beyond it the
    march is off the inversion by 2.3e-4 at h = 0.01 tau_R, 2.7x less at
    h/2 and 3.1x less again at h/4.
    """
    return _lambert_type_acf(model, h, n_steps, Variant.DIFFERENTIAL)
