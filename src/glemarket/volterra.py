"""Time-domain evolution routes: memory-kernel Volterra equations and the
stochastic evolution equation they close.

Everything here advances the convolution equation

    dc/dt = -(k * c)(t),        c(0) = 1,

or its stochastically forced counterpart

    dR/dt = F(t) - (k * R)(t),

with the implicit-trapezoid (Crank-Nicolson) one-step update paired with
trapezoidal product integration of the memory term.  That combination is
A-stable, has no parasitic mode over long horizons, converges at O(h^2),
and reduces to the cumulative trapezoid of the forcing when the kernel
vanishes (D(z) = 1 - z below, so 1/D is a running sum).  A zero kernel
takes the same transfer-function route as any other, exact up to FFT roundoff.

The update is a convolution quadrature (Lubich 1988): with generating
functions X(z) = sum_j x_j z^j of the samples it reads D R = r_0 A + U, where

    D(z) = (1 - z) + (h^2/2) (1 + z) (K(z) - k_0/2),
    A(z) = 1 + (h^2/4) (1 + z) K(z),   U(z) = (h/2) ((1 + z) F(z) - f_0).

The series 1/D comes from Newton doubling, g <- g (2 - D g) (Brent & Kung
1978), with FFT products: O(n log n) for n steps, not the O(n^2) of
marching the update.  A/D is the ACF route; a forced ensemble adds one FFT
convolution of U with 1/D per path.

The stationary solution of the forced equation needs no march:
``simulate_stationary_ensemble`` draws it directly as the Gaussian process
it is, from its folded observable spectrum, and ``integrate_gle`` remains
the solver for driven problems (a given force, an initial value).

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

import math
from dataclasses import replace

import numpy as np

from .errors import CapabilityError, InputError, check_count, check_positive, check_seed
from .laplace import invert_at
from .laplace import spectral_density  # noqa: F401  perfbench's tracer patches this name here
from .market import simulate_white_returns
from .models import CATALOG, Variant, band_variance, observable_evaluator, spectral_atom
from .noise import NoiseRequest, generate_colored, path_streams
from .series import AcfSeries, KernelSeries, PathEnsemble, SpectralDensity, _five_smooth, check_ensemble
from .specfun import lambda1

EULER_GAMMA = 0.5772156649015329
STARTUP_SPAN = 0.25  # in units of tau_R


def memory_kernel(model, h, n_points):
    """Sampled memory kernel k(t) = force ACF / observable variance.

    Defined for stock models with theta > 0 and for the self-similar market
    (the theta = 1 stock on tau_r = tau_R): k = lambda1(2t/tau_R)/(tau_r tau_R).
    White-noise and theta = 0 kernels are delta spikes and cannot be sampled;
    the Lambert-type and functional models have no closed force ACF at all.
    """
    _check_grid(h, n_points)
    row = CATALOG[model.variant]
    row.require(model, "volterra")
    if not row.supports("closed"):  # the kernel is the closed family's force ACF
        raise CapabilityError(f"no closed-form kernel for {model.variant.value}")
    t = h * np.arange(n_points)
    vals = lambda1(2.0 * t / model.tau_R) / (model.corr_time * model.tau_R)
    return KernelSeries(h=h, values=vals)


def _check_grid(h, n_points):
    check_positive(h, "h")
    check_count(n_points, "n_points", 2)


def _fft_product(a, b, n):
    """First n coefficients of the series product a b (a may be one per row)."""
    size = _five_smooth(a.shape[-1] + b.shape[-1] - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[..., :n]


def _series_inverse(d, n):
    """First n coefficients of the power series 1/d(z), for d[0] != 0.

    Newton doubling: if d g = 1 + O(z^m), then g - g (d g - 1) is exact to
    O(z^2m), and only the new coefficients need the correction product.
    """
    g = np.array([1.0 / d[0]])
    while g.size < n:
        m = g.size
        m2 = min(2 * m, n)
        e = _fft_product(d[:m2], g, m2)[m:]
        g = np.concatenate([g, -_fft_product(g, e, m2 - m)])
    return g


def _transfer(k, h, n):
    """(1/D, A/D) over n >= 2 steps: the response to a unit right-hand side
    at step 0, and the unforced relaxation from r_0 = 1 (the ACF route)."""
    q = 0.25 * h * h
    kz = k[:n].copy()
    kz[1:] += k[: n - 1]  # (1 + z) K(z)
    d = 2.0 * q * kz
    d[:2] += (1.0 - q * k[0], -1.0 - q * k[0])
    a = q * kz
    a[0] += 1.0
    g = _series_inverse(d, n)
    hom = _fft_product(a, g, n)
    hom[0] = 1.0  # A(0) = D(0) exactly
    return g, hom


def propagate_acf(kernel, n_steps):
    """Relax dc/dt = -(k*c), c(0) = 1, over n_steps points in O(n log n);
    returns AcfSeries."""
    _check_grid(kernel.h, n_steps)
    if kernel.values.size < n_steps:
        raise InputError("kernel must cover the full propagation horizon")
    _, c = _transfer(kernel.values, kernel.h, n_steps)
    return AcfSeries(h=kernel.h, values=c)


def integrate_gle(kernel, forcing, r0=0.0):
    """Drive dR/dt = F - (k*R) for every path of a forcing ensemble.

    Each path is r0 times the unforced response A/D plus the trapezoid
    averages of its forcing convolved with 1/D (see the module docstring).
    Both series come from one O(n log n) transfer-function inverse shared by
    the whole ensemble; the forcing enters through one FFT convolution per
    path.  A zero kernel takes the same route and gives the cumulative
    trapezoid of the forcing to FFT roundoff.
    ``r0`` may be a scalar or a per-path array of initial values.  Returns
    a PathEnsemble of kind "return-rate" on the forcing's grid.
    """
    check_ensemble(forcing, "forcing")
    if abs(kernel.h - forcing.h) > 1e-12 * kernel.h:
        raise InputError("kernel and forcing must share one time step")
    f = forcing.paths
    n_paths, n_steps = f.shape
    if kernel.values.size < n_steps:
        raise InputError("kernel must cover the full integration horizon")
    h = kernel.h
    r0 = np.broadcast_to(np.asarray(r0, dtype=float), (n_paths,))

    u = 0.5 * h * (f[:, 1:] + f[:, :-1])  # U(z) from z^1 on
    g, hom = _transfer(kernel.values, h, n_steps)
    r = r0[:, None] * hom
    r[:, 1:] += _fft_product(u, g[:-1], n_steps - 1)
    return replace(forcing, paths=r, kind="return-rate")


# band cells 2 L h/(pi tau_R) of a fold on a grid of L, refused above the
# bound before any evaluation (stock theta = 0.01 at h = 0.125 and L = 2048
# spans 1.6e4 cells, built in about 1 ms; theta = 2e-4 spans 8.1e5, 0.07 s)
SPECTRUM_CELL_BOUND = 1e6


def _circulant_length(n_steps):
    """Grid length L simulate_stationary_ensemble synthesizes: the smallest
    even 5-smooth length >= n_steps (2048 for 2048, 2160 for 2049)."""
    return 2 * _five_smooth((n_steps + 1) // 2)


def _folded_spectrum(model, h, n):
    """Observable spectrum folded onto [0, pi/h], averaged over circulant cells.

    Sampling at step h aliases every frequency nu >= 0 onto [0, pi/h]:
    S_h(omega) = sum_m S(|omega + 2 pi m/h|).  The order-2n circulant has
    cells of width d = pi/(n h) centred on omega_k = k d, and the fold
    period 2 pi/h is exactly 2n cells, so unfolded cell j, [(j - 1/2) d,
    (j + 1/2) d] clipped to the band [0, 2/tau_R], lands on cell j mod 2n
    reflected onto 0..n.  Its mass, the difference of ``band_variance`` at
    its edges, makes each value the exact mean of S_h over its cell; cells
    0 and n are their own mirror images, so they count both signs of nu.
    Returns the SpectralDensity on omega_k, k = 0..n, that
    circulant_spectrum reads back point for point.  Raises InputError,
    before any evaluation, when the band spans over SPECTRUM_CELL_BOUND cells.
    """
    band = 2.0 / model.tau_R
    d = math.pi / (n * h)
    cells = band / d
    if cells > SPECTRUM_CELL_BOUND:
        raise InputError(
            f"folded spectrum too costly: a band of {band:.6g} spans {cells:.3g} band cells "
            f"at h = {h:.6g} on {n} points (bound {SPECTRUM_CELL_BOUND:.3g})")
    edges = np.clip((np.arange(math.ceil(cells + 0.5) + 1) - 0.5) * d, 0.0, band)
    mass = np.diff(band_variance(model, edges))
    cell = np.arange(mass.size) % (2 * n)
    sums = np.bincount(np.minimum(cell, 2 * n - cell), weights=mass, minlength=n + 1)
    sums[[0, n]] *= 2.0
    omega = np.pi * np.arange(n + 1) / (n * h)  # bit for bit circulant_spectrum's grid
    return SpectralDensity(omega=omega, values=sums * (math.pi / d))


def simulate_stationary_ensemble(model, h, n_steps, n_paths, seed):
    """Stationary return-rate ensemble of a white, self-similar or stock model.

    The model is a stationary Gaussian process, so its ACF is its whole law,
    and the self-similar and stock models have a band-limited observable
    spectrum on [0, 2/tau_R] (plus, for an ultra-light stock, theta > 2,
    the spectral line just above the band).  Each path is one exact circulant draw
    (``generate_colored``, streams keyed by ``seed``) of that spectrum
    folded onto [0, pi/h] and integrated exactly over the circulant's cells
    (``_folded_spectrum``), on the even 5-smooth grid L >= ``n_steps``; no
    force is synthesized, no memory equation is marched, and the sample is
    stationary from its first point.  The draw takes normals only for the
    cells inside the folded band (2K + 1 per path, K the band's last cell),
    all 2L once the band folds over the whole of [0, pi/h].  The line is
    added in place (``_add_spectral_line``), with stationary Gaussian
    cos/sin amplitudes on the ``spectral-line`` lane.

    Accuracy: the draw's covariance is exactly the circulant's, which
    differs from the model's ACF in two deterministic ways.  The circulant
    periodises the lag, so lag k also picks up the ACF near lag 2L - k;
    light tails decay slowest.  Integrating over cells of width pi/(L h)
    tapers lag k by about sinc(pi k/(2L)) (1% at k = 320 for L = 2048),
    and in exchange damps the periodic images, keeps the variance exact and
    resolves the near-singular band edge at theta ~ 2.  Against
    closed_form_acf on lags <= 320 with L = 2048 the circulant covariance is
    within 3e-4 for the self-similar model and stocks theta in
    {0.5, 1, 1.5, 3} at h = 0.125 .. 4, within 8.8e-3 at theta = 2 (5.0e-4
    at L = 8192), 1.7e-3 at 1.9, 4.7e-3 at 1.99 and 2.6e-3 at 2.01; cell
    centre samples err by up to 3.5e-2 at theta = 2.

    Memoryless models (white noise, a theta = 0 stock) have an exponential
    ACF and take its exact one-step recursion instead,
    ``market.simulate_white_returns`` at the model's correlation time and
    variance.  A band over SPECTRUM_CELL_BOUND cells (stock theta -> 0 at
    large h) raises InputError before any evaluation.  Returns a
    PathEnsemble of kind "return-rate" with ``n_steps`` samples per path.
    """
    _check_grid(h, n_steps)
    check_count(n_paths, "n_paths", 1)
    check_seed(seed)
    CATALOG[model.variant].require(model, "simulate")
    if model.memoryless:
        return simulate_white_returns(model.corr_time, model.variance, n_steps, h, n_paths, seed)
    n = _circulant_length(n_steps)
    target = _folded_spectrum(model, h, n)
    r = generate_colored(
        NoiseRequest(n_steps=n, n_paths=n_paths, seed=seed, target_spectrum=target, h=h)
    ).paths[:, :n_steps]
    _add_spectral_line(r, model, h, seed)
    return PathEnsemble(h=h, paths=np.ascontiguousarray(r), kind="return-rate", master_seed=seed)


def _add_spectral_line(r, model, h, seed):
    """Add the ultra-light stock's spectral line to the paths r in place:
    stationary Gaussian cos/sin amplitudes, path i's pair drawn on the
    ``spectral-line`` lane.  No-op for a model without a line.

    Each path adds its scaled cosine, then its scaled sine, through one
    reused row buffer: elementwise products whose bits do not depend on the
    path count, as a matrix product's can (BLAS takes another kernel for
    one row)."""
    atom = spectral_atom(model)
    if atom is None:
        return
    omega_line, weight = atom
    t = h * np.arange(r.shape[1])
    cos, sin = np.cos(omega_line * t), np.sin(omega_line * t)
    amp = np.sqrt(2.0 * weight * model.variance)
    phases = np.empty((r.shape[0], 2))
    for row, stream in zip(phases, path_streams(seed, "spectral-line", 0, r.shape[0])):
        stream.standard_normal(out=row)
    phases *= amp
    term = np.empty(r.shape[1])
    for row, (a, b) in zip(r, phases.tolist()):
        row += np.multiply(cos, a, out=term)
        row += np.multiply(sin, b, out=term)


# -- Lambert-type models: causal convolution identities -----------------------
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
    _check_grid(h, n_steps)
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
