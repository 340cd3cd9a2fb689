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

The two Lambert-type models have no complex-plane image, but their images
obey first-order ODEs in p, which translate into causal convolution
identities in time (written in units of tau_R; the weighted Boltzmann
integral collapses by the s -> t - s substitution):

    Boltzmann:     t c(t) = (1 - t/2) (c*c)(t)
    differential:  t c(t) = (c*c)(t) + (c*c*c)(t)

Both determine c(t) stepwise from earlier values.  The lag-zero behavior
is logarithmic, c = 1 -+ v ln v + B v with v = t/tau_R (minus/B = -gamma
for Boltzmann, plus/B = -(2 - ln 2 - gamma) for the differential model).
Two consequences for the discretization:

* Near t = 0 the identities are asymptotically scale-invariant, so a
  uniform-step march started at the corner locks onto a slightly wrong
  self-similar sequence no matter how small h is.  The startup window
  [0, STARTUP_SPAN tau_R] is therefore filled by real-axis Gaver-Stehfest
  inversion of the model image (these models are exactly the real-axis-only
  ones), and the march takes over beyond it.
* The convolution panels touching either endpoint see the logarithmic
  curvature of c; they are integrated in product form against the local
  behavior a(s) above, with exact panel moments, instead of plain
  trapezoid panels that would lose an O(h^2 ln h) slice per step.
"""

import math

import numpy as np

from .errors import CapabilityError, InputError
from .laplace import spectral_density
from .models import ModelSpec, Variant, force_evaluator, observable_shape, spectral_atom
from .noise import NoiseRequest, _check_counts, _check_seed, generate_colored, path_stream
from .series import AcfSeries, KernelSeries, PathEnsemble
from .specfun import lambda1

EULER_GAMMA = 0.5772156649015329
STARTUP_SPAN = 0.25  # in units of tau_R
STEHFEST_DEGREE = 16


def memory_kernel(model, h, n_points):
    """Sampled memory kernel k(t) = force ACF / observable variance.

    Defined for the self-similar market model, k = lambda1(2t/tau_R)/tau_R^2,
    and for stock models with theta > 0, k = lambda1(2t/tau_R)/(tau_r tau_R).
    White-noise and theta = 0 kernels are delta spikes and cannot be sampled;
    the Lambert-type and functional models have no closed force ACF at all.
    """
    _check_grid(h, n_points)
    t = h * np.arange(n_points)
    v = model.variant
    if model.memoryless:
        raise CapabilityError(
            "memoryless force: the kernel is a delta spike, not a sampleable series"
        )
    if v is Variant.LINEAR_SELF_SIMILAR:
        vals = lambda1(2.0 * t / model.tau_R) / model.tau_R**2
    elif v is Variant.STOCK_THETA:
        vals = lambda1(2.0 * t / model.tau_R) / (model.tau_r * model.tau_R)
    else:
        raise CapabilityError(f"no closed-form kernel for {v.value}")
    return KernelSeries(h=h, values=vals, label=f"{v.value} kernel")


def _check_grid(h, n_points):
    if not (np.isfinite(h) and h > 0):
        raise InputError("h must be positive and finite")
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 2):
        raise InputError("n_points must be an integer >= 2")


def _fft_product(a, b, n):
    """First n coefficients of the series product a b (a may be one per row)."""
    size = 1 << int(np.ceil(np.log2(a.shape[-1] + b.shape[-1] - 1)))
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


def propagate_acf(kernel, n_steps, variance=1.0):
    """Relax dc/dt = -(k*c), c(0) = 1, over n_steps points in O(n log n);
    returns AcfSeries."""
    _check_grid(kernel.h, n_steps)
    if kernel.values.size < n_steps:
        raise InputError("kernel must cover the full propagation horizon")
    _, c = _transfer(kernel.values, kernel.h, n_steps)
    return AcfSeries(h=kernel.h, values=c, variance=variance)


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
    if not isinstance(forcing, PathEnsemble):
        raise InputError("forcing must be a PathEnsemble")
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
    return PathEnsemble(
        h=forcing.h,
        paths=r,
        kind="return-rate",
        master_seed=forcing.master_seed,
        stream_indices=forcing.stream_indices,
    )


def _generated_steps(model, h, n_steps, burn_in):
    """Grid length simulate_stationary_ensemble generates: the published
    window plus burn-in, rounded up to a power of two."""
    if burn_in is None:
        burn_in = int(np.ceil(8.0 * model.tau_R / h))
    elif not (isinstance(burn_in, (int, np.integer)) and burn_in >= 0):
        raise InputError("burn_in must be a nonnegative integer")
    return 1 << max(1, int(np.ceil(np.log2(n_steps + burn_in))))


def simulate_stationary_ensemble(model, h, n_steps, n_paths, seed, burn_in=None):
    """Stationary return-rate ensemble for a model with a sampleable kernel.

    Composes the layers below into one reproducible pipeline:

    1. colored Gaussian force drawn from the model's band-limited force
       spectrum (exact circulant synthesis, streams keyed by ``seed``),
    2. memory-kernel integration of the stochastic evolution equation,
       started from rest and warmed up for ``burn_in`` steps (default:
       eight correlation times of the force band) before the published
       window begins,
    3. for ultra-light stocks (theta > 2): the undamped harmonic that the
       band-limited force can never populate.  Starting from rest leaves a
       never-decaying switch-on excitation in that mode, so its cos/sin
       span is projected out of each path and re-synthesized with proper
       stationary Gaussian amplitudes on an independent stream lane.

    Supports the self-similar market and stock models with theta > 0;
    memoryless cases (white noise, theta = 0) have exact one-step updates
    in the market module instead.  Returns a PathEnsemble of kind
    "return-rate" with ``n_steps`` samples per path, stationary from the
    first sample.
    """
    _check_grid(h, n_steps)
    _check_counts(n_steps, n_paths)
    _check_seed(seed)
    if model.memoryless:
        raise CapabilityError(
            "memoryless force: use simulate_white_returns for exact sampling"
        )
    n_gen = _generated_steps(model, h, n_steps, burn_in)
    kernel = memory_kernel(model, h, n_gen)
    omega = np.linspace(0.0, 2.0 / model.tau_R, 2001)
    sd = spectral_density(force_evaluator(model), omega)
    force = generate_colored(
        NoiseRequest(n_steps=n_gen, n_paths=n_paths, seed=seed, target_spectrum=sd, h=h)
    )
    r = integrate_gle(kernel, force).paths[:, n_gen - n_steps :]

    atom = spectral_atom(model) if model.variant is Variant.STOCK_THETA else None
    if atom is not None:
        omega_line, weight = atom
        t = h * np.arange(n_steps)
        basis = np.stack([np.cos(omega_line * t), np.sin(omega_line * t)], axis=1)
        # least-squares removal of the switch-on artifact (per path)
        coef = np.linalg.solve(basis.T @ basis, basis.T @ r.T)
        r = r - (basis @ coef).T
        amp = np.sqrt(2.0 * weight * model.variance)
        phases = np.array(
            [path_stream(seed, "spectral-line", i).standard_normal(2) for i in range(n_paths)]
        )
        r = r + amp * (phases @ basis.T)

    return PathEnsemble(
        h=h,
        paths=np.ascontiguousarray(r),
        kind="return-rate",
        master_seed=seed,
        stream_indices=tuple(range(n_paths)),
    )


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


def _stehfest_weights(degree):
    half = degree // 2
    w = np.empty(degree)
    for k in range(1, degree + 1):
        s = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            s += (
                j**half
                * math.factorial(2 * j)
                / (
                    math.factorial(half - j)
                    * math.factorial(j)
                    * math.factorial(j - 1)
                    * math.factorial(k - j)
                    * math.factorial(2 * j - k)
                )
            )
        w[k - 1] = (-1.0) ** (k + half) * s
    return w


def _stehfest_invert(image, times):
    """Real-axis Gaver-Stehfest inversion of image(p) at strictly positive times."""
    w = _stehfest_weights(STEHFEST_DEGREE)
    k = np.arange(1, STEHFEST_DEGREE + 1)
    p = np.log(2.0) * np.outer(1.0 / times, k)
    vals = np.asarray(image(p.ravel())).reshape(p.shape)
    return (np.log(2.0) / times) * (vals @ w)


def _panel_coeffs(variant, hh, c1):
    sign, b = _STARTUP[variant]
    m0, m1 = _log_moments(hh, sign, b)
    gamma0 = m0 - m1 / hh
    delta0 = m1 / hh - 0.5 * hh * c1
    return gamma0, delta0


def _boltzmann_march(hh, c, start):
    """Fill c[start+1:] of t c = (1 - t/2)(c*c); c[:start+1] already known."""
    n = c.size
    t = hh * np.arange(n)
    gamma0, delta0 = _panel_coeffs(Variant.BOLTZMANN, hh, c[1])
    for j in range(max(start + 1, 2), n):
        s1 = np.dot(c[1:j], c[j - 1 : 0 : -1])
        known = hh * s1 + 2.0 * delta0 * c[j - 1]
        half = 1.0 - 0.5 * t[j]
        c[j] = half * known / (t[j] - 2.0 * gamma0 * half)


def _differential_march(hh, c, q, start):
    """Fill c[start+1:] of t c = (c*c) + (c*(c*c)); q holds (c*c) samples."""
    n = c.size
    t = hh * np.arange(n)
    gamma0, delta0 = _panel_coeffs(Variant.DIFFERENTIAL, hh, c[1])
    for j in range(max(start + 1, 2), n):
        s1 = np.dot(c[1:j], c[j - 1 : 0 : -1])
        s2 = np.dot(c[1:j], q[j - 1 : 0 : -1])
        known = hh * s1 + 2.0 * delta0 * c[j - 1]
        c[j] = ((1.0 + gamma0) * known + hh * s2 + delta0 * q[j - 1]) / (
            t[j] - 2.0 * gamma0 * (1.0 + gamma0)
        )
        q[j] = 2.0 * gamma0 * c[j] + known


def _lambert_type_acf(model, h, n_steps, variant):
    if model.variant is not variant:
        raise InputError(f"model must be the {variant.value} variant")
    _check_grid(h, n_steps)
    hh = h / model.tau_R
    head = min(n_steps - 1, max(4, int(np.ceil(STARTUP_SPAN / hh))))
    t_head = hh * np.arange(1, head + 1)

    def shape(u):
        # normalized image at unit-lag-time argument u = shape at p = u/tau_R
        return observable_shape(model, u / model.tau_R)

    c = np.empty(n_steps)
    c[0] = 1.0
    c[1 : head + 1] = _stehfest_invert(shape, t_head)
    if variant is Variant.BOLTZMANN:
        _boltzmann_march(hh, c, head)
    else:

        def shape_squared(u):
            return shape(u) ** 2

        q = np.zeros(n_steps)
        q[1 : head + 1] = _stehfest_invert(shape_squared, t_head)
        _differential_march(hh, c, q, head)
    return AcfSeries(h=h, values=c, variance=model.variance)


def boltzmann_acf(model, h, n_steps):
    """Normalized ACF of the Boltzmann-statistics model by causal marching.

    The underlying identity forces an exact zero at lag 2 tau_R and a small
    negative tail just beyond it.
    """
    return _lambert_type_acf(model, h, n_steps, Variant.BOLTZMANN)


def differential_acf(model, h, n_steps):
    """Normalized ACF of the differential-closure model by causal marching."""
    return _lambert_type_acf(model, h, n_steps, Variant.DIFFERENTIAL)
