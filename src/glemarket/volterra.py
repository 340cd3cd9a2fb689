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

The Lambert-type models' marches moved to ``lambert``: they start from a
Laplace-inverted window, and without them nothing here imports the
inverter.
"""

import inspect
import math
from dataclasses import replace

import numpy as np

from .errors import CapabilityError, InputError, check_count, check_grid, check_seed
from .market import simulate_white_returns
from .models import CATALOG, band_variance, spectral_atom
from .noise import NoiseRequest, generate_colored, path_streams
from .series import AcfSeries, KernelSeries, PathEnsemble, SpectralDensity, _five_smooth, check_ensemble
from .specfun import lambda1


def __getattr__(name):
    """``spectral_density``, imported from laplace when first read (PEP 562).

    Nothing here calls it, but perfbench's tracer patches
    glemarket.volterra.spectral_density and fails if the name is missing;
    read only then, it leaves laplace out of a simulation.  A wrapper the
    tracer left on laplace.spectral_density is looked through
    (``__wrapped__``) to laplace's own function, so uninstalling the tracer
    leaves no wrapper here.
    """
    if name == "spectral_density":
        from .laplace import spectral_density

        return inspect.unwrap(spectral_density)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def memory_kernel(model, h, n_points):
    """Sampled memory kernel k(t) = force ACF / observable variance.

    Defined for stock models with theta > 0 and for the self-similar market
    (the theta = 1 stock on tau_r = tau_R): k = lambda1(2t/tau_R)/(tau_r tau_R).
    White-noise and theta = 0 kernels are delta spikes and cannot be sampled;
    the Lambert-type and functional models have no closed force ACF at all.
    """
    check_grid(h, n_points)
    row = CATALOG[model.variant]
    row.require(model, "volterra")
    if not row.supports("closed"):  # the kernel is the closed family's force ACF
        raise CapabilityError(f"no closed-form kernel for {model.variant.value}")
    t = h * np.arange(n_points)
    vals = lambda1(2.0 * t / model.tau_R) / (model.corr_time * model.tau_R)
    return KernelSeries(h=h, values=vals)


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
    check_grid(kernel.h, n_steps)
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
    check_grid(h, n_steps)
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
