"""Independent high-precision oracles used to freeze expected values.

Everything here is deliberately brute force and shares no code with the
package under test: truncated power series summed in mpmath arithmetic,
bisection for zeros and for Lambert branches, the step-by-step O(n^2)
marches of the discrete evolution equation and of the Lambert-type
identities, and a per-time Euler-accelerated Laplace inverter.  The
special-function outputs are computed first and frozen as literals in the
test modules; the functions stay here so the frozen numbers can be
regenerated.  The marches and the inverter are cheap enough to run live
against the fast production routes.

The reference circulant sampler at the end shares the package's seed-lane
table (``noise.LANES``) and the contract it stands for: path i of a lane
draws from ``default_rng(SeedSequence(seed, spawn_key=(lane, i)))``, built
here by numpy itself (``path_stream``) while the package hashes whole
ranges of paths at once, so the two samplers can be compared draw for draw.
Its spectrum is either the package's closed-form fold or the midpoint-rule
fold (``midpoint_folded_spectrum``) the package used before it.

The audit command at the end (``cmd_audit_rowwise``) does share the
package's shapes and model construction: it is the CLI's table built and
printed row by row, so the column-built command must print and write the
same bytes.
"""

import csv
import math

import mpmath as mp
import numpy as np

from glemarket import cli, estimate, laplace, models, noise, volterra
from glemarket.errors import AccuracyError
from glemarket.series import SpectralDensity

mp.mp.dps = 60


def _series_dps(x):
    # the alternating series cancels ~0.87*x decimal digits at argument x
    return 60 + int(abs(float(x))) + 10


def j0_series(x):
    """J0 by its defining power series, summed exactly in mpmath."""
    with mp.workdps(_series_dps(x)):
        x = mp.mpf(x)
        q = -(x * x) / 4
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 1
        while True:
            term = term * q / (k * k)
            total += term
            if abs(term) < mp.mpf(10) ** (-50) * (1 + abs(total)):
                return +total
            k += 1
            if k > 5000:
                raise RuntimeError("series did not converge")


def j1_series(x):
    """J1 by its defining power series: (x/2) sum (-x^2/4)^k / (k! (k+1)!)."""
    with mp.workdps(_series_dps(x)):
        x = mp.mpf(x)
        q = -(x * x) / 4
        term = x / 2
        total = term
        k = 1
        while True:
            term = term * q / (k * (k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-50) * (1 + abs(total)):
                return +total
            k += 1
            if k > 5000:
                raise RuntimeError("series did not converge")


def bisect_zero(f, lo, hi, iters=200):
    """Plain bisection; f(lo) and f(hi) must bracket a sign change."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    flo = f(lo)
    if flo * f(hi) > 0:
        raise ValueError("no bracket")
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo + hi) / 2


def lambert_w0_bisect(x):
    """Principal Lambert branch by bisection of w e^w = x on w >= -1."""
    x = mp.mpf(x)
    f = lambda w: w * mp.e**w - x
    hi = mp.mpf(2)
    while f(hi) < 0:
        hi *= 2
    return bisect_zero(f, -1, hi)


def lambert_wm1_bisect(x):
    """Lower Lambert branch by bisection of w e^w = x on w <= -1."""
    x = mp.mpf(x)
    if not (-mp.exp(-1) <= x < 0):
        raise ValueError("wm1 domain")
    f = lambda w: w * mp.e**w - x
    lo = mp.mpf(-2)
    while f(lo) < 0:
        lo *= 2
    return bisect_zero(f, lo, -1)


def w0_of_exp_bisect(z):
    """W0(e^z) via bisection of w + ln w = z (w > 0), overflow free."""
    z = mp.mpf(z)
    f = lambda w: w + mp.log(w) - z
    hi = mp.mpf(2)
    while f(hi) < 0:
        hi *= 2
    return bisect_zero(f, mp.mpf(10) ** -40, hi)


def wm1_of_neg_exp_bisect(z):
    """-W-1(-e^-z) via bisection of v - ln v = z on v >= 1."""
    z = mp.mpf(z)
    f = lambda v: v - mp.log(v) - z
    hi = mp.mpf(2)
    while f(hi) < 0:
        hi *= 2
    return bisect_zero(f, 1, hi)


def fd_derivative(f, x, h):
    """Central finite difference, the oracle for derivative relations."""
    x, h = mp.mpf(x), mp.mpf(h)
    return (f(x + h) - f(x - h)) / (2 * h)


def integrate_gle_direct(k, h, f, r0=0.0):
    """The Crank-Nicolson/trapezoid update of dR/dt = F - (k*R), marched
    step by step for every row of the forcing f (O(n^2) per path).

    k holds the kernel samples, r0 a scalar or per-path initial value;
    returns the paths.  With f = 0 and r0 = 1 it is the ACF recurrence of
    dc/dt = -(k*c).
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    n_paths, n_steps = f.shape
    kr = k[::-1]
    L = k.size
    denom = 1.0 + 0.25 * h * h * k[0]
    r0 = np.broadcast_to(np.asarray(r0, dtype=float), (n_paths,))
    out = np.empty_like(f)
    for p in range(n_paths):
        r = out[p]
        r[0] = r0[p]
        current_i = 0.0
        for j in range(n_steps - 1):
            tail = 0.5 * k[j + 1] * r[0]
            if j >= 1:
                tail += np.dot(kr[L - 1 - j : L - 1], r[1 : j + 1])
            partial = h * tail
            r[j + 1] = (
                r[j] + 0.5 * h * (f[p, j] + f[p, j + 1]) - 0.5 * h * (current_i + partial)
            ) / denom
            current_i = partial + 0.5 * h * k[0] * r[j + 1]
    return out


# -- the step-by-step O(n^2) Lambert-type marches -----------------------------
# One full-history inner product per lag: the reference for the relaxed
# convolution in volterra.  The endpoint panel coefficients are recomputed
# here from their closed-form moments.

_EULER_GAMMA = 0.5772156649015329
_STARTUP = {
    # march -> (sign of the s ln s term, coefficient B of the linear term)
    "boltzmann": (-1.0, -_EULER_GAMMA),
    "differential": (1.0, -(2.0 - np.log(2.0) - _EULER_GAMMA)),
}


def _panel_coeffs(kind, hh, c1):
    sign, b = _STARTUP[kind]
    lh = np.log(hh)
    m0 = hh + sign * 0.5 * hh * hh * (lh - 0.5) + 0.5 * b * hh * hh
    m1 = 0.5 * hh * hh + sign * (hh**3 / 3.0) * (lh - 1.0 / 3.0) + b * hh**3 / 3.0
    return m0 - m1 / hh, m1 / hh - 0.5 * hh * c1


def boltzmann_march_direct(hh, c, start):
    """Fill c[start+1:] of t c = (1 - t/2)(c*c); c[:start+1] already known."""
    n = c.size
    t = hh * np.arange(n)
    gamma0, delta0 = _panel_coeffs("boltzmann", hh, c[1])
    for j in range(max(start + 1, 2), n):
        s1 = np.dot(c[1:j], c[j - 1 : 0 : -1])
        known = hh * s1 + 2.0 * delta0 * c[j - 1]
        half = 1.0 - 0.5 * t[j]
        c[j] = half * known / (t[j] - 2.0 * gamma0 * half)


def differential_march_direct(hh, c, q, start):
    """Fill c[start+1:] of t c = (c*c) + (c*(c*c)); c[:start+1] already known.
    q gets the (c*c) samples from the march relation on every lag from 1."""
    n = c.size
    t = hh * np.arange(n)
    gamma0, delta0 = _panel_coeffs("differential", hh, c[1])
    c[0] = 0.0  # the interior sums exclude lag zero
    for j in range(1, n):
        s1 = np.dot(c[1:j], c[j - 1 : 0 : -1])
        known = hh * s1 + 2.0 * delta0 * c[j - 1]
        if j > max(start, 1):
            s2 = np.dot(c[1:j], q[j - 1 : 0 : -1])
            c[j] = ((1.0 + gamma0) * known + hh * s2 + delta0 * q[j - 1]) / (
                t[j] - 2.0 * gamma0 * (1.0 + gamma0)
            )
        q[j] = 2.0 * gamma0 * c[j] + known
    c[0] = 1.0


# -- the per-time Euler-accelerated Bromwich inverter ---------------------------
# Each time gets its own line Re p = A/(2t) and a term count for its own
# horizon, so a uniform n-lag grid costs O(n^2) image points: the reference
# for the shared-contour inverter in laplace.


def euler_invert_at(shape, scale, freq_scale, times, a=23.0, base=30, avg=12):
    """f(t) ~ (e^(A/2)/t) [Re F(A/2t)/2 + sum_k (-1)^k Re F((A + 2 i pi k)/(2t))],
    with F = scale * shape, the partial sums after base + 1.8 freq_scale t/pi
    terms binomially averaged over avg + 1 of them.  Errors are about 1e-10;
    base = 15 leaves 4e-9 at the earliest times of a 0.05 grid."""
    weights = np.array([math.comb(avg, i) for i in range(avg + 1)]) / 2.0**avg
    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        n0 = base + int(np.ceil(1.8 * freq_scale * t / np.pi))
        k = np.arange(n0 + avg + 1)
        terms = scale * np.real(shape((0.5 * a + 1j * np.pi * k) / t))
        terms[1::2] *= -1.0
        terms[0] *= 0.5
        out.append((np.cumsum(terms)[n0:] @ weights) * np.exp(0.5 * a) / t)
    return np.array(out)


# -- the full-draw circulant sampler ----------------------------------------------
# Every path draws all m = 2n normals of its order-m circulant, zero
# eigenvalues included, one inverse real FFT per path: the reference for
# noise.generate_colored, which draws only the normals that meet a nonzero
# eigenvalue.


def path_stream(seed, lane, i):
    """Random generator of path ``i`` on the named seed lane, one
    SeedSequence per path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(noise.LANES[lane], i)))


def add_spectral_line(r, model, h, seed):
    """Add the ultra-light stock's spectral line to the paths r in place, one
    path at a time (nothing for a model without one): path i's cos/sin
    amplitudes are the two normals of ``path_stream(seed, "spectral-line",
    i)``, scaled by sqrt(2 weight variance); the path adds the cosine term,
    then the sine term."""
    atom = models.spectral_atom(model)
    if atom is None:
        return
    omega_line, weight = atom
    t = h * np.arange(r.shape[1])
    amp = np.sqrt(2.0 * weight * model.variance)
    for i, row in enumerate(r):
        a, b = path_stream(seed, "spectral-line", i).standard_normal(2) * amp
        row += a * np.cos(omega_line * t)
        row += b * np.sin(omega_line * t)


def spectral_line(model, h, n_steps, n_paths, seed):
    """The ultra-light stock's spectral line on each of ``n_paths`` paths
    (zeros for a model without one), ``add_spectral_line`` on zero paths."""
    line = np.zeros((n_paths, n_steps))
    add_spectral_line(line, model, h, seed)
    return line


def colored_full_draw(lam, n_paths, seed):
    """Paths of n = lam.size - 1 samples with circulant half-spectrum lam.

    Path i fills (re_1, im_1, ..., re_n, im_n) with the m normals of
    ``path_stream(seed, "colored-force", i)``, moves the last one to
    re_0, zeroes im_0 and im_n, scales by sqrt(lam m) (sqrt(lam m / 2) for
    0 < k < n) and takes the inverse real FFT of order m.
    """
    n = lam.size - 1
    m = 2 * n
    weight = np.sqrt(lam * m)
    weight[1:n] *= np.sqrt(0.5)
    paths = np.empty((n_paths, n))
    for i in range(n_paths):
        spec = np.empty(n + 1, dtype=complex)
        flat = spec.view(float)
        path_stream(seed, "colored-force", i).standard_normal(out=flat[2:])
        flat[0] = flat[-1]
        flat[1] = flat[-1] = 0.0
        spec *= weight
        paths[i] = np.fft.irfft(spec, m)[:n]
    return paths


def midpoint_folded_spectrum(model, h, n, per_cell=16):
    """volterra._folded_spectrum by the midpoint rule: each circulant cell's
    value is the mean of the model's spectral density at ``per_cell`` (even)
    midpoints of the cell, not its exact integral.  Cell j of width
    d = pi/(n h) takes the midpoints nu in [(j - 1/2) d, (j + 1/2) d), folded
    onto 0..n like the package's cells, with cells 0 and n doubled."""
    band = 2.0 / model.tau_R
    step = math.pi / (n * h * per_cell)
    j = np.arange(math.ceil(band / step))
    s = laplace.spectral_density(models.observable_evaluator(model), (j + 0.5) * step).values
    cell = (j + per_cell // 2) // per_cell % (2 * n)
    sums = np.bincount(np.minimum(cell, 2 * n - cell), weights=s, minlength=n + 1)
    sums[[0, n]] *= 2.0
    omega = np.pi * np.arange(n + 1) / (n * h)
    return SpectralDensity(omega=omega, values=sums / per_cell)


def stationary_ensemble_full_draw(model, h, n_steps, n_paths, seed, fold=volterra._folded_spectrum):
    """volterra.simulate_stationary_ensemble's paths with the full draw:
    the folded spectrum ``fold(model, h, L)`` (the production fold unless
    given), the reference draw and spectral line."""
    n = volterra._circulant_length(n_steps)
    request = noise.NoiseRequest(
        n_steps=n,
        n_paths=n_paths,
        seed=seed,
        target_spectrum=fold(model, h, n),
        h=h,
    )
    r = colored_full_draw(noise.circulant_spectrum(request), n_paths, seed)[:, :n_steps]
    add_spectral_line(r, model, h, seed)
    return np.ascontiguousarray(r)


# -- the memoryless return process, the ensemble ACF and the memory-exponent
# fit, as they were before their fast forms: a step-by-step recursion, an
# ACF whose every block pads and allocates its own transforms, and the fit
# that polishes every coarse theta and every descent candidate.  The fit
# reuses the package's model curves, objective and golden section, so what
# it checks is the search: which thetas are polished, in what order, and
# which one wins


def white_returns_loop(tau_R, variance_R, n_steps, h, n_paths, seed):
    """market.simulate_white_returns's paths by the one-step recursion
    r_{n+1} = a r_n + sqrt(<R^2>(1 - a^2)) Z, one step at a time, path i
    drawing from ``path_stream(seed, "white-return", i)``."""
    alpha = np.exp(-h / tau_R)
    scale = np.sqrt(variance_R * (1.0 - alpha * alpha))
    z = np.stack([path_stream(seed, "white-return", i).standard_normal(n_steps)
                  for i in range(n_paths)])
    paths = np.empty((n_paths, n_steps))
    paths[:, 0] = np.sqrt(variance_R) * z[:, 0]
    z *= scale
    for n in range(1, n_steps):
        paths[:, n] = alpha * paths[:, n - 1] + z[:, n]
    return paths


def ensemble_acf_unbuffered(ensemble, max_lag):
    """estimate.ensemble_acf's (values, variance, se) with fresh arrays for
    every block of estimate._ACF_BLOCK paths: rfft pads the block to the
    FFT length itself and irfft allocates its output."""
    n = ensemble.n_steps
    size = volterra._five_smooth(n + max_lag)
    rows = np.empty((ensemble.n_paths, max_lag + 1))
    for lo in range(0, ensemble.n_paths, estimate._ACF_BLOCK):
        spec = np.fft.rfft(ensemble.paths[lo : lo + estimate._ACF_BLOCK], size, axis=1)
        acov = np.fft.irfft(spec * np.conj(spec), size, axis=1)
        rows[lo : lo + estimate._ACF_BLOCK] = acov[:, : max_lag + 1] / n
    mean = rows.mean(axis=0)
    if ensemble.n_paths > 1:
        se = rows.std(axis=0, ddof=1) / np.sqrt(ensemble.n_paths)
    else:
        se = np.zeros(max_lag + 1)
    return mean / mean[0], mean[0], se / mean[0]


def _profile_tau_unpruned(lags, data, theta, tau_hint, span=0.15, points=13):
    model = estimate.model_curve(theta)
    taus = tau_hint * np.logspace(-span, span, points)
    scan = [estimate._objective(lags, data, tau, model) for tau in taus]
    j = int(np.argmin(scan))
    ratio = taus[1] / taus[0]
    return estimate._refine_tau(lags, data, model, taus[j] / ratio, taus[j] * ratio)


def fit_theta_unpruned(acf, lag_window):
    """estimate.fit_theta with no pruning: every coarse theta gets a
    point-by-point tau_r scan and a golden polish, in ascending order, and
    so does every candidate of the lattice descent."""
    n_fit = min(int(np.floor(lag_window / acf.h)), len(acf) - 1)
    lags = acf.h * np.arange(n_fit + 1)
    data = acf.values[: n_fit + 1]
    positive = np.nonzero(data <= 0.0)[0]
    head = data[: positive[0]] if positive.size else data
    tau_scale = acf.h * (head.sum() - 0.5)
    tau_scale = min(max(tau_scale, lags[-1] / estimate._U_MAX, acf.h), lags[-1])

    best = (np.inf, 0.0, tau_scale)
    for theta in np.arange(0.0, 4.0 + 1e-9, 0.2):
        tau_j, f_j = _profile_tau_unpruned(lags, data, theta, tau_scale, span=1.2, points=97)
        if f_j < best[0]:
            best = (f_j, theta, tau_j)
    f, theta, tau = best

    for step in (0.1, 0.05, 0.025, estimate._THETA_STEP):
        improved = True
        while improved:
            improved = False
            for cand in (theta - step, theta + step):
                cand = max(cand, 0.0)
                if cand == theta:
                    continue
                tau_c, f_c = _profile_tau_unpruned(lags, data, cand, tau)
                if f_c < f:
                    theta, tau, f = cand, tau_c, f_c
                    improved = True
                    break

    f_plus = estimate._objective(lags, data, tau, estimate.model_curve(theta + 0.1))
    f_minus = estimate._objective(lags, data, tau, estimate.model_curve(max(theta - 0.1, 0.0)))
    curvature = abs(f_plus + f_minus - 2.0 * f)
    floor = 1e-18 * float(np.mean(data * data))
    return estimate.FitReport(
        tau_r=float(tau),
        theta=float(theta),
        variance=acf.variance,
        residual=float(np.sqrt(f)),
        stock_class=models.classify_theta(theta),
        lags_used=n_fit + 1,
        degenerate=bool(curvature < 1e-6 * max(f, floor)),
        window_ok=bool(lags[-1] >= 3.0 * tau),
    )


if __name__ == "__main__":
    print("J0(1)       =", mp.nstr(j0_series(1), 17))
    print("J1(1)       =", mp.nstr(j1_series(1), 17))
    print("J1(2)       =", mp.nstr(j1_series(2), 17))
    print("J0(20)      =", mp.nstr(j0_series(20), 17))
    print("J1(20)      =", mp.nstr(j1_series(20), 17))
    print("J0(120.25)  =", mp.nstr(j0_series("120.25"), 17))
    print("J1(199.5)   =", mp.nstr(j1_series("199.5"), 17))
    print("J0(17)      =", mp.nstr(j0_series(17), 17))
    print("J1(17)      =", mp.nstr(j1_series(17), 17))
    print("j0 zero 1   =", mp.nstr(bisect_zero(j0_series, 2, 3), 17))
    print("j1 zero 1   =", mp.nstr(bisect_zero(j1_series, 3, 4.5), 17))
    print("W0(1)       =", mp.nstr(lambert_w0_bisect(1), 17))
    print("W0(e)       =", mp.nstr(lambert_w0_bisect(mp.e), 17))
    print("Wm1(-0.1)   =", mp.nstr(lambert_wm1_bisect("-0.1"), 17))
    print("Wm1(-0.25)  =", mp.nstr(lambert_wm1_bisect("-0.25"), 17))
    print("W0(e^11)    =", mp.nstr(w0_of_exp_bisect(11), 17))
    print("v: v-lnv=2-ln2+1 =", mp.nstr(wm1_of_neg_exp_bisect(3 - mp.log(2)), 17))
    print("W0(0.5)     =", mp.nstr(lambert_w0_bisect("0.5"), 17))
    print("W0(-0.25)   =", mp.nstr(lambert_w0_bisect("-0.25"), 17))


def cmd_audit_rowwise(args):
    """``cli.cmd_audit`` as a loop over rows: each row's cells are formatted
    one by one and printed with one call, the CSV is written row by row
    through csv.writer, and the worst residual is parsed back from the
    printed cells.  No-converge rows are the points the ``_solvable`` mask
    leaves out; the rest of each grid is one identity_residual call.  It calls
    the mask, the shapes and ``identity_residual`` through ``cli``, so a test
    that patches them there patches this loop too."""
    model = cli._build_model(args)
    tolerance = args.tolerance
    scale = 1.0 / model.corr_time
    p_real = scale * np.logspace(-2.0, 2.0, args.n_real)
    grids = [p_real]
    if args.n_complex > 0:
        rng = np.random.default_rng(cli._resolved_seed(args))
        magnitude = scale * 10.0 ** rng.uniform(-2.0, 2.0, size=(args.n_complex, 2))
        signs = rng.choice([-1.0, 1.0], size=args.n_complex)
        grids.append(magnitude[:, 0] + 1j * (signs * magnitude[:, 1]))
    rows = []
    for points in grids:
        solvable = cli._solvable(model, points)
        solved = iter(cli.identity_residual(model, points[solvable]) if solvable.any() else ())
        residuals = [next(solved) if ok else None for ok in solvable]
        for p, residual in zip(points, residuals):
            status = ("no-converge" if residual is None
                      else "ok" if residual <= tolerance else "FAIL")
            cell = "nan" if residual is None else repr(float(residual))
            rows.append(["closure", repr(float(p.real)), repr(float(p.imag)), cell, status])
    if model.variant is models.Variant.DIFFERENTIAL:
        fd_tol = max(tolerance, 10.0 * args.fd_step * args.fd_step)
        u = model.tau_R * p_real
        du = args.fd_step * np.maximum(u, 1.0)
        gp = cli.force_shape(model, (u + du) / model.tau_R)
        gm = cli.force_shape(model, np.maximum(u - du, 0.0) / model.tau_R)
        residuals = np.abs((gp - gm) / (2.0 * du) - cli.observable_shape(model, p_real))
        for p, residual in zip(p_real, residuals):
            rows.append(["derivative", repr(float(p)), "0.0", repr(float(residual)),
                         "ok" if residual <= fd_tol else "FAIL"])
    failures = sum(row[4] != "ok" for row in rows)

    header = ["check", "p_real", "p_imag", "residual", "status"]
    print(",".join(header))
    for row in rows:
        print(",".join(row))
    if args.out is not None:
        path = cli._out_path(args, args.out)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        print(f"wrote {path}")
    worst = max((float(r[3]) for r in rows if r[3] != "nan"), default=0.0)
    print(f"checked {len(rows)} points, worst residual = {worst!r}, "
          f"tolerance = {args.tolerance!r}, failures = {failures}")
    if failures:
        raise AccuracyError(f"{failures} audit rows exceed tolerance", achieved=worst)
    return 0
