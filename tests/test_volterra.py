"""Time-domain evolution tests: kernel propagation, stochastic integration,
and the causal convolution identities of the Lambert-type models."""

import tracemalloc

import numpy as np
import pytest

from glemarket import volterra
from glemarket.errors import CapabilityError, InputError
from glemarket.laplace import invert, invert_at
from glemarket.market import simulate_white_returns
from glemarket.models import (ModelSpec, closed_form_acf, observable_evaluator, observable_shape,
                              spectral_atom)
from glemarket.noise import NoiseRequest, circulant_spectrum
from glemarket.series import KernelSeries, PathEnsemble
from glemarket.specfun import bessel_j0, lambda1
from glemarket.volterra import (
    boltzmann_acf,
    differential_acf,
    _circulant_length,
    _folded_spectrum,
    _series_inverse,
    integrate_gle,
    memory_kernel,
    propagate_acf,
    simulate_stationary_ensemble,
)
from oracles import (
    boltzmann_march_direct,
    differential_march_direct,
    integrate_gle_direct,
    midpoint_folded_spectrum,
)

# High-precision inversion references for the Lambert-type ACFs
# (real-axis Gaver-Stehfest at 120+ digits, degree 28-40 cross-checked;
# lag in units of tau_R).  The Boltzmann ACF crosses zero exactly at
# lag 2 and has a small negative lobe just beyond.
BOLTZ_REF = {
    0.2: 1.2128481727605,
    0.5: 0.96788289807657,
    1.0: 0.36787944109496,
    1.5: 0.068524587927,
    2.2: -0.00335913795367,
    2.5: -0.00234481797631,
}
DIFF_REF = {
    0.2: 0.60781540314053,
    0.5: 0.41510749742059,
    1.0: 0.27067056647323,
    1.5: 0.19460869331856,
    2.0: 0.14652511110987,
    3.0: 0.089235078359991,
}
FIRST_ZERO = 1.915852985  # leading zero of the self-similar ACF, 2t/tau = 3.8317


def pl_transform(acf, p):
    """Laplace transform of the piecewise-linear interpolant of an ACF."""
    h = acf.h
    c = acf.values
    x = p * h
    ex = np.exp(-x)
    w0 = (1.0 - (1.0 - ex) / x) / p
    w1 = ((1.0 - ex) / x - ex) / p
    e = np.exp(-p * h * np.arange(c.size - 1))
    return float(np.sum(e * (c[:-1] * w0 + c[1:] * w1)))


# -- memory kernels ---------------------------------------------------------


def test_self_similar_kernel_values():
    m = ModelSpec.linear_self_similar(tau_R=2.0)
    k = memory_kernel(m, h=0.1, n_points=11)
    assert k.values[0] == pytest.approx(0.25)  # 1/tau_R^2
    assert np.allclose(k.values, lambda1(2.0 * k.lags / 2.0) / 4.0)


def test_stock_kernel_values():
    m = ModelSpec.stock_theta(tau_r=0.5, theta=2.0)  # tau_R = 1.0
    k = memory_kernel(m, h=0.1, n_points=11)
    assert k.values[0] == pytest.approx(2.0)  # 1/(tau_r tau_R)
    assert np.allclose(k.values, lambda1(2.0 * k.lags) / 0.5)


@pytest.mark.parametrize(
    "model",
    [
        ModelSpec.white_noise(tau_R=1.0),
        ModelSpec.stock_theta(tau_r=1.0, theta=0.0),
        ModelSpec.boltzmann(tau_R=1.0),
        ModelSpec.scaling(tau_r=1.0, theta=2.0),
    ],
)
def test_kernel_refusals(model):
    with pytest.raises(CapabilityError):
        memory_kernel(model, h=0.1, n_points=8)


def test_kernel_grid_validation():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    with pytest.raises(InputError):
        memory_kernel(m, h=0.0, n_points=8)
    with pytest.raises(InputError):
        memory_kernel(m, h=0.1, n_points=1)


# -- deterministic propagation ----------------------------------------------


def test_kernel_route_matches_closed_acf():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    h, n = 1.0 / 200, 2001  # [0, 10 tau_R]
    acf = propagate_acf(memory_kernel(m, h, n), n)
    assert np.max(np.abs(acf.values - lambda1(2.0 * acf.lags))) < 2e-5
    # locate the leading zero by linear crossing
    i = np.where(np.diff(np.sign(acf.values)) < 0)[0][0]
    z = acf.lags[i] + acf.values[i] * h / (acf.values[i] - acf.values[i + 1])
    assert abs(z - FIRST_ZERO) < 1e-4


def test_kernel_route_stock_ultralight():
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    h, n = 1.0 / 200, 2001
    acf = propagate_acf(memory_kernel(m, h, n), n)
    assert np.max(np.abs(acf.values - bessel_j0(acf.lags))) < 1e-5


def test_kernel_route_second_order_convergence():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    errs = {}
    for nr in (50, 100):
        h, n = 1.0 / nr, 10 * nr + 1
        acf = propagate_acf(memory_kernel(m, h, n), n)
        errs[nr] = np.max(np.abs(acf.values - lambda1(2.0 * acf.lags)))
    assert 3.5 < errs[50] / errs[100] < 4.5


def test_propagation_validation():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    k = memory_kernel(m, h=0.1, n_points=8)
    with pytest.raises(InputError):
        propagate_acf(k, 9)  # kernel shorter than the horizon


# -- stochastic integration ---------------------------------------------------


def zero_kernel(h, n):
    return KernelSeries(h=h, values=np.zeros(n))


def test_zero_kernel_is_cumulative_trapezoid():
    # the memoryless limit runs through the transfer function too
    h = 0.25
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 33))
    pe = PathEnsemble(h=h, paths=f, kind="force")
    r = integrate_gle(zero_kernel(h, 33), pe, r0=1.5)
    want = 1.5 + np.concatenate(
        [np.zeros((2, 1)), np.cumsum(0.5 * h * (f[:, 1:] + f[:, :-1]), axis=1)],
        axis=1,
    )
    assert np.max(np.abs(r.paths - want)) < 1e-14


def test_fft_combine_matches_direct_recurrence():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=(3, 64))
    pe = PathEnsemble(h=0.05, paths=f, kind="force")
    k = memory_kernel(m, 0.05, 64)
    r0 = np.array([0.3, -1.0, 2.0])
    ra = integrate_gle(k, pe, r0=r0)
    rb = integrate_gle_direct(k.values, 0.05, f, r0=r0)
    assert np.max(np.abs(ra.paths - rb)) < 1e-12
    assert ra.kind == "return-rate"


ORACLE_MODELS = [
    ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=3.0),  # ultra-light: undamped line
    ModelSpec.linear_self_similar(tau_R=2.0),
]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=["stock0.5", "stock1", "stock3", "selfsim"])
def test_transfer_route_matches_quadratic_march(model):
    h, n = 0.125, 2048
    k = memory_kernel(model, h, n)
    rng = np.random.default_rng(17)
    f = rng.normal(size=(2, n))
    r0 = np.array([0.0, 0.7])
    fast = integrate_gle(k, PathEnsemble(h=h, paths=f, kind="force"), r0=r0)
    assert np.max(np.abs(fast.paths - integrate_gle_direct(k.values, h, f, r0=r0))) < 1e-12
    acf = propagate_acf(k, n)
    march = integrate_gle_direct(k.values, h, np.zeros(n), r0=1.0)[0]
    assert np.max(np.abs(acf.values - march)) < 1e-12


@pytest.mark.parametrize("n", [1000, 4097])
@pytest.mark.parametrize("model", ORACLE_MODELS[2:], ids=["stock3", "selfsim"])
def test_series_inverse_at_uneven_lengths(model, n):
    # D(z) of the update, built from its definition; lengths that are not
    # powers of two end the Newton doubling on a partial step
    h = 0.125
    k = memory_kernel(model, h, n).values
    d = np.zeros(n)
    d[0], d[1] = 1.0, -1.0
    half = k.copy()
    half[0] *= 0.5
    d += 0.5 * h * h * half
    d[1:] += 0.5 * h * h * half[:-1]
    g = _series_inverse(d, n)
    assert g.size == n
    unit = np.zeros(n)
    unit[0] = 1.0
    assert np.max(np.abs(np.convolve(d, g)[:n] - unit)) < 1e-13


def test_unforced_relaxation_reproduces_acf_route():
    # with F = 0 and r0 = 1 the update is exactly the ACF recurrence
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    h, n = 1.0 / 200, 801
    k = memory_kernel(m, h, n)
    quiet = PathEnsemble(h=h, paths=np.zeros((1, n)), kind="force")
    r = integrate_gle(k, quiet, r0=1.0)
    acf = propagate_acf(k, n)
    assert np.max(np.abs(r.paths[0] - acf.values)) < 1e-13


def test_integration_preserves_stream_metadata():
    pe = PathEnsemble(
        h=0.1,
        paths=np.zeros((2, 16)),
        kind="force",
        master_seed=42,
        stream_indices=(0, 1),
    )
    r = integrate_gle(zero_kernel(0.1, 16), pe, r0=0.0)
    assert r.master_seed == 42
    assert r.stream_indices == (0, 1)


def test_integration_validation():
    pe = PathEnsemble(h=0.1, paths=np.zeros((1, 16)), kind="force")
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.2, 16), pe)  # step mismatch
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.1, 8), pe)  # kernel too short
    with pytest.raises(InputError):
        integrate_gle(zero_kernel(0.1, 16), np.zeros((1, 16)))


# -- Lambert-type causal identities -------------------------------------------


def test_boltzmann_acf_reference_points():
    m = ModelSpec.boltzmann(tau_R=1.0)
    h = 1.0 / 200
    acf = boltzmann_acf(m, h, 501)
    for lag, ref in BOLTZ_REF.items():
        if lag <= 2.0:
            got = acf.values[int(round(lag / h))]
            assert got == pytest.approx(ref, abs=3e-4)


def test_boltzmann_exact_zero_and_negative_lobe():
    m = ModelSpec.boltzmann(tau_R=1.0)
    h = 1.0 / 200
    acf = boltzmann_acf(m, h, 601)
    v = acf.values
    assert abs(v[400]) < 1e-12  # grid point exactly at lag 2 tau_R
    assert v[390] > 0 > v[410]
    # the negative lobe is genuine and small
    assert v[440] == pytest.approx(BOLTZ_REF[2.2], abs=5e-5)
    assert v[500] == pytest.approx(BOLTZ_REF[2.5], abs=5e-5)


def test_boltzmann_overshoot_window():
    m = ModelSpec.boltzmann(tau_R=2.0)
    acf = boltzmann_acf(m, h=0.01, n_steps=201)
    peak = acf.values.max()
    where = acf.lags[np.argmax(acf.values)]
    assert 1.205 < peak < 1.220
    assert 0.2 < where < 0.6  # around 0.2 tau_R with tau_R = 2


def test_differential_acf_reference_points():
    m = ModelSpec.differential(tau_R=1.0)
    h = 1.0 / 200
    acf = differential_acf(m, h, 701)
    for lag, ref in DIFF_REF.items():
        got = acf.values[int(round(lag / h))]
        assert got == pytest.approx(ref, abs=3e-4)


def test_differential_acf_monotone_without_overshoot():
    m = ModelSpec.differential(tau_R=1.0)
    acf = differential_acf(m, 1.0 / 100, 1001)
    assert acf.values[0] == 1.0
    assert np.all(np.diff(acf.values) < 0)
    assert acf.values[-1] > 0


@pytest.mark.parametrize(
    "make,march,ref",
    [
        (ModelSpec.boltzmann, boltzmann_acf, BOLTZ_REF[0.5]),
        (ModelSpec.differential, differential_acf, DIFF_REF[0.5]),
    ],
)
def test_march_converges_under_refinement(make, march, ref):
    m = make(tau_R=1.0)
    errs = []
    for nr in (100, 400):
        acf = march(m, 1.0 / nr, nr // 2 + 1)
        errs.append(abs(acf.values[-1] - ref))
    assert errs[0] / errs[1] > 6.0


def test_marched_transform_matches_model_image():
    # forward-transforming the marched ACF must land back on the image
    mb = ModelSpec.boltzmann(tau_R=1.0)
    ab = boltzmann_acf(mb, 1.0 / 400, 4001)  # horizon 10 tau_R
    for p in (0.5, 1.0, 2.0, 5.0):
        assert pl_transform(ab, p) == pytest.approx(observable_shape(mb, p), abs=1e-4)
    md = ModelSpec.differential(tau_R=1.0)
    ad = differential_acf(md, 1.0 / 200, 6001)  # horizon 30 tau_R, slow tail
    for p in (0.5, 1.0, 2.0, 5.0):
        assert pl_transform(ad, p) == pytest.approx(observable_shape(md, p), abs=4e-4)


def test_march_scales_with_tau_R():
    # tau_R only rescales the lag axis: the inverted head sums the same
    # contours in units of tau_R, and the march sees the same dimensionless
    # grid, so the curves agree to roundoff (measured 5.8e-12 and 5.6e-12)
    h = 1.0 / 100
    for make, acf in [(ModelSpec.boltzmann, boltzmann_acf),
                      (ModelSpec.differential, differential_acf)]:
        a1 = acf(make(tau_R=1.0), h, 201)
        a3 = acf(make(tau_R=3.0), 3.0 * h, 201)
        assert np.max(np.abs(a1.values - a3.values)) < 1e-10


@pytest.mark.parametrize("make,acf", [(ModelSpec.boltzmann, boltzmann_acf),
                                      (ModelSpec.differential, differential_acf)])
def test_march_head_is_the_laplace_inversion(make, acf):
    # the startup window [0, STARTUP_SPAN tau_R] holds invert_at's values
    m = make(tau_R=1.0)
    h = 1.0 / 64  # head: 0.25 tau_R is exactly 16 lags
    head = h * np.arange(1, 17)
    values = acf(m, h, 200).values
    assert np.array_equal(values[1:17], invert_at(observable_evaluator(m), head))


@pytest.mark.parametrize("make,acf,ratio", [(ModelSpec.boltzmann, boltzmann_acf, 3.0),
                                            (ModelSpec.differential, differential_acf, 2.5)])
def test_march_converges_to_the_laplace_route(make, acf, ratio):
    # the two routes share nothing past the head: the march's distance from
    # the inverted image falls like h^2 ln h per halving of h (Boltzmann
    # measured 3.52 and 3.56, differential 2.73 and 3.10)
    m = make(tau_R=1.0)
    gaps = []
    for h in (0.01, 0.005, 0.0025):
        n = int(round(20.0 / h)) + 1
        inverted = invert(observable_evaluator(m), h, n).values
        gaps.append(np.max(np.abs(acf(m, h, n).values - inverted)))
    assert gaps[0] < 5e-4
    assert gaps[0] / gaps[1] >= ratio and gaps[1] / gaps[2] >= ratio


def test_march_variant_guard():
    with pytest.raises(InputError):
        boltzmann_acf(ModelSpec.differential(tau_R=1.0), 0.01, 64)
    with pytest.raises(InputError):
        differential_acf(ModelSpec.boltzmann(tau_R=1.0), 0.01, 64)


# -- relaxed convolution against the quadratic march ---------------------------

LAMBERT_MARCHES = [
    (ModelSpec.boltzmann, boltzmann_acf, "_boltzmann_march", boltzmann_march_direct),
    (ModelSpec.differential, differential_acf, "_differential_march", differential_march_direct),
]


@pytest.mark.parametrize("tau_R", [1.0, 2.5])
@pytest.mark.parametrize("h", [0.01, 0.002, 0.0005])  # the last two: head longer than a leaf
@pytest.mark.parametrize("n", [5, 63, 64, 65, 300, 2049, 8000])
def test_relaxed_marches_match_quadratic_oracle(monkeypatch, n, h, tau_R):
    for make, acf, name, oracle in LAMBERT_MARCHES:
        m = make(tau_R=tau_R)
        fast = acf(m, h, n).values
        with monkeypatch.context() as patch:
            patch.setattr(volterra, name, oracle)
            slow = acf(m, h, n).values
        assert fast.shape == slow.shape == (n,)
        assert np.max(np.abs(fast - slow)) <= 1e-13


@pytest.mark.parametrize("start", [1, 4, 63, 64, 200])
@pytest.mark.parametrize("coupled", [False, True])
def test_relaxed_lags_forms_every_causal_sum(start, coupled):
    # a nonlinear march of one or two series, checked against full sums: each
    # leaf's outside sums plus its pairs with the first leaf, the Toeplitz
    # products a leaf solve uses, give every s1 and s2 once
    n = 1000
    leaf = volterra.RELAXED_LEAF
    rng = np.random.default_rng(7)
    c = np.zeros(n)
    q = np.zeros(n) if coupled else None
    c[1 : start + 1] = rng.uniform(-1.0, 1.0, start)
    if coupled:
        q[1 : start + 1] = rng.uniform(-1.0, 1.0, start)

    def step(j, s1, s2):
        assert s1 == pytest.approx(np.dot(c[1:j], c[j - 1 : 0 : -1]), abs=1e-12)
        if coupled:
            assert s2 == pytest.approx(np.dot(c[1:j], q[j - 1 : 0 : -1]), abs=1e-12)
            q[j] = np.cos(s2 - c[j - 1])
        c[j] = np.sin(s1 + j)

    first = max(start + 1, 2)
    for j in range(first, leaf):  # the first leaf is the march's own
        step(j, np.dot(c[1:j], c[j - 1 : 0 : -1]),
             np.dot(c[1:j], q[j - 1 : 0 : -1]) if coupled else 0.0)
    m0 = volterra._leaf_toeplitz(c)
    mq = volterra._leaf_toeplitz(q) if coupled else None
    seen = []
    for lo, sums in volterra._relaxed_lags(c, q, start):
        m = sums.shape[1]
        assert sums.shape[0] == (2 if coupled else 1)
        x = c[lo : lo + m]
        for j in range(max(lo, first), lo + m):
            r = j - lo
            s1 = sums[0, r] + 2.0 * m0[r, :m] @ x
            s2 = sums[1, r] + mq[r, :m] @ x + m0[r, :m] @ q[lo : lo + m] if coupled else 0.0
            step(j, s1, s2)
            seen.append(j)
    assert seen == list(range(max(first, leaf), n))


class _ReadLog(np.ndarray):
    """Array view that logs the index range of every read taken from it;
    slices come back as plain arrays, so only reads of the whole grid count."""

    log = None

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if _ReadLog.log is not None:
            n = self.shape[0]
            span = range(*key.indices(n)) if isinstance(key, slice) else np.ravel(key) % n
            if len(span):
                _ReadLog.log.append((int(min(span)), int(max(span))))
        return np.asarray(out) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("make,acf", [(m[0], m[1]) for m in LAMBERT_MARCHES])
def test_no_march_step_reaches_over_the_history(monkeypatch, make, acf):
    # not a timing: outside the block products, every read of the history
    # lies in the first leaf or in the current leaf and the lag before it,
    # and the block products sum to one pass over the lags per tree level
    n = 4096
    leaf = volterra.RELAXED_LEAF
    name = next(m[2] for m in LAMBERT_MARCHES if m[1] is acf)
    reads, spill_widths, leaves = [], [], []
    real_march = getattr(volterra, name)
    real_lags, real_spill = volterra._relaxed_lags, volterra._spill

    def logged_spill(c, q, acc, spectra, lo, mid, hi):
        spill_widths.append(hi - lo)
        _ReadLog.log = None
        real_spill(np.asarray(c), None if q is None else np.asarray(q), acc, spectra, lo, mid, hi)
        _ReadLog.log = reads

    def logged_lags(c, q, start):
        for lo, sums in real_lags(c, q, start):
            leaves.append((lo, lo + sums.shape[1]))
            reads.append(None)  # reads after this marker belong to this leaf
            yield lo, sums

    def logged_march(hh, *series):
        _ReadLog.log = reads
        try:
            real_march(hh, *(x.view(_ReadLog) for x in series[:-1]), series[-1])
        finally:
            _ReadLog.log = None

    monkeypatch.setattr(volterra, name, logged_march)
    monkeypatch.setattr(volterra, "_relaxed_lags", logged_lags)
    monkeypatch.setattr(volterra, "_spill", logged_spill)
    values = acf(make(tau_R=1.0), 0.01, n).values
    assert np.all(np.isfinite(values))
    assert leaves == [(lo, lo + leaf) for lo in range(leaf, n, leaf)]
    assert sum(1 for read in reads if read and read[0] >= leaf) >= len(leaves)
    current = (0, leaf)  # before the first solved leaf: the stepped first leaf
    marks = iter(leaves)
    for read in reads:
        if read is None:
            current = next(marks)
            continue
        lo, hi = read
        assert hi < leaf or current[0] - 1 <= lo <= hi < current[1], (read, current)
    levels = int(np.log2(n // leaf))
    assert sum(spill_widths) <= n * levels


@pytest.mark.parametrize("make,acf", [(m[0], m[1]) for m in LAMBERT_MARCHES])
def test_spill_reuses_early_factor_spectra_exactly(monkeypatch, make, acf):
    # the early factors c[:w] (and q[:w]) are final, so reusing their FFTs
    # across segments of one width must give the march bit for bit
    real_fft, real_spill = np.fft.rfft, volterra._spill
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_fft(*args, **kwargs)

    def march():
        calls.clear()
        values = acf(make(tau_R=1.0), 0.01, 8000).values
        return values, len(calls)

    monkeypatch.setattr(np.fft, "rfft", counted)
    reused, reused_calls = march()
    monkeypatch.setattr(volterra, "_spill", lambda c, q, acc, spectra, *seg:
                        real_spill(c, q, acc, {}, *seg))
    fresh, fresh_calls = march()
    assert np.array_equal(reused, fresh)
    ops = 1 if acf is boltzmann_acf else 2
    # 48 of the early-factor transforms per operand repeat a width
    assert fresh_calls - reused_calls == 48 * ops

# -- stationary ensembles ------------------------------------------------------


def sample_acf_bands(x, max_lag):
    """Per-path biased ACF averaged across paths, with ensemble SE bands."""
    n_paths, n = x.shape
    m = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, m)
    ac = np.fft.irfft(f * np.conj(f), m)[:, : max_lag + 1] / n
    mean = ac.mean(axis=0) / ac[:, 0].mean()
    se = ac.std(axis=0, ddof=1) / np.sqrt(n_paths) / ac[:, 0].mean()
    return mean, se


def test_stationary_ensemble_neutral_stock_acf():
    # theta = 1: closed-form ACF lambda1(2 tau / tau_r), no spectral line
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0, variance=1.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=1024, n_paths=100, seed=5)
    assert out.kind == "return-rate"
    assert out.paths.shape == (100, 1024)
    assert out.master_seed == 5 and out.stream_indices == tuple(range(100))
    mean, se = sample_acf_bands(out.paths, 60)
    truth = lambda1(2.0 * 0.1 * np.arange(61))
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])
    assert abs(out.paths.var() - 1.0) < 0.1


def test_stationary_ensemble_self_similar_acf():
    model = ModelSpec.linear_self_similar(tau_R=2.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=1024, n_paths=100, seed=5)
    mean, se = sample_acf_bands(out.paths, 60)
    truth = lambda1(2.0 * 0.1 * np.arange(61) / 2.0)
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])


def test_stationary_ensemble_ultralight_carries_the_line():
    # theta = 3: the ACF includes the undamped 2R cos(omega tau) component;
    # the inverted image is the truth (the pole contributes automatically)
    from glemarket.laplace import invert_at
    from glemarket.models import observable_evaluator

    model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0, variance=1.0)
    out = simulate_stationary_ensemble(model, h=0.1, n_steps=2048, n_paths=150, seed=11)
    truth = np.empty(81)
    truth[0] = 1.0
    truth[1:] = invert_at(observable_evaluator(model), 0.1 * np.arange(1, 81))
    mean, se = sample_acf_bands(out.paths, 80)
    assert np.all(np.abs(mean - truth)[1:] <= 3.0 * se[1:])
    # stationary from the first sample: quarter-window variances are flat
    v = out.paths.var(axis=0)
    quarters = v.reshape(4, -1).mean(axis=1)
    assert np.all(np.abs(quarters - 1.0) < 0.15)
    assert abs(out.paths.var() - 1.0) < 0.1


def test_stationary_ensemble_determinism_and_stream_stability():
    model = ModelSpec.stock_theta(tau_r=1.0, theta=3.0, variance=1.0)
    a = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=9)
    b = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=9)
    c = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=8, seed=9)
    d = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=4, seed=10)
    e = simulate_stationary_ensemble(model, h=0.1, n_steps=256, n_paths=1, seed=9)
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.paths, c.paths[:4])
    assert np.array_equal(e.paths, c.paths[:1])
    assert not np.array_equal(a.paths, d.paths)


def test_stationary_ensemble_grid_is_even_five_smooth():
    # the circulant holds the published window and nothing more: no burn-in
    assert _circulant_length(2048) == 2048
    assert _circulant_length(1000) == 1000
    assert _circulant_length(2049) == 2160  # 2^4 3^3 5, not 4096
    assert _circulant_length(1) == 2
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0)
    out = simulate_stationary_ensemble(model, h=0.125, n_steps=2049, n_paths=2, seed=1)
    assert out.paths.shape == (2, 2049)


def test_stationary_ensemble_peak_memory_within_simulate_estimate():
    # cli._simulate_size allows 64 bytes per generated step per path plus
    # two shared arrays; the run must not exceed it
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0)
    n_gen = _circulant_length(2048)
    simulate_stationary_ensemble(model, h=0.125, n_steps=64, n_paths=2, seed=1)
    tracemalloc.start()
    try:
        simulate_stationary_ensemble(model, h=0.125, n_steps=2048, n_paths=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * (200 + 2) * n_gen


def _circulant_covariance(model, h, n, lags):
    """Exact covariance of the circulant the sampler draws from, plus its line."""
    t = h * np.arange(lags)
    target = _folded_spectrum(model, h, n)
    request = NoiseRequest(n_steps=n, n_paths=1, seed=0, target_spectrum=target, h=h)
    c = np.fft.irfft(circulant_spectrum(request), 2 * n)[:lags]
    atom = spectral_atom(model)
    if atom is not None:
        c = c + 2.0 * atom[1] * model.variance * np.cos(atom[0] * t)
    return c


@pytest.mark.parametrize("h", [0.125, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("model,bound", [
    (ModelSpec.linear_self_similar(tau_R=1.0), 1e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=0.5), 1e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=1.0), 1e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=1.5), 1e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=3.0), 1e-3),
    # near-singular spectrum at the band edge, measured <= 8.8e-3, 1.7e-3,
    # 4.7e-3 and 2.6e-3
    (ModelSpec.stock_theta(tau_r=1.0, theta=2.0), 1e-2),
    (ModelSpec.stock_theta(tau_r=1.0, theta=1.9), 2e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=1.99), 6e-3),
    (ModelSpec.stock_theta(tau_r=1.0, theta=2.01), 4e-3),
], ids=["selfsim", "stock0.5", "stock1", "stock1.5", "stock3", "stock2", "stock1.9", "stock1.99",
        "stock2.01"])
def test_circulant_covariance_matches_closed_forms(model, bound, h):
    # deterministic, on lags <= 320 (measured <= 3e-4 away from theta = 2)
    c = _circulant_covariance(model, h, 2048, 321)
    assert np.max(np.abs(c - closed_form_acf(model, h * np.arange(321)))) <= bound


def test_theta_2_covariance_converges_with_the_grid():
    # the band-edge error is the cells' taper, so it falls with L: measured
    # 5.0e-4 at L = 8192
    model = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    c = _circulant_covariance(model, 0.125, 8192, 321)
    assert np.max(np.abs(c - closed_form_acf(model, 0.125 * np.arange(321)))) <= 1e-3


def test_stationary_ensemble_variance_holds_at_large_h(monkeypatch):
    # the folded spectrum keeps the aliased band: the GLE march gave 0.50 at h = 2
    def unused(*args, **kwargs):
        raise AssertionError("the stationary sampler marches no memory equation")

    monkeypatch.setattr(volterra, "integrate_gle", unused)
    monkeypatch.setattr(volterra, "memory_kernel", unused)
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1.0)
    out = simulate_stationary_ensemble(model, h=2.0, n_steps=2048, n_paths=100, seed=5)
    assert abs(out.paths.var() - 1.0) <= 0.02


def test_stationary_ensemble_deep_fold_keeps_the_variance():
    # theta = 0.01 folds a band of 200 onto [0, 8 pi]: the GLE march gave 0.117;
    # the ACF is about exp(-t), so the variance's standard error is about 0.007
    model = ModelSpec.stock_theta(tau_r=1.0, theta=0.01)
    out = simulate_stationary_ensemble(model, h=0.125, n_steps=2048, n_paths=100, seed=5)
    assert abs(out.paths.var() - 1.0) <= 0.03
    # a band of exactly 4096 cells
    model = ModelSpec.stock_theta(tau_r=1.0, theta=0.03978843221132672)
    out = simulate_stationary_ensemble(model, h=0.125, n_steps=2048, n_paths=2, seed=1)
    assert out.paths.shape == (2, 2048) and np.all(np.isfinite(out.paths))


@pytest.mark.parametrize("h", [0.01, 0.125])
@pytest.mark.parametrize("model", [
    ModelSpec.linear_self_similar(tau_R=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.9),
    ModelSpec.stock_theta(tau_r=1.0, theta=2.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=2.01),
    ModelSpec.stock_theta(tau_r=1.0, theta=3.0),
], ids=["selfsim", "stock0.5", "stock1", "stock1.5", "stock1.9", "stock2", "stock2.01", "stock3"])
def test_short_grid_fold_keeps_the_variance(model, h):
    # the cells' masses telescope to the band's variance on any grid, down
    # to a band inside one cell; beyond theta = 2 the line holds the rest
    for n in (4, 8, 16, 32, 64, 256):
        assert abs(_circulant_covariance(model, h, n, 1)[0] - 1.0) <= 1e-12, n


@pytest.mark.parametrize("h", [0.125, 2.0])
@pytest.mark.parametrize("model", [
    ModelSpec.linear_self_similar(tau_R=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.0),
    ModelSpec.stock_theta(tau_r=1.0, theta=1.5),
    ModelSpec.stock_theta(tau_r=1.0, theta=3.0),
], ids=["selfsim", "stock0.5", "stock1", "stock1.5", "stock3"])
def test_fold_is_the_limit_of_cell_midpoints(model, h):
    # the exact cell means against 1024 midpoints per cell (measured <= 2.8e-6)
    exact = _folded_spectrum(model, h, 256).values
    midpoints = midpoint_folded_spectrum(model, h, 256, per_cell=1024).values
    assert np.max(np.abs(midpoints - exact)) <= 1e-5 * np.max(exact)


def test_oversized_fold_refused_before_any_evaluation(monkeypatch):
    def untouchable(*args, **kwargs):
        raise AssertionError("the cost cap must fire before any spectrum evaluation")

    monkeypatch.setattr(volterra, "band_variance", untouchable)
    model = ModelSpec.stock_theta(tau_r=1.0, theta=1e-5)
    with pytest.raises(InputError, match="band cells") as err:
        simulate_stationary_ensemble(model, h=0.125, n_steps=2048, n_paths=2, seed=1)
    assert "1.63e+07" in str(err.value)


@pytest.mark.parametrize("model", [
    ModelSpec.white_noise(tau_R=0.7, variance=1.3),
    ModelSpec.stock_theta(tau_r=0.7, theta=0.0, variance=1.3),
], ids=["white", "stock0"])
def test_memoryless_models_take_the_exact_one_step_recursion(model):
    # the exponential ACF's own recursion, not the circulant: bit for bit
    # simulate_white_returns at the model's correlation time and variance
    got = simulate_stationary_ensemble(model, h=0.05, n_steps=300, n_paths=3, seed=41)
    want = simulate_white_returns(0.7, 1.3, 300, 0.05, 3, 41)
    assert np.array_equal(got.paths, want.paths)
    assert (got.h, got.kind, got.master_seed, got.stream_indices) == (
        want.h, want.kind, want.master_seed, want.stream_indices)


def test_stationary_ensemble_refusals():
    with pytest.raises(CapabilityError):
        simulate_stationary_ensemble(
            ModelSpec.boltzmann(1.0), h=0.1, n_steps=64, n_paths=2, seed=1
        )
    for good in (ModelSpec.stock_theta(tau_r=1.0, theta=1.0, variance=1.0),
                 ModelSpec.white_noise(1.0)):
        with pytest.raises(InputError):
            simulate_stationary_ensemble(good, h=-0.1, n_steps=64, n_paths=2, seed=1)
        with pytest.raises(InputError):
            simulate_stationary_ensemble(good, h=0.1, n_steps=64, n_paths=2, seed=-1)
