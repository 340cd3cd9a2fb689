"""Special-function tests against independently coded oracles.

Frozen literals below were produced by tests/oracles.py (mpmath brute-force
series and bisection) before the implementation was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath as mp
from scipy import special as scipy_special
from scipy.special import lambertw

from glemarket import specfun
from glemarket.errors import DomainError

import oracles

# --- frozen oracle outputs (tests/oracles.py) ---------------------------
J0_TABLE = {
    0.5: 0.9384698072408129,
    1.0: 0.7651976865579666,
    3.0: -0.26005195490193344,
    8.0: 0.17165080713755391,
    12.0: 0.047689310796833537,
    17.0: -0.16985425215118355,
    20.0: 0.16702466434058315,
    25.0: 0.096266783275958116,
    60.0: -0.09147180408906187,
    120.25: 0.072509764213276117,
    121.75: -0.00088636588571158923,
    199.5: -0.039613637334785146,
}
J1_TABLE = {
    0.5: 0.24226845767487389,
    1.0: 0.4400505857449335,
    2.0: 0.5767248077568734,
    3.0: 0.33905895852593646,
    8.0: 0.23463634685391462,
    12.0: -0.22344710449062761,
    17.0: -0.09766849275778065,
    20.0: 0.066833124175850046,
    25.0: -0.1253502495802899,
    60.0: 0.046598383758166318,
    121.75: 0.072302433466508364,
    199.5: -0.040371312360519674,
}
J0_FIRST_ZERO = 2.404825557695773
J1_FIRST_ZERO = 3.831705970207512
W0_EXP_11 = 8.822674899385971


def test_bessel_frozen_values():
    for x, ref in J0_TABLE.items():
        assert specfun.bessel_j0(x) == pytest.approx(ref, abs=2e-13)
    for x, ref in J1_TABLE.items():
        assert specfun.bessel_j1(x) == pytest.approx(ref, abs=2e-13)


def test_bessel_against_series_oracle_dense():
    # mixed abs/rel reading of the 1e-10 contract: relative wherever the
    # oracle is not near a zero, absolute everywhere
    xs = np.linspace(0.0, 200.0, 401)
    for x in xs:
        for fn, oracle in ((specfun.bessel_j0, oracles.j0_series), (specfun.bessel_j1, oracles.j1_series)):
            ref = float(oracle(float(x)))
            got = fn(float(x))
            assert abs(got - ref) <= 1e-12 + 1e-10 * abs(ref)


def test_bessel_branch_seam_agreement():
    # Miller's recurrence and the Hankel expansion agree at the crossover
    x = specfun._SERIES_CUTOFF
    j0 = specfun.neumann_series(x, 1.0, -1.0)
    j1 = 0.5 * x * specfun.neumann_series(x, 1.0, 0.0)
    assert abs(j0 - specfun._j_asymptotic(x, 0)[0]) <= 1e-15
    assert abs(j1 - specfun._j_asymptotic(x, 1)[0]) <= 1e-15


def test_bessel_against_scipy_dense():
    xs = np.linspace(0.0, 200.0, 200001)
    safe = np.where(xs == 0.0, 1.0, xs)
    lam = np.where(xs == 0.0, 1.0, 2.0 * scipy_special.j1(xs) / safe)
    assert np.max(np.abs(specfun.bessel_j0(xs) - scipy_special.j0(xs))) <= 2e-15
    assert np.max(np.abs(specfun.bessel_j1(xs) - scipy_special.j1(xs))) <= 2e-15
    assert np.max(np.abs(specfun.lambda1(xs) - lam)) <= 2e-15


def test_bessel_parity_and_arrays():
    xs = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
    j0 = specfun.bessel_j0(xs)
    j1 = specfun.bessel_j1(xs)
    assert isinstance(j0, np.ndarray)
    assert j0[0] == j0[4] and j0[1] == j0[3]        # even
    assert j1[0] == -j1[4] and j1[1] == -j1[3]      # odd
    assert j0[2] == 1.0 and j1[2] == 0.0


def test_lambda_normalization_and_zeros():
    assert specfun.lambda1(0.0) == 1.0
    assert specfun.lambda0(0.0) == 1.0
    # frozen: lambda0(2) = J0(1); first zeros under the adopted scaling
    assert specfun.lambda0(2.0) == pytest.approx(0.7651976865579666, abs=1e-12)
    assert abs(specfun.lambda1(J1_FIRST_ZERO)) <= 1e-10
    assert abs(specfun.lambda0(2.0 * J0_FIRST_ZERO)) <= 1e-10


def test_lambda_series_guard_is_smooth():
    # both sides of neumann_series' Taylor guard at x = 1e-3 agree
    seam = specfun._NEUMANN_TAYLOR_BELOW
    for fn in (specfun.lambda1, specfun.bessel_j0):
        below, above = fn(np.array([seam * (1.0 - 1e-12), seam]))
        assert abs(below - above) < 1e-15
    assert specfun.lambda1(1e-6) == pytest.approx(1.0, abs=1e-12)


def test_lambda_against_series_oracle():
    xs = np.linspace(0.0, 50.0, 201)
    for x in xs:
        ref1 = 1.0 if x == 0 else float(2 * oracles.j1_series(float(x)) / x)
        ref0 = float(oracles.j0_series(float(x) / 2))
        assert abs(specfun.lambda1(float(x)) - ref1) <= 1e-10
        assert abs(specfun.lambda0(float(x)) - ref0) <= 1e-10


def test_lambda1_tail_envelope():
    # |lambda1| extrema fall off as x^(-3/2): fitted slope on x in [20, 200]
    x = np.linspace(20.0, 200.0, 20001)
    y = np.abs(specfun.lambda1(x))
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    px, py = x[1:-1][interior], y[1:-1][interior]
    slope = np.polyfit(np.log(px), np.log(py), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.05)


def test_lambert_frozen_values():
    # W0(e) = 1: the Boltzmann image's lag-0 anchor, exact in and out of arrays
    assert specfun.lambert_w0_exp(1.0) == 1.0
    assert specfun.lambert_w0_exp(np.array([3.0, 1.0]))[1] == 1.0
    assert specfun.lambert_w0_exp(11.0) == pytest.approx(W0_EXP_11, rel=1e-13)


def test_lambert_domains():
    # the models pass z = 1 + tau_R p >= 1; the real iteration clamps w >= 1,
    # so a real z below 1 is refused, not solved on the wrong side
    for z in (1.0 - 1e-13, 0.5, -5.0, np.nan):
        with pytest.raises(DomainError):
            specfun.lambert_w0_exp(z)
        with pytest.raises(DomainError):
            specfun.lambert_w0_exp(np.array([2.0, z]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6))
def test_lambert_w0_residual_property(z):
    w = specfun.lambert_w0_exp(z)
    assert abs(w + np.log(w) - z) <= 1e-15 * z
    if z <= 700.0:
        assert abs(w * np.exp(w) / np.exp(z) - 1.0) <= 1e-12


def test_lambert_w0_exp_matches_composition_and_oracle():
    for z in (1.0, 3.0, 11.0):
        composed = lambertw(np.exp(z)).real
        assert specfun.lambert_w0_exp(z) == pytest.approx(composed, rel=1e-13)
    assert specfun.lambert_w0_exp(11.0) == pytest.approx(W0_EXP_11, rel=1e-13)
    # far beyond exp overflow: residual check in the w + ln w = z form
    for z in (800.0, 5e4):
        w = specfun.lambert_w0_exp(z)
        assert abs(w + np.log(w) - z) <= 1e-10 * z


def test_lambert_wm1_neg_exp_matches_branch():
    for z in (1.2, 2.0, 5.0, 30.0):
        composed = specfun.lambert_wm1_neg_exp(z)
        direct = lambertw(-np.exp(-z), -1).real
        assert composed == pytest.approx(direct, rel=1e-12)
    w = specfun.lambert_wm1_neg_exp(2000.0)  # -e^-z underflows; form survives
    v = -w
    assert abs(v - np.log(v) - 2000.0) <= 1e-10 * 2000.0


def test_lambert_w0_exp_relative_accuracy():
    z = np.linspace(1.0, 700.0, 20001)
    ref = lambertw(np.exp(z)).real
    assert np.max(np.abs(specfun.lambert_w0_exp(z) / ref - 1.0)) <= 1e-15
    # beyond exp overflow, against a 40-digit reference
    mp.mp.dps = 40
    z = np.logspace(np.log10(700.0), 8.0, 25)
    ref = np.array([float(mp.lambertw(mp.exp(mp.mpf(float(v))))) for v in z])
    assert np.max(np.abs(specfun.lambert_w0_exp(z) / ref - 1.0)) <= 1e-15


# lambert_wm1_neg_exp values frozen before its Newton loop became the shared
# log-form root iteration; they must not move by a bit.  The two next to the
# branch point are 40-digit mpmath roots, -1 and
# -1.000044722028069333028415816074022170693, rounded.
WM1_NEG_EXP_FROZEN = {
    1.0: -1.0,
    1.000000001: -1.0000447220280693,
    1.001: -1.0453904959636906,
    1.2: -1.7722498296092304,
    2.0: -3.1461932206205825,
    5.0: -6.936847407220219,
    30.0: -33.511900618078094,
    700.0: -706.5604087026486,
    2000.0: -2007.6046975976853,
    100000.0: -100011.51304058875,
    100000000.0: -100000018.42068093,
}


def test_lambert_wm1_neg_exp_frozen_bits():
    # one call per z: an array call iterates until its slowest entry converges
    for z, ref in WM1_NEG_EXP_FROZEN.items():
        assert specfun.lambert_wm1_neg_exp(z) == ref


def test_lambert_wm1_neg_exp_at_the_branch_point():
    # v - ln v = z has a double root at z = 1: solved in v - 1 next to it
    zs = [1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.001]
    with mp.workdps(60):
        ref = [float(mp.lambertw(-mp.exp(-mp.mpf(z)), -1).real) for z in zs]
    got = [specfun.lambert_wm1_neg_exp(z) for z in zs]
    assert max(abs(g / r - 1.0) for g, r in zip(got, ref)) <= 1e-15
    together = specfun.lambert_wm1_neg_exp(np.array(zs))
    assert np.max(np.abs(together / ref - 1.0)) <= 1e-15


# lambert_w0_exp values frozen before the log-form root took complex z; the
# real path must not move by a bit
W0_EXP_FROZEN = {
    1.5: 1.2649597201255005,
    2.0: 1.5571455989976115,
    5.0: 3.6934413589606496,
    30.0: 26.714782920381055,
    700.0: 693.4583088790255,
    100000.0: 99988.48718966976,
    100000000.0: 99999981.57931945,
}


def test_lambert_w0_exp_frozen_bits():
    for z, ref in W0_EXP_FROZEN.items():
        assert specfun.lambert_w0_exp(z) == ref


def test_lambert_w0_exp_complex_is_the_wright_omega_function():
    # w + ln w = z on Re z >= 1 with the principal log: the Boltzmann image
    # at tau_R p = z - 1 for Re p >= 0, out to |Im p| = 1e4
    re = np.concatenate([1.0 + np.linspace(0.0, 4.0, 41), np.logspace(0.7, 3.0, 20)])
    im = np.concatenate([np.linspace(-10.0, 10.0, 81), np.logspace(1.0, 4.0, 40),
                         -np.logspace(1.0, 4.0, 40)])
    z = (re[:, None] + 1j * im[None, :]).ravel()
    w = specfun.lambert_w0_exp(z)
    ref = scipy_special.wrightomega(z)
    assert np.max(np.abs(w / ref - 1.0)) <= 1e-15
    # exactly conjugate-symmetric, and a Python complex for a scalar
    assert np.array_equal(specfun.lambert_w0_exp(np.conj(z)), np.conj(w))
    assert isinstance(specfun.lambert_w0_exp(2.0 + 1.0j), complex)


def test_lambert_wm1_neg_exp_complex_continues_the_real_branch():
    # v - ln v = z (the differential image at z = 2 - ln 2 + tau_R p) for
    # Re z >= 1: a small residual, exact conjugate symmetry, and no jump along
    # rays that leave the real axis, so the root is the real branch v >= 1
    # continued analytically
    re = np.concatenate([1.0 + np.logspace(-3.0, 0.0, 13), np.logspace(0.4, 3.0, 20)])
    im = np.concatenate([np.logspace(-8.0, 4.0, 49), -np.logspace(-8.0, 4.0, 49)])
    z = (re[:, None] + 1j * im[None, :]).ravel()
    v = -specfun.lambert_wm1_neg_exp(z)
    assert np.max(np.abs(v - np.log(v) - z) / np.abs(z)) <= 1e-15
    assert np.array_equal(-specfun.lambert_wm1_neg_exp(np.conj(z)), np.conj(v))
    assert np.all(v.real >= 1.0)
    r = np.logspace(-10.0, 4.0, 2001)
    for z0 in (1.01, 2.0 - np.log(2.0), 3.0, 40.0):
        for angle in (np.pi / 6.0, np.pi / 2.0, -np.pi / 3.0):
            ray = z0 + r * np.exp(1j * angle)
            v = -specfun.lambert_wm1_neg_exp(ray)
            # dv/dz = v/(v - 1): each step moves v by at most its slope bound
            slope = np.abs(v / (v - 1.0))
            steps = np.abs(np.diff(v))
            assert np.all(steps <= 1.01 * np.maximum(slope[1:], slope[:-1]) * np.abs(np.diff(ray)))
            real = -specfun.lambert_wm1_neg_exp(z0)
            assert abs(v[0] - real) <= 2.0 * slope[0] * r[0] + 1e-15 * real


def test_log_forms_refuse_complex_z_left_of_one():
    for fn in (specfun.lambert_w0_exp, specfun.lambert_wm1_neg_exp):
        with pytest.raises(DomainError):
            fn(0.5 + 1.0j)
        with pytest.raises(DomainError):
            fn(np.array([2.0 + 0.0j, complex(np.nan, 1.0)]))


def test_scalar_array_round_trip():
    assert isinstance(specfun.bessel_j0(1.0), float)
    arr = specfun.lambda1(np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert isinstance(specfun.lambert_w0_exp(1.5), float)
    assert isinstance(specfun.lambert_w0_exp(np.array([1.1, 2.0])), np.ndarray)


# --- Neumann series ------------------------------------------------------


def test_neumann_series_shapes_limits_and_order():
    assert specfun.neumann_series(0.0, 0.4, -0.5) == 0.4
    assert isinstance(specfun.neumann_series(3.0, 1.0, 0.5), float)
    x = np.array([[40.0, 0.0], [1e-4, 7.5]])
    out = specfun.neumann_series(x, 1.0, 0.5)
    assert out.shape == (2, 2) and out[0, 1] == 1.0
    # unsorted input keeps the caller's order
    for value, xi in zip(out.ravel(), x.ravel()):
        assert value == specfun.neumann_series(xi, 1.0, 0.5)
    # the Taylor seam at x = 1e-3 is continuous with the recurrence
    below, above = specfun.neumann_series(np.array([1e-3 * (1 - 1e-12), 1e-3]), 1.0, 0.5)
    assert abs(below - above) < 1e-15


def test_neumann_series_domain():
    with pytest.raises(DomainError):
        specfun.neumann_series(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        specfun.neumann_series(np.nan, 1.0, 0.5)
    with pytest.raises(DomainError):
        specfun.neumann_series(1.0, 1.0, 1.5)
