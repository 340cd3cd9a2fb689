"""Special-function tests against independently coded oracles.

Frozen literals below were produced by tests/oracles.py (mpmath brute-force
series and bisection) before the implementation was written.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
WM1_AT_MINUS_TENTH = -3.577152063957297
W0_AT_ONE = 0.5671432904097839
W0_AT_HALF = 0.35173371124919583
W0_AT_MINUS_QUARTER = -0.3574029561813889
WM1_AT_MINUS_QUARTER = -2.1532923641103496
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
    # both internal branches evaluated at the crossover must agree to 1e-9
    x = np.array([specfun._SERIES_CUTOFF])
    for nu in (0, 1):
        s = specfun._j_series(x, nu)[0]
        a = specfun._j_asymptotic(x, nu)[0]
        assert abs(s - a) <= 1e-9


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
    # both sides of the 1e-4 guard agree at the same argument
    for x in (9.9e-5, 1.01e-4):
        guard = specfun.lambda1(x)
        ratio = 2.0 * specfun.bessel_j1(x) / x
        assert abs(guard - ratio) < 1e-14
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
    assert specfun.lambert_w0(1.0) == pytest.approx(W0_AT_ONE, abs=1e-14)
    assert specfun.lambert_w0(0.5) == pytest.approx(W0_AT_HALF, abs=1e-14)
    assert specfun.lambert_w0(-0.25) == pytest.approx(W0_AT_MINUS_QUARTER, abs=1e-14)
    assert specfun.lambert_w0(np.e) == pytest.approx(1.0, abs=1e-14)
    assert specfun.lambert_w0(0.0) == 0.0
    assert specfun.lambert_wm1(-0.1) == pytest.approx(WM1_AT_MINUS_TENTH, abs=1e-13)
    assert specfun.lambert_wm1(-0.25) == pytest.approx(WM1_AT_MINUS_QUARTER, abs=1e-13)
    assert specfun.lambert_wm1(-np.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_domains():
    with pytest.raises(DomainError):
        specfun.lambert_w0(-0.5)
    with pytest.raises(DomainError):
        specfun.lambert_wm1(0.1)
    with pytest.raises(DomainError):
        specfun.lambert_wm1(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.36, max_value=1e6))
def test_lambert_w0_residual_property(x):
    w = specfun.lambert_w0(x)
    assert abs(w * np.exp(w) - x) <= 1e-12 * max(abs(x), 1e-10)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.3678, max_value=-1e-8))
def test_lambert_wm1_residual_property(x):
    w = specfun.lambert_wm1(x)
    assert w <= -1.0
    assert abs(w * np.exp(w) - x) <= 1e-12 * abs(x)


def test_lambert_w0_exp_matches_composition_and_oracle():
    for z in (-5.0, 0.0, 1.0, 3.0, 11.0):
        direct = specfun.lambert_w0(np.exp(z))
        composed = specfun.lambert_w0_exp(z)
        assert composed == pytest.approx(direct, rel=1e-13)
    assert specfun.lambert_w0_exp(11.0) == pytest.approx(W0_EXP_11, rel=1e-13)
    # far beyond exp overflow: residual check in the w + ln w = z form
    for z in (800.0, 5e4):
        w = specfun.lambert_w0_exp(z)
        assert abs(w + np.log(w) - z) <= 1e-10 * z


def test_lambert_wm1_neg_exp_matches_branch():
    for z in (1.2, 2.0, 5.0, 30.0):
        composed = specfun.lambert_wm1_neg_exp(z)
        direct = specfun.lambert_wm1(-np.exp(-z))
        assert composed == pytest.approx(direct, rel=1e-12)
    w = specfun.lambert_wm1_neg_exp(2000.0)  # -e^-z underflows; form survives
    v = -w
    assert abs(v - np.log(v) - 2000.0) <= 1e-10 * 2000.0


def test_scalar_array_round_trip():
    assert isinstance(specfun.bessel_j0(1.0), float)
    arr = specfun.lambda1(np.array([0.0, 1.0, 2.0]))
    assert arr.shape == (3,)
    assert isinstance(specfun.lambert_w0(np.array([0.1, 0.2])), np.ndarray)


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
