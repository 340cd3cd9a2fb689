"""Model-catalog tests: shapes, closures, class bands, functional solvers.

Reference values were frozen from the high-precision oracles in
tests/oracles.py (bisection and defining-series implementations, mpmath,
60+ significant digits).
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from glemarket import estimate, models
from glemarket.errors import CapabilityError, DomainError, InputError, SolverError
from glemarket.laplace import spectral_density
from glemarket.models import (
    CATALOG,
    ModelSpec,
    ShapeEvaluator,
    StockClass,
    Variant,
    classify_theta,
    closed_form_acf,
    force_evaluator,
    force_shape,
    identity_residual,
    observable_evaluator,
    observable_shape,
    render_catalog,
    band_variance,
    solve_functional_shape,
    spectral_atom,
)
from glemarket.specfun import bessel_j0, lambda1, neumann_series
from glemarket.volterra import memory_kernel, simulate_stationary_ensemble

# frozen oracle values (root-finding at 60 digits)
BOLTZ_Y_AT_U10 = 0.11334431013315436
BOLTZ_G_AT_U10 = -1.1773251006140288
DIFF_Y_AT_U1 = 0.38713565619514461


def test_white_noise_shapes():
    m = ModelSpec.white_noise(tau_R=2.0)
    p = np.array([0.0, 0.5, 3.0])
    assert np.allclose(observable_shape(m, p), 1.0 / (1.0 + 2.0 * p), rtol=0, atol=1e-15)
    assert np.array_equal(force_shape(m, p), np.ones(3))
    # complex argument follows the same rational form
    z = 0.3 + 1.7j
    assert abs(observable_shape(m, z) - 1.0 / (1.0 + 2.0 * z)) < 1e-15


def test_self_similar_shape_closed_form():
    m = ModelSpec.linear_self_similar(tau_R=1.0)
    # at tau_R p = 2 the quadratic root is sqrt(2) - 1
    assert abs(observable_shape(m, 2.0) - (np.sqrt(2.0) - 1.0)) < 1e-15
    # force shape mirrors the observable shape
    p = np.geomspace(1e-3, 1e3, 25)
    assert np.array_equal(observable_shape(m, p), force_shape(m, p))


def test_self_similar_imaginary_axis_branch():
    # on p = i omega the real part is a semicircle that vanishes outside
    # the band |omega| tau_R / 2 > 1, on both half-axes
    m = ModelSpec.linear_self_similar(tau_R=2.0)
    inside = observable_shape(m, 1j * 0.6)
    assert abs(inside.real - np.sqrt(1.0 - 0.6**2)) < 1e-15
    outside = observable_shape(m, 1j * 1.8)
    assert outside.real == pytest.approx(0.0, abs=1e-15)
    assert abs(outside) < 1.0
    # conjugate symmetry across the real axis
    plus = observable_shape(m, 0.4 + 0.9j)
    minus = observable_shape(m, 0.4 - 0.9j)
    assert abs(plus - np.conj(minus)) < 1e-15


def test_stock_theta_shape_values():
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    # tau_R = 2, so at p = 1 the force shape is sqrt(2) - 1 and
    # y = 1/(1 + sqrt(2) - 1) = 1/sqrt(2)
    assert abs(observable_shape(m, 1.0) - 1.0 / np.sqrt(2.0)) < 1e-15
    # theta = 1 collapses onto the self-similar market shape
    m1 = ModelSpec.stock_theta(tau_r=3.0, theta=1.0)
    ref = ModelSpec.linear_self_similar(tau_R=3.0)
    p = np.geomspace(1e-2, 1e2, 40)
    assert np.allclose(observable_shape(m1, p), observable_shape(ref, p), rtol=0, atol=1e-14)
    # theta = 0 is the memoryless boundary: tau_R = 0 is a legal spec
    m0 = ModelSpec.stock_theta(tau_r=1.5, theta=0.0)
    assert m0.tau_R == 0.0
    assert np.allclose(observable_shape(m0, p), 1.0 / (1.0 + 1.5 * p), rtol=0, atol=1e-15)
    assert np.array_equal(force_shape(m0, p), np.ones_like(p))


def test_boltzmann_shape_against_oracle():
    m = ModelSpec.boltzmann(tau_R=0.5)
    assert abs(observable_shape(m, 20.0) - BOLTZ_Y_AT_U10) < 2e-15
    assert abs(force_shape(m, 20.0) - BOLTZ_G_AT_U10) < 2e-14
    assert observable_shape(m, 0.0) == 1.0
    assert force_shape(m, 0.0) == 1.0
    # force image turns negative beyond tau_R p = e (where W0(e^{1+u}) = u)
    assert force_shape(m, 2.0 * (np.e + 1e-6)) < 0.0
    assert force_shape(m, 2.0 * (np.e - 1e-6)) > 0.0


def test_differential_shape_against_oracle():
    m = ModelSpec.differential(tau_R=2.0)
    assert abs(observable_shape(m, 0.5) - DIFF_Y_AT_U1) < 2e-15
    assert observable_shape(m, 0.0) == 1.0
    assert force_shape(m, 0.0) == 1.0
    # g'(p) = tau_R y(p), by a centered difference
    h = 1e-6
    num = (force_shape(m, 0.5 + h) - force_shape(m, 0.5 - h)) / (2 * h)
    assert abs(num - 2.0 * observable_shape(m, 0.5)) < 1e-8


def test_fractional_closed_points():
    # theta = 1 makes the functional equation quadratic: y = sqrt(2) - 1
    m = ModelSpec.fractional(tau_r=1.0, theta=1.0)
    assert abs(solve_functional_shape(m, 2.0) - (np.sqrt(2.0) - 1.0)) < 1e-13
    # theta = 0 reduces to the memoryless stock shape
    m0 = ModelSpec.fractional(tau_r=2.0, theta=0.0)
    p = np.geomspace(1e-3, 1e3, 30)
    assert np.allclose(observable_shape(m0, p), 1.0 / (1.0 + 2.0 * p), rtol=0, atol=1e-15)


def test_scaling_limits_match_closed_forms():
    p = np.geomspace(1e-4, 1e4, 50)
    m0 = ModelSpec.scaling(tau_r=1.0, theta=0.0)
    assert np.allclose(observable_shape(m0, p), 1.0 / (1.0 + p), rtol=0, atol=1e-12)
    m1 = ModelSpec.scaling(tau_r=1.0, theta=1.0)
    ref = ModelSpec.linear_self_similar(tau_R=1.0)
    assert np.allclose(observable_shape(m1, p), observable_shape(ref, p), rtol=0, atol=1e-12)


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.8, 1.5, 2.0, 3.0])
def test_scaling_solves_its_own_equation(theta):
    m = ModelSpec.scaling(tau_r=0.7, theta=theta)
    p = np.geomspace(1e-3, 1e3, 60)
    y = observable_shape(m, p)
    y_scaled = observable_shape(m, theta * p)
    resid = np.abs(y * (0.7 * p + y_scaled) - 1.0)
    assert np.max(resid) < 1e-11
    assert np.all(y > 0)
    if theta < 1.0:
        assert np.all(y <= 1.0) and np.all(np.diff(y) < 0)
    else:
        # theta > 1 solutions ride a bounded log-periodic modulation
        # (discrete scale invariance), so only boundedness is asserted
        assert np.all(y < 1.1)


def test_scaling_chain_memory_does_not_grow_with_points_times_depth():
    # the audit grid of `audit --model scaling --theta 1.001 --n-real 300`:
    # its substitution chain is ~34 600 levels deep, so a points x depth node
    # matrix would take ~83 MB; the sweep needs O(points + depth)
    m = ModelSpec.scaling(tau_r=1.0, theta=1.001)
    p = np.logspace(-2.0, 2.0, 300)
    tracemalloc.start()
    try:
        resid = identity_residual(m, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(resid) < 1e-10
    assert peak <= 20e6


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.4, 2.5, 4.0])
def test_fractional_solves_its_own_equation(theta):
    m = ModelSpec.fractional(tau_r=1.3, theta=theta)
    p = np.geomspace(1e-3, 1e3, 60)
    y = observable_shape(m, p)
    resid = np.abs(y * (1.3 * p + y**theta) - 1.0)
    assert np.max(resid) < 1e-11


def test_identity_residual_all_variants_real_axis():
    p = np.geomspace(1e-3, 1e3, 40)
    specs = [
        ModelSpec.white_noise(1.0),
        ModelSpec.linear_self_similar(2.0),
        ModelSpec.stock_theta(tau_r=1.0, theta=0.6),
        ModelSpec.scaling(tau_r=1.0, theta=1.7),
        ModelSpec.fractional(tau_r=1.0, theta=2.4),
        ModelSpec.boltzmann(1.0),
        ModelSpec.differential(1.0),
    ]
    for m in specs:
        r = identity_residual(m, p)
        assert np.max(r) < 1e-10, m.variant


def test_identity_residual_complex_plane():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.01, 20.0, 100) + 1j * rng.uniform(-20.0, 20.0, 100)
    for m in [
        ModelSpec.white_noise(0.8),
        ModelSpec.linear_self_similar(1.7),
        ModelSpec.stock_theta(tau_r=0.9, theta=1.3),
    ]:
        r = identity_residual(m, p)
        assert np.max(r) < 1e-12, m.variant


SHARED_ROOT_SPECS = [
    ModelSpec.white_noise(0.8),
    ModelSpec.linear_self_similar(1.7),
    *(ModelSpec.stock_theta(tau_r=0.9, theta=theta) for theta in (0.0, 0.6, 1.0, 2.5)),
    *(ModelSpec.scaling(tau_r=1.2, theta=theta) for theta in (0.0, 0.5, 1.0, 1.7)),
    *(ModelSpec.fractional(tau_r=1.2, theta=theta) for theta in (0.0, 0.5, 2.4)),
    ModelSpec.boltzmann(1.3),
    ModelSpec.differential(0.7),
]


@pytest.mark.parametrize("m", SHARED_ROOT_SPECS, ids=lambda m: f"{m.variant.value}-{m.theta}")
def test_identity_residual_is_the_closure_of_the_two_shapes_bit_for_bit(m):
    # the residual evaluates the root y and g share once; its bits must be
    # those of the closure written with the two public shapes
    rng = np.random.default_rng(11)
    grids = [np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60) / m.corr_time])]
    if m.complex_capable:
        grids.append(rng.uniform(0.0, 20.0, 50) + 1j * rng.uniform(-20.0, 20.0, 50))
    for p in grids:
        closure = np.abs(observable_shape(m, p) * (m.corr_time * p + force_shape(m, p)) - 1.0)
        assert identity_residual(m, p).tobytes() == closure.tobytes()
        for q in p[::7]:  # a scalar p computes in numpy scalars, as the closure does
            want = np.abs(observable_shape(m, q) * (m.corr_time * np.asarray(q) + force_shape(m, q)) - 1.0)
            assert np.float64(identity_residual(m, q)).tobytes() == np.float64(want).tobytes()


EMPTY_GRID_CASES = [
    *((variant, shape) for variant in CATALOG
      for shape in (observable_shape, force_shape, identity_residual)),
    (Variant.SCALING, solve_functional_shape),
    (Variant.FRACTIONAL, solve_functional_shape),
]


@pytest.mark.parametrize("variant,shape", EMPTY_GRID_CASES,
                         ids=lambda case: getattr(case, "value", getattr(case, "__name__", None)))
def test_an_empty_p_grid_gives_an_empty_array(variant, shape):
    row = CATALOG[variant]
    m = row.make(tau_r=1.0, theta=1.5) if row.family == "stock" else row.make(1.0)
    out = shape(m, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("theta", [0.5, 1.5, 3.0])
def test_fractional_residual_solves_once_per_grid(monkeypatch, theta):
    calls = []
    original = models.solve_functional_shape

    def counted(model, p):
        calls.append(np.size(p))
        return original(model, p)

    monkeypatch.setattr(models, "solve_functional_shape", counted)
    m = ModelSpec.fractional(tau_r=1.0, theta=theta)
    identity_residual(m, np.geomspace(1e-2, 1e2, 300))
    assert calls == [300]


@pytest.mark.parametrize("theta,grid", [(1.01, np.geomspace(1e2, 1e6, 40)),
                                        (0.99, np.geomspace(1e-7, 1e-3, 40))])
def test_solvable_is_where_a_one_point_solve_does_not_raise(monkeypatch, theta, grid):
    # with the bound at 2000 levels the chain depth crosses it inside each grid
    monkeypatch.setattr(models, "_CHAIN_MAX_DEPTH", 2000)
    m = ModelSpec.scaling(tau_r=1.0, theta=theta)
    solved = []
    for p in grid:
        try:
            solve_functional_shape(m, p)
            solved.append(True)
        except SolverError as err:
            assert str(err) == (f"substitution chain for theta = {theta} exceeds 2000 levels "
                                "(achieved inf)")
            solved.append(False)
    assert 0 < sum(solved) < grid.size
    assert models._solvable(m, grid).tolist() == solved
    # the whole grid, with its unreachable points, raises as one point does
    with pytest.raises(SolverError, match="exceeds 2000 levels"):
        identity_residual(m, grid)


def test_solvable_validates_p_as_the_shapes_do():
    scaling = ModelSpec.scaling(tau_r=1.0, theta=1.00015)
    assert models._solvable(scaling, [0.0, 0.01, 100.0]).tolist() == [True, False, True]
    assert models._solvable(ModelSpec.scaling(tau_r=1.0, theta=1.0), [1e300]).all()
    assert models._solvable(ModelSpec.stock_theta(tau_r=1.0, theta=1.5), 1.0 + 2.0j).all()
    with pytest.raises(CapabilityError, match="real axis only"):
        models._solvable(ModelSpec.scaling(tau_r=1.0, theta=1.5), [1.0 + 1.0j])
    with pytest.raises(DomainError):
        models._solvable(ModelSpec.fractional(tau_r=1.0, theta=1.5), [-1.0])


@settings(max_examples=150, deadline=None)
@given(
    theta=st.floats(0.0, 4.0),
    logp=st.floats(-3.0, 3.0),
)
def test_stock_identity_property(theta, logp):
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    assert identity_residual(m, 10.0**logp) < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(0.05, 4.0).filter(lambda t: abs(t - 1.0) > 0.02),
    logp=st.floats(-3.0, 3.0),
)
def test_scaling_identity_property(theta, logp):
    m = ModelSpec.scaling(tau_r=1.0, theta=theta)
    assert identity_residual(m, 10.0**logp) < 1e-10


def test_classify_theta_bands():
    assert classify_theta(0.0) is StockClass.HEAVY
    assert classify_theta(2.0 / 3.0 - 1e-9) is StockClass.HEAVY
    assert classify_theta(2.0 / 3.0) is StockClass.NEUTRAL
    assert classify_theta(1.0) is StockClass.NEUTRAL
    assert classify_theta(4.0 / 3.0) is StockClass.LIGHT
    assert classify_theta(2.0 - 1e-9) is StockClass.LIGHT
    assert classify_theta(2.0) is StockClass.ULTRA_LIGHT
    assert classify_theta(17.0) is StockClass.ULTRA_LIGHT
    with pytest.raises(DomainError):
        classify_theta(-0.1)
    assert ModelSpec.stock_theta(tau_r=1.0, theta=1.0).stock_class is StockClass.NEUTRAL
    assert ModelSpec.white_noise(1.0).stock_class is None


def test_closed_form_acfs():
    t = np.linspace(0.0, 10.0, 101)
    m = ModelSpec.white_noise(2.0)
    assert np.allclose(closed_form_acf(m, t), np.exp(-t / 2.0), rtol=0, atol=1e-15)
    m = ModelSpec.linear_self_similar(2.0)
    assert np.allclose(closed_form_acf(m, t), lambda1(t), rtol=0, atol=1e-15)
    m = ModelSpec.stock_theta(tau_r=1.0, theta=2.0)
    assert np.allclose(closed_form_acf(m, t), bessel_j0(t), rtol=0, atol=1e-15)
    m = ModelSpec.stock_theta(tau_r=1.0, theta=0.5)
    assert np.max(np.abs(closed_form_acf(m, t) - jv_series_acf(0.5, t))) < 1e-13
    with pytest.raises(CapabilityError):
        closed_form_acf(ModelSpec.boltzmann(1.0), t)


def jv_series_acf(theta, t):
    """Stock ACF at tau_r = 1 as a direct scipy.special.jv sum of the Neumann
    series sum_n a_n [J_2n(x) + J_2n+2(x)], x = 2 t / theta, plus the theta > 2
    line."""
    x = 2.0 * t / theta
    if theta < 2.0:
        first, ratio = 1.0, 1.0 - theta
    else:
        first, ratio = 1.0 / (theta - 1.0), 1.0 / (1.0 - theta)
    c = np.zeros_like(x)
    for n in range(int(np.max(x) + 10.0 * np.cbrt(np.max(x)) + 60.0) // 2):
        c += first * ratio**n * (jv(2 * n, x) + jv(2 * n + 2, x))
    if theta > 2.0:
        omega = 1.0 / np.sqrt(theta - 1.0)
        c += (theta - 2.0) / (theta - 1.0) * np.cos(omega * t)
    return c


@pytest.mark.parametrize("theta", [0.05, 0.5, 1.5, 1.9, 2.5, 3.0, 10.0])
def test_stock_series_matches_a_direct_jv_sum(theta):
    t = np.concatenate([[0.0, 1e-9, 4e-4, 2e-3], np.linspace(0.01, 6.0 * theta, 301)])
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    assert np.max(np.abs(closed_form_acf(m, t) - jv_series_acf(theta, t))) < 1e-13


def test_series_telescopes_to_lambda1_and_j0():
    # the general path at theta = 1 (a_n = 0^n) and theta = 2 (a_n = (-1)^n)
    x = np.linspace(0.0, 800.0, 4001)
    assert np.max(np.abs(neumann_series(x, 1.0, 0.0) - lambda1(x))) < 1e-13
    assert np.max(np.abs(neumann_series(x, 1.0, -1.0) - bessel_j0(x))) < 1e-13


def test_series_is_continuous_across_theta_2():
    t = np.linspace(0.0, 100.0, 2001)
    j0 = closed_form_acf(ModelSpec.stock_theta(tau_r=1.0, theta=2.0), t)
    for theta in (2.0 - 1e-9, 2.0 + 1e-9):
        c = closed_form_acf(ModelSpec.stock_theta(tau_r=1.0, theta=theta), t)
        assert np.max(np.abs(c - j0)) < 1e-8


def test_small_theta_series_is_refused_before_any_work():
    # theta = 1e-6 needs ~2e7 recurrence orders for lag 9.9: refused at once
    # with the count, where summing it would take minutes
    m = ModelSpec.stock_theta(tau_r=1.0, theta=1e-6)
    with pytest.raises(InputError, match=r"need [0-9.]+e\+10 recurrence steps"):
        closed_form_acf(m, 0.1 * np.arange(100))
    with pytest.raises(InputError):
        closed_form_acf(m, 9.9)


def test_fit_grid_stays_under_the_series_work_bound():
    # the smallest fitted theta on estimate's lattice, on its model-curve grid
    grid = np.linspace(0.0, estimate._U_MAX, estimate._U_POINTS)
    m = ModelSpec.stock_theta(tau_r=1.0, theta=estimate._THETA_STEP)
    assert np.all(np.isfinite(closed_form_acf(m, grid)))


@pytest.mark.parametrize("theta", [0.3, 1.5, 1.999, 2.001, 2.5, 3.0, 7.3])
def test_stock_acf_is_exactly_one_at_lag_zero(theta):
    m = ModelSpec.stock_theta(tau_r=0.7, theta=theta)
    assert closed_form_acf(m, 0.0) == 1.0
    assert closed_form_acf(m, np.array([2.0, 0.0, 1.0]))[1] == 1.0


@given(
    st.floats(min_value=0.02, max_value=2.0),
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_stock_acf_is_bounded_by_one_up_to_theta_2(theta, lags):
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta)
    assert np.all(np.abs(closed_form_acf(m, np.array(lags))) <= 1.0)


def test_constructor_validation():
    with pytest.raises(InputError):
        ModelSpec.white_noise(0.0)
    with pytest.raises(InputError):
        ModelSpec.white_noise(-1.0)
    with pytest.raises(InputError):
        ModelSpec.stock_theta(tau_r=0.0, theta=1.0)
    with pytest.raises(InputError):
        ModelSpec.stock_theta(tau_r=1.0, theta=-0.5)
    with pytest.raises(InputError):
        ModelSpec.stock_theta(tau_r=1.0)
    with pytest.raises(InputError):
        ModelSpec.stock_theta(tau_r=1.0, theta=1.0, tau_R=1.0)
    with pytest.raises(InputError):
        ModelSpec(Variant.WHITE_NOISE, tau_R=1.0, tau_r=1.0)
    with pytest.raises(InputError):
        ModelSpec.white_noise(1.0, variance=0.0)
    # theta and tau_R routes agree
    a = ModelSpec.stock_theta(tau_r=2.0, theta=1.5)
    b = ModelSpec.stock_theta(tau_r=2.0, tau_R=3.0)
    assert a == b


def test_catalog_rows_build_their_own_variant():
    assert list(CATALOG) == list(Variant)
    for variant, row in CATALOG.items():
        kwargs = {"theta": 1.5} if row.family == "stock" else {}
        assert row.make(1.0, **kwargs).variant is variant


def test_memoryless_is_white_or_theta_zero_stock():
    assert ModelSpec.white_noise(1.0).memoryless
    assert ModelSpec.stock_theta(tau_r=1.0, theta=0.0).memoryless
    assert not any(m.memoryless for m in (
        ModelSpec.stock_theta(tau_r=1.0, theta=0.5),
        ModelSpec.scaling(tau_r=1.0, theta=0.0),
        ModelSpec.linear_self_similar(1.0),
    ))


@pytest.mark.parametrize("tau", [0.37, 1.0, 2.9])
def test_white_and_selfsim_are_the_theta_0_and_theta_1_stocks(tau):
    # bit for bit on tau_r = tau_R, except the self-similar observable shape,
    # which keeps its own root y = g rather than 1/(tau_R p + g)
    lags = np.linspace(0.0, 40.0 * tau, 801)
    p = np.concatenate([[0.0], np.logspace(-3, 3, 60) / tau])
    z = p[1:] * np.exp(0.7j)
    for market, theta in ((ModelSpec.white_noise(tau), 0.0), (ModelSpec.linear_self_similar(tau), 1.0)):
        stock = ModelSpec.stock_theta(tau_r=tau, theta=theta)
        assert np.array_equal(closed_form_acf(market, lags), closed_form_acf(stock, lags))
        for q in (p, z):
            assert np.array_equal(force_shape(market, q), force_shape(stock, q))
        assert spectral_atom(market) is spectral_atom(stock) is None
        assert market.memoryless == stock.memoryless == (theta == 0.0)
        for make in (observable_evaluator, force_evaluator):
            assert make(market).transform_scale == make(stock).transform_scale
            assert make(market).freq_scale == make(stock).freq_scale
        draw = [simulate_stationary_ensemble(m, 0.125, 512, 2, seed=7).paths for m in (market, stock)]
        assert np.array_equal(*draw)
        if theta == 0.0:
            assert np.array_equal(observable_shape(market, p), observable_shape(stock, p))
            continue
        assert np.array_equal(memory_kernel(market, 0.05, 400).values,
                              memory_kernel(stock, 0.05, 400).values)
        omega = np.linspace(0.0, 3.0 / tau, 200)
        assert np.array_equal(band_variance(market, omega), band_variance(stock, omega))
        for q in (p, z):
            y, y_stock = observable_shape(market, q), observable_shape(stock, q)
            assert np.all(np.abs(y - y_stock) <= 1e-15 * np.abs(y_stock))


def test_readme_catalog_table_is_the_rendered_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Model catalog\n", 1)[1].lstrip("\n").splitlines(keepends=True)
    table = []
    for line in section:
        if not line.startswith("|"):
            break
        table.append(line)
    assert "".join(table) == render_catalog()


def test_domain_and_capability_errors():
    m = ModelSpec.fractional(tau_r=1.0, theta=1.5)
    with pytest.raises(CapabilityError):
        observable_shape(m, 1.0 + 1.0j)
    with pytest.raises(CapabilityError):
        force_shape(ModelSpec.scaling(tau_r=1.0, theta=1.5), 1.0 + 1.0j)
    with pytest.raises(DomainError):
        observable_shape(m, -0.5)
    with pytest.raises(DomainError):
        observable_shape(ModelSpec.white_noise(1.0), -1.0 + 2.0j)
    with pytest.raises(CapabilityError):
        solve_functional_shape(ModelSpec.white_noise(1.0), 1.0)
    # the functional solver takes p by the shapes' own rule: off the real
    # axis is a capability gap whatever the sign of Re p, a zero imaginary
    # part is real, and a negative real p is out of the domain
    for model in (m, ModelSpec.scaling(tau_r=1.0, theta=1.5)):
        for p in (1.0 + 1.0j, -1.0 + 1.0j, np.array([0.5, 1.0 + 1.0j])):
            with pytest.raises(CapabilityError):
                solve_functional_shape(model, p)
        assert solve_functional_shape(model, 2.0 + 0.0j) == observable_shape(model, 2.0 + 0.0j)
        with pytest.raises(DomainError):
            solve_functional_shape(model, -0.5)


def test_shape_evaluators():
    m = ModelSpec.stock_theta(tau_r=2.0, theta=1.5, variance=4.0)
    obs = observable_evaluator(m)
    frc = force_evaluator(m)
    assert obs.complex_capable and frc.complex_capable
    assert obs.image_zero == pytest.approx(4.0 * 2.0)
    assert frc.image_zero == pytest.approx(4.0 / 2.0)
    assert obs.transform_scale == pytest.approx(2.0)
    assert frc.transform_scale == pytest.approx(3.0)
    assert obs.peak_variance == pytest.approx(4.0)
    # force peak variance = image_zero / transform_scale = <x^2>/(tau_r tau_R)
    assert frc.peak_variance == pytest.approx(4.0 / (2.0 * 3.0))
    assert obs(0.0) == 1.0
    assert obs.image(0.0) == pytest.approx(8.0)
    # white force is a delta: no time-domain scale
    w = force_evaluator(ModelSpec.white_noise(1.0))
    assert w.transform_scale is None and w.peak_variance is None
    with pytest.raises(InputError):
        ShapeEvaluator(m, "other")


def test_scalar_array_round_trip():
    m = ModelSpec.linear_self_similar(1.0)
    assert isinstance(observable_shape(m, 1.0), float)
    assert isinstance(observable_shape(m, 1.0 + 0.5j), complex)
    out = observable_shape(m, np.array([0.0, 1.0]))
    assert out.shape == (2,) and out[0] == 1.0


def test_spectral_atom_closed_values():
    # omega = 1/(tau_r sqrt(theta-1)), weight = (theta-2)/(2(theta-1))
    om, w = spectral_atom(ModelSpec.stock_theta(tau_r=1.0, theta=2.5, variance=1.0))
    assert om == pytest.approx(1.0 / np.sqrt(1.5), rel=1e-14)
    assert w == pytest.approx(1.0 / 6.0, rel=1e-14)
    om, w = spectral_atom(ModelSpec.stock_theta(tau_r=2.0, theta=3.0, variance=1.0))
    assert om == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), rel=1e-14)
    assert w == pytest.approx(0.25, rel=1e-14)
    om, w = spectral_atom(ModelSpec.stock_theta(tau_r=0.5, theta=4.0, variance=1.0))
    assert om == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-14)
    assert w == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_spectral_atom_none_and_errors():
    assert spectral_atom(ModelSpec.stock_theta(tau_r=1.0, theta=2.0, variance=1.0)) is None
    assert spectral_atom(ModelSpec.stock_theta(tau_r=1.0, theta=1.5, variance=1.0)) is None
    assert spectral_atom(ModelSpec.stock_theta(tau_r=1.0, theta=0.0, variance=1.0)) is None
    assert spectral_atom(ModelSpec.white_noise(1.0)) is None
    assert spectral_atom(ModelSpec.linear_self_similar(1.0)) is None
    for bad in (
        ModelSpec.boltzmann(1.0),
        ModelSpec.differential(1.0),
        ModelSpec.scaling(tau_r=1.0, theta=3.0),
        ModelSpec.fractional(tau_r=1.0, theta=3.0),
    ):
        with pytest.raises(CapabilityError):
            spectral_atom(bad)


def test_spectral_atom_is_a_pole_of_the_return_image():
    # residue of the normalized image at i*omega equals the line weight
    for theta, tau_r in ((2.5, 1.0), (3.0, 2.0), (4.0, 0.5), (10.0, 1.0)):
        m = ModelSpec.stock_theta(tau_r=tau_r, theta=theta, variance=1.0)
        om, w = spectral_atom(m)
        p = 1e-5 / tau_r + 1j * om
        residue = (p - 1j * om) * observable_shape(m, p) * tau_r
        assert abs(residue - w) < 3e-5


@pytest.mark.parametrize("model", [
    ModelSpec.linear_self_similar(tau_R=1.3, variance=2.0),
    ModelSpec.stock_theta(tau_r=0.7, theta=0.05, variance=2.0),
    ModelSpec.stock_theta(tau_r=0.7, theta=0.5, variance=2.0),
    ModelSpec.stock_theta(tau_r=0.7, theta=1.5, variance=2.0),
    ModelSpec.stock_theta(tau_r=0.7, theta=3.0, variance=2.0),
], ids=["selfsim", "stock0.05", "stock0.5", "stock1.5", "stock3"])
def test_band_variance_integrates_the_spectral_density(model):
    # (1/pi) times the midpoint sum of the sampled density, 2e5 points
    band, n = 2.0 / model.tau_R, 200_000
    w = (np.arange(n) + 0.5) * (band / n)
    s = spectral_density(observable_evaluator(model), w).values
    running = np.cumsum(s)[999::1000] * (band / n) / np.pi
    edges = band * np.arange(1000, n + 1, 1000) / n
    assert np.max(np.abs(band_variance(model, edges) - running)) <= 5e-8


def test_band_variance_at_the_band_edge():
    # the continuum holds the whole variance up to theta = 2, and beyond it
    # all but the spectral line's 2 R
    for theta in (0.5, 1.0, 1.5, 2.0):
        m = ModelSpec.stock_theta(tau_r=0.7, theta=theta, variance=1.5)
        assert band_variance(m, 2.0 / m.tau_R) == pytest.approx(1.5, abs=1e-15)
        assert band_variance(m, [0.0, 1e3 / m.tau_R]).tolist() == [0.0, band_variance(m, 2.0 / m.tau_R)]
    for theta in (2.01, 2.5, 3.0, 10.0):
        m = ModelSpec.stock_theta(tau_r=0.7, theta=theta, variance=1.0)
        assert abs(band_variance(m, 2.0 / m.tau_R) + 2.0 * spectral_atom(m)[1] - 1.0) <= 1e-14


def test_band_variance_is_continuous_through_theta_one():
    # the atan2 form keeps its digits as theta - 1 -> 0, where a complex-log
    # antiderivative with a 1/(theta - 1) factor cancels (1e-4 off at 1e-12)
    w = np.linspace(0.0, 2.0, 10001)
    exact = band_variance(ModelSpec.stock_theta(tau_r=1.0, tau_R=1.0), w)
    for eps in (1e-13, 1e-11, 1e-9, -1e-13, -1e-11, -1e-9):
        m = ModelSpec.stock_theta(tau_r=1.0 / (1.0 + eps), tau_R=1.0)
        assert np.max(np.abs(band_variance(m, w) - exact)) <= 1e-9, eps


def test_band_variance_refuses_models_without_a_band():
    for bad in (
        ModelSpec.white_noise(1.0),
        ModelSpec.stock_theta(tau_r=1.0, theta=0.0),
        ModelSpec.boltzmann(1.0),
        ModelSpec.scaling(tau_r=1.0, theta=3.0),
    ):
        with pytest.raises(CapabilityError, match="no band-limited spectrum"):
            band_variance(bad, [0.0, 1.0])


@given(st.floats(min_value=2.0, max_value=50.0, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_spectral_atom_lies_outside_the_force_band(theta):
    m = ModelSpec.stock_theta(tau_r=1.0, theta=theta, variance=1.0)
    om, w = spectral_atom(m)
    # the gap above the band edge is (theta-2)^2/(2 sqrt(theta-1)) + ...,
    # quadratically small at the boundary, so allow roundoff there
    assert om * m.tau_R >= 2.0 * (1.0 - 1e-12)
    if theta >= 2.001:
        assert om * m.tau_R > 2.0
    assert 0.0 < w < 0.5
