"""The shared sampled-data containers refuse a step or variance that is not
a finite positive number; a path ensemble's seed lineage is filled for a
fresh draw and carried through every transform; and every function that
takes an ensemble refuses a wrong argument with one wording."""

import numpy as np
import pytest

from glemarket.errors import InputError
from glemarket.estimate import ensemble_acf
from glemarket.market import (MarketParams, price_from_returns, returns_from_prices,
                              simulate_gbm, simulate_white_returns)
from glemarket.models import ModelSpec
from glemarket.noise import NoiseRequest, generate_colored, generate_wiener_increments
from glemarket.series import AcfSeries, KernelSeries, PathEnsemble, SpectralDensity
from glemarket.volterra import integrate_gle, simulate_stationary_ensemble


@pytest.mark.parametrize("build", [
    lambda bad: PathEnsemble(h=bad, paths=np.ones((1, 4)), kind="price"),
    lambda bad: KernelSeries(h=bad, values=np.ones(4)),
    lambda bad: AcfSeries(h=bad, values=np.ones(4)),
    lambda bad: AcfSeries(h=0.1, values=np.ones(4), variance=bad),
], ids=["PathEnsemble.h", "KernelSeries.h", "AcfSeries.h", "AcfSeries.variance"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_step_and_variance_are_positive_and_finite(build, bad):
    # an infinite step used to pass, and returns_from_prices then divided
    # every log-price difference by it to an all-zero series
    with pytest.raises(InputError, match="must be positive and finite"):
        build(bad)


# -- seed lineage ------------------------------------------------------------------

FLAT = SpectralDensity(omega=np.array([0.0, 20.0 * np.pi]), values=np.array([0.1, 0.1]))

PRODUCERS = {
    "generate_colored": lambda seed: generate_colored(
        NoiseRequest(n_steps=32, n_paths=3, seed=seed, target_spectrum=FLAT, h=0.1)),
    "generate_wiener_increments": lambda seed: generate_wiener_increments(32, 0.1, 3, seed),
    "simulate_white_returns": lambda seed: simulate_white_returns(0.5, 1.0, 32, 0.1, 3, seed),
    "stationary-stock0": lambda seed: simulate_stationary_ensemble(
        ModelSpec.stock_theta(tau_r=0.5, theta=0.0), 0.1, 32, 3, seed),
    "stationary-stock1.5": lambda seed: simulate_stationary_ensemble(
        ModelSpec.stock_theta(tau_r=0.5, theta=1.5), 0.1, 32, 3, seed),
}


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
def test_a_fresh_draw_records_its_seed_and_every_row(produce):
    out = produce(29)
    assert (out.master_seed, out.stream_indices) == (29, (0, 1, 2))


# each function that takes an ensemble
TAKERS = {
    "simulate_gbm": lambda e: simulate_gbm(MarketParams(0.0, 0.2, 1.0), e),
    "price_from_returns": lambda e: price_from_returns(e, 0.0),
    "returns_from_prices": returns_from_prices,
    "integrate_gle": lambda e: integrate_gle(KernelSeries(h=0.1, values=np.ones(16)), e),
    "ensemble_acf": lambda e: ensemble_acf(e, 2),
}


@pytest.mark.parametrize("transform,kind", [
    ("simulate_gbm", "wiener-increment"),
    ("price_from_returns", "return-rate"),
    ("returns_from_prices", "price"),
    ("integrate_gle", "force"),
])
@pytest.mark.parametrize("seed,indices", [(None, ()), (7, (0, 1, 2)), (7, (4, 9, 2))],
                         ids=["unseeded", "fresh", "subset"])
def test_a_transform_keeps_its_inputs_step_and_lineage(transform, kind, seed, indices):
    paths = 1.0 + 0.01 * np.arange(48.0).reshape(3, 16)
    ensemble = PathEnsemble(h=0.1, paths=paths, kind=kind, master_seed=seed,
                            stream_indices=indices)
    out = TAKERS[transform](ensemble)
    assert (out.h, out.master_seed, out.stream_indices) == (0.1, seed, indices)


def test_an_unseeded_ensemble_keeps_no_indices():
    assert PathEnsemble(h=0.1, paths=np.ones((3, 4))).stream_indices == ()


def test_explicit_indices_must_match_the_rows():
    with pytest.raises(InputError, match="stream_indices length must match"):
        PathEnsemble(h=0.1, paths=np.ones((3, 4)), master_seed=1, stream_indices=(0, 1))


# -- the ensemble argument -----------------------------------------------------------


@pytest.mark.parametrize("taker,message", [
    ("simulate_gbm", "increments must be a PathEnsemble"),
    ("price_from_returns", "r_path must be a PathEnsemble"),
    ("returns_from_prices", "prices must be a PathEnsemble"),
    ("integrate_gle", "forcing must be a PathEnsemble"),
    ("ensemble_acf", "ensemble must be a PathEnsemble"),
])
def test_a_non_ensemble_is_refused(taker, message):
    with pytest.raises(InputError) as err:
        TAKERS[taker](np.ones((2, 16)))
    assert str(err.value) == message


# integrate_gle and ensemble_acf take an ensemble of any kind
@pytest.mark.parametrize("taker,message", [
    ("simulate_gbm", "increments must have kind 'wiener-increment', got 'force'"),
    ("price_from_returns", "r_path must have kind 'return-rate', got 'force'"),
    ("returns_from_prices", "prices must have kind 'price', got 'force'"),
])
def test_a_wrong_kind_is_refused(taker, message):
    with pytest.raises(InputError) as err:
        TAKERS[taker](PathEnsemble(h=0.1, paths=np.ones((2, 16)), kind="force"))
    assert str(err.value) == message
