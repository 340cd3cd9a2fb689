"""The package's top-level namespace: every exported name resolves."""

import pytest

import glemarket


def test_every_exported_name_resolves():
    missing = [name for name in glemarket.__all__ if not hasattr(glemarket, name)]
    assert missing == []
    assert len(set(glemarket.__all__)) == len(glemarket.__all__)


def test_dir_lists_every_exported_name_and_submodule():
    listed = set(dir(glemarket))
    assert set(glemarket.__all__) <= listed
    assert {"cli", "estimate", "models", "volterra", "__version__"} <= listed


SUBMODULES = ("cli", "errors", "estimate", "laplace", "market", "models", "noise", "series",
              "specfun", "volterra")


def test_each_submodule_resolves_as_an_attribute():
    for name in SUBMODULES:
        module = getattr(glemarket, name)
        assert module.__name__ == f"glemarket.{name}"


def test_an_exported_name_is_its_module_s_object():
    from glemarket import estimate, volterra

    assert glemarket.fit_theta is estimate.fit_theta
    assert glemarket.simulate_stationary_ensemble is volterra.simulate_stationary_ensemble


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'glemarket' has no attribute 'no_such_name'$"):
        glemarket.no_such_name
    assert not hasattr(glemarket, "no_such_name")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from glemarket import *", namespace)
    assert set(glemarket.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(glemarket, name) for name in glemarket.__all__)
