"""The benchmark tracer (perfbench/spans.py) patches package functions by
name; every site it lists must still exist, or a traced run fails."""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path,attr", sorted({(path, attr) for path, attr, _, _ in spans.SITES}))
def test_site_resolves(path, attr):
    assert hasattr(spans._resolve(path), attr)
