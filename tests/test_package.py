"""The package's top-level namespace: every exported name resolves."""

import glemarket


def test_every_exported_name_resolves():
    missing = [name for name in glemarket.__all__ if not hasattr(glemarket, name)]
    assert missing == []
    assert len(set(glemarket.__all__)) == len(glemarket.__all__)
