"""The package's public names."""

import splitstat


def test_every_exported_name_resolves():
    missing = [name for name in splitstat.__all__ if not hasattr(splitstat, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from splitstat import *", namespace)
    assert set(splitstat.__all__) <= set(namespace)
