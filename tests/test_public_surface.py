"""Every name a module lists in __all__ resolves, so that a removed name cannot linger there."""

import importlib
import pkgutil

import pytest

import starnoma

MODULES = ["starnoma", *sorted(m.name for m in pkgutil.iter_modules(starnoma.__path__, "starnoma."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
