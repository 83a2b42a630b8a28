"""The public surface: every name a minsurf module exports exists."""

import importlib
import pkgutil

import pytest

import minsurf

MODULES = ["minsurf"] + [f"minsurf.{m.name}" for m in pkgutil.iter_modules(minsurf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
