"""The public surface: every name a minsurf module exports exists, and none
takes a tolerance."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_no_export_takes_a_tolerance(name):
    # every gate reads its one module constant; no caller can set one
    module = importlib.import_module(name)
    takes = []
    for n in getattr(module, "__all__", ()):
        obj = getattr(module, n)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # a builtin without a signature
                continue
            takes += [f"{n}({p})" for p in params if "tol" in p.lower()]
    assert takes == []
