"""The public surface: every name a minsurf module exports exists, none
takes a tolerance, and every error class is raised somewhere."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import minsurf
from minsurf import errors

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


def test_every_error_class_is_raised():
    # an error no module raises (`raise X(`) is dead weight in errors.py
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.MinsurfError)}
    raised = set()
    for path in Path(minsurf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert len(classes) > 1
    assert sorted(classes - raised - {"MinsurfError"}) == []
