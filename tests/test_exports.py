"""The public surface: every name a minsurf module exports exists and is
read outside the tests, none takes a tolerance, and every error class is
raised somewhere."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import minsurf
from minsurf import errors

MODULES = ["minsurf"] + [f"minsurf.{m.name}" for m in pkgutil.iter_modules(minsurf.__path__)]
ROOT = Path(__file__).resolve().parents[1]


def _traced():
    """The attribute names of ``bench/spans.py`` ``TRACED``."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _mod, attr, _name in module.TRACED}


def _reads():
    """Every name read (a ``Name`` or ``Attribute`` load) in the program,
    the benchmark and the demos, outside a definition of that name."""
    reads = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and isinstance(node.ctx, ast.Load) and name not in defining:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for folder in ("src", "bench", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return reads


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_every_export_is_read_outside_the_tests():
    # a name only the tests read is a second reader of something the program
    # reads another way; the benchmark's traced functions and the tests'
    # path-integral reference (quadrature.route_path) are the exceptions
    reads = _reads() | _traced() | {"route_path"}
    unread = sorted(f"{name}.{n}" for name in MODULES
                    for n, obj in vars(importlib.import_module(name)).items()
                    if n in getattr(importlib.import_module(name), "__all__", ())
                    and not inspect.ismodule(obj) and n not in reads)
    assert unread == []


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
