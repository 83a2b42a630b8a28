"""The README and the demos name the program as it is: every quoted
`NAME = value` is a minsurf module constant with that value, every quoted
`*_TOL` name exists, every quoted call of an underscored name is a name of a
minsurf module, every quoted private name is an attribute of a minsurf module
or of a class in one, and every `ms.<name>` of a demo is a name of minsurf.
The private names that the program's own docstrings and comments quote in
double backquotes obey the README's rule."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import minsurf

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# constant-style names have an underscore; single letters are the maths
QUOTE = re.compile(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+) = ([^`]+)`")
TOL_NAME = re.compile(r"\b[A-Z][A-Z0-9_]*_TOL\b")


def _modules():
    return [importlib.import_module(f"minsurf.{info.name}")
            for info in pkgutil.iter_modules(minsurf.__path__)]


def _constants():
    """Every upper-case module-level name of every minsurf module, with the
    values it has (one per module that defines it)."""
    found = {}
    for module in _modules():
        for name, value in vars(module).items():
            if name.isupper():
                found.setdefault(name, []).append(value)
    return found


def _code_spans(text):
    return re.findall(r"`([^`\n]+)`", text)


def test_quoted_constants_have_their_values():
    text = README.read_text(encoding="utf-8")
    quotes = QUOTE.findall(text)
    assert quotes, "the README quotes no constant"
    constants = _constants()
    wrong = [f"{name} = {value}" for name, value in quotes
             if ast.literal_eval(value) not in constants.get(name, [])]
    assert wrong == []


def test_quoted_tolerance_names_exist():
    constants = _constants()
    named = {name for span in _code_spans(README.read_text(encoding="utf-8"))
             for name in TOL_NAME.findall(span)}
    assert named
    assert sorted(named - set(constants)) == []


def test_quoted_calls_name_the_program():
    # `name(...)` with an underscore in the name is a program call, not maths
    calls = {name.rsplit(".", 1)[-1]
             for span in _code_spans(README.read_text(encoding="utf-8"))
             for name in re.findall(r"([A-Za-z_][\w.]*)\(", span)}
    calls = {name for name in calls if "_" in name}
    assert calls
    modules = [minsurf, *_modules()]
    assert sorted(n for n in calls if not any(hasattr(m, n) for m in modules)) == []


def _private_names(spans):
    """The last parts of the bare or dotted names in ``spans`` that have one
    leading underscore, such as `_round_fluxes` or `weierstrass._ClosedForm`;
    a name after `*` (the pattern `*_pi`) is no name."""
    return {name.rsplit(".", 1)[-1]
            for span in spans
            for name in re.findall(r"(?<![\w*])[A-Za-z_][\w.]*", span)
            if re.match(r"_[A-Za-z]", name.rsplit(".", 1)[-1])}


def _missing_from_the_program(names):
    owners = _modules()
    owners += [cls for module in owners for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__.startswith("minsurf")]
    return sorted(n for n in names if not any(hasattr(o, n) for o in owners))


def test_quoted_private_names_name_the_program():
    # a private part of the program, which the README must not go on naming
    # once it is gone
    private = _private_names(_code_spans(README.read_text(encoding="utf-8")))
    assert private
    assert _missing_from_the_program(private) == []


def test_source_quotes_name_the_program():
    # the same rule for the ``name`` spans of the program's docstrings and
    # comments and of the demos, so that none goes on naming a deleted helper
    files = sorted((ROOT / "src" / "minsurf").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    private = {(path.name, name) for path in files
               for name in _private_names(re.findall(r"``([^`]+)``",
                                                     path.read_text(encoding="utf-8")))}
    assert private
    missing = set(_missing_from_the_program({name for _path, name in private}))
    assert sorted(pair for pair in private if pair[1] in missing) == []


def test_demo_names_exist():
    named = {(demo.name, name) for demo in sorted((ROOT / "demos").glob("*.py"))
             for name in re.findall(r"\bms\.(\w+)", demo.read_text(encoding="utf-8"))}
    assert named
    assert sorted((demo, name) for demo, name in named if not hasattr(minsurf, name)) == []
