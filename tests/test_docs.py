"""The README quotes the program's constants as they are: every quoted
`NAME = value` is a minsurf module constant with that value, and every
quoted `*_TOL` name exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import minsurf

README = Path(__file__).resolve().parent.parent / "README.md"
# constant-style names have an underscore; single letters are the maths
QUOTE = re.compile(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+) = ([^`]+)`")
TOL_NAME = re.compile(r"\b[A-Z][A-Z0-9_]*_TOL\b")


def _constants():
    """Every upper-case module-level name of every minsurf module, with the
    values it has (one per module that defines it)."""
    found = {}
    for info in pkgutil.iter_modules(minsurf.__path__):
        module = importlib.import_module(f"minsurf.{info.name}")
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
