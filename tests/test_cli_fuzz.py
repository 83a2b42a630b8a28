"""The CLI contract under mutated input: `verify` and `analyze` end with exit
0, 1 or 2, never with a traceback, a numpy warning (pyproject.toml makes a
`RuntimeWarning` an error) or a NaN in a message, and a failing `analyze`
prints one line.  The mutants are seeded edits of the catalog documents: a
coefficient set or scaled, a term appended or dropped, the punctures
replaced, every numerator scaled."""

import copy
import random
import re
import sys

import pytest

import minsurf as ms
from minsurf import cli, wdfile

DOCS = [wdfile.document_from_data(entry.data)
        for entry in ms.catalog.entries(jm_range=range(1, 7))]
BIG = sys.float_info.max
VALUES = [0.0, 1.0, -1.0, 3.0, 2.0**60, 1e-17, 1e200, 1e-200, 1e308, -1e308, BIG,
          1e-308, 5e-324]
FACTORS = [1 + 1e-9, 1e6, 1e-6, 1e150, 1e-150, -1.0]
SCALES = [1e300, 1e-300, 2.0**1000, 2.0**-1000, 1e-20]
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def _doc(name):
    return copy.deepcopy(next(d for d in DOCS if d.label == name))


def _edit(doc, rng):
    num, den = rng.choice(doc.components)
    poly = rng.choice((num, den))
    op = rng.choice(("set", "scale", "append", "drop", "punctures", "numerators"))
    if op == "set":
        rng.choice(poly)[rng.randrange(2)] = rng.choice(VALUES)
    elif op == "scale":
        rng.choice(poly)[rng.randrange(2)] *= rng.choice(FACTORS)
    elif op == "append":
        poly.append([rng.uniform(-2, 2), rng.uniform(-2, 2)])
    elif op == "drop" and len(poly) > 1:
        poly.pop()
    elif op == "punctures":
        doc.punctures = rng.choice([None, ["inf"], [
            [rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(rng.randint(1, 4))]])
    elif op == "numerators":
        factor = rng.choice(SCALES)
        for num, _den in doc.components:
            for c in num:
                c[0] *= factor
                c[1] *= factor


def _mutants(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(DOCS))
        for _ in range(rng.randint(1, 4)):
            _edit(doc, rng)
        yield doc


def _set(name, comp, k, value):
    doc = _doc(name)
    doc.components[comp][0][k][0] = value
    return doc


# real parts of single coefficients set past the range that the cleared
# numerators, their squares over the unit, or a Taylor shift can hold
OUT_OF_RANGE = [
    (_set("generalized-jorge-meeks-m1", 0, 0, BIG),
     "a cleared numerator has a coefficient past the float range"),
    (_set("generalized-jorge-meeks-m1", 0, 0, 1e308),
     "the cleared numerators' squares leave the float range"),
    (_set("generalized-jorge-meeks-m1", 1, 2, BIG), "datum rejected: null identity violated"),
    (_set("generalized-jorge-meeks-m2", 0, 1, BIG),
     "a cleared numerator has a coefficient past the float range"),
]


def _run(doc, path, capsys):
    wdfile.dump(doc, path)
    out = {}
    for command in ("verify", "analyze"):
        code = cli.main([command, str(path)])
        out[command] = code, capsys.readouterr().err
    return out


def _check_contract(out):
    for command, (code, err) in out.items():
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in err and not NAN.search(err), (command, err)
    code, err = out["analyze"]
    assert code == 0 or len(err.splitlines()) == 1, err


@pytest.mark.parametrize("doc, message", OUT_OF_RANGE, ids=["m1-num0-max", "m1-num0-1e308",
                                                           "m1-c2-num2-max", "m2-num1-max"])
def test_out_of_range_coefficients_are_refused_in_one_line(doc, message, tmp_path, capsys):
    out = _run(doc, tmp_path / "doc.wd", capsys)
    _check_contract(out)
    code, err = out["analyze"]
    assert code == 1 and message in err


def test_mutated_catalog_documents_keep_the_contract(tmp_path, capsys):
    codes = []
    for doc in _mutants(250, seed=1):
        out = _run(doc, tmp_path / "doc.wd", capsys)
        _check_contract(out)
        codes.append(out["analyze"][0])
    # the draw reaches every exit code
    assert set(codes) == {0, 1, 2}
