"""The CLI contract under mutated input: `verify` and `analyze` end with exit
0, 1 or 2, never with a traceback, a numpy warning (pyproject.toml makes a
`RuntimeWarning` an error) or a NaN in a message, and a failing `analyze`
prints one line.  The mutants are seeded edits of the catalog documents: a
coefficient set or scaled, a term appended or dropped, the punctures
replaced, every numerator scaled, drawn from a seeded ``random.Random`` and,
by the same operators, by hypothesis.  A mutant that analyses keeps its
integers when its numerators are scaled by a power of two, or is refused by
a typed error.  `mesh` keeps the same contract over a
grid of radii at the edges of the float range, and writes no non-finite
vertex."""

import copy
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import minsurf as ms
from minsurf import cli, wdfile
from minsurf.errors import DatumRejectedError, MinsurfError

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


SHIFTS = [1, -1, 7, 60, -60, 400, -400]


def _integers(doc):
    """The integers `minsurf analyze` prints for the document, analysed in
    process: d, m, l, full and each end's mu and classification.  A datum
    that validation rejects raises ``DatumRejectedError``, as in the CLI."""
    rep = ms.run_analysis(doc.to_data())
    if not rep.valid:
        raise DatumRejectedError(doc.label, rep.validation.messages)
    ms.report_to_json(rep)
    c = rep.curvature
    return c.d, c.m, c.l, c.full, [(e.mu, e.classification) for e in rep.ends]


def _numerators_times(doc, j):
    """The document with every numerator part multiplied by 2^j (inf or a
    rounded subnormal past the float range)."""
    doc = copy.deepcopy(doc)
    for num, _den in doc.components:
        for c in num:
            c[0] *= 2.0**j
            c[1] *= 2.0**j
    return doc


@pytest.mark.filterwarnings("error")
def test_mutants_keep_their_integers_under_powers_of_two():
    # 47 of the 250 mutants analyse; of their 329 scalings 26 are refused by
    # a typed error and the rest keep every integer.  Reports are not
    # compared bitwise: mutants at the bottom of the float range (subnormal
    # numerator parts, or numerators near 5e-301) lie outside the README's
    # finite-and-normal regime of scale and move in their last digits even
    # at j = +-1
    analysed = 0
    for i, doc in enumerate(_mutants(250, seed=1)):
        try:
            want = _integers(doc)
        except MinsurfError:
            continue
        analysed += 1
        for j in SHIFTS:
            try:
                got = _integers(_numerators_times(doc, j))
            except MinsurfError:
                continue
            assert got == want, (i, j)
    assert analysed == 47


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.sampled_from(DOCS), edits=st.integers(1, 4),
       rng=st.randoms(use_true_random=False))
def test_drawn_mutants_keep_the_contract_and_their_integers(doc, edits, rng, tmp_path, capsys):
    # the seeded mutants' operators, drawn by hypothesis (derandomized, so
    # the draw is the same on every run): the CLI contract holds, and a
    # mutant that analyses keeps its integers under every power-of-two
    # scaling of its numerators or is refused by a typed error
    doc = copy.deepcopy(doc)
    for _ in range(edits):
        _edit(doc, rng)
    out = _run(doc, tmp_path / "doc.wd", capsys)
    _check_contract(out)
    try:
        want = _integers(doc)
    except MinsurfError:
        assert out["analyze"][0] != 0
        return
    assert out["analyze"][0] == 0
    for j in SHIFTS:
        try:
            got = _integers(_numerators_times(doc, j))
        except MinsurfError:
            continue
        assert got == want, j


MESH_RMIN = [1e-300, 1e-200, 1e-3, 1e-2]
MESH_RMAX = [0.5, 1e300, math.inf]
NONFINITE = re.compile(r"inf|nan", re.IGNORECASE)
# (catalog document, options, exit code) at the CLI's other defaults
MESH_EDGES = [
    # the ring at r_min raised to the clearance lay inside it by rounding
    ("generalized-jorge-meeks-m2", ["--rmin", "1e-3"], 0),
    # ring radii grew by 1.3 until the float range ended
    ("plane", ["--rmax", "inf"], 2),
    # the fan at infinity reaches 1e200, where Enneper's z^3 overflows
    ("enneper", ["--rmin", "1e-200"], 1),
]


def _mesh(doc, tmp_path, capsys, *options):
    """`minsurf mesh` of the document: its exit code, after the contract and
    the finiteness of every written vertex are checked."""
    path, obj = tmp_path / "doc.wd", tmp_path / "doc.obj"
    wdfile.dump(doc, path)
    for old in tmp_path.glob("doc.obj*"):
        old.unlink()
    code = cli.main(["mesh", str(path), "-o", str(obj), *options])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and not NAN.search(err), err
    assert code == 0 or len(err.splitlines()) == 1, err
    if obj.exists():
        vertices = [line for line in obj.read_text().splitlines() if line.startswith("v ")]
        assert not NONFINITE.search("\n".join(vertices))
    return code


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", [doc.label for doc in DOCS])
def test_mesh_keeps_the_contract_over_a_grid_of_radii(name, tmp_path, capsys):
    for rmin, rmax in itertools.product(MESH_RMIN, MESH_RMAX):
        _mesh(_doc(name), tmp_path, capsys, "--res", "8", "--rmin", repr(rmin),
              "--rmax", repr(rmax))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name, options, code", MESH_EDGES,
                         ids=["jm2-rmin-1e-3", "plane-rmax-inf", "enneper-rmin-1e-200"])
def test_mesh_radii_at_the_edges_end_as_stated(name, options, code, tmp_path, capsys):
    assert _mesh(_doc(name), tmp_path, capsys, *options) == code
