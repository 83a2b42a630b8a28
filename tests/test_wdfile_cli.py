"""Input-format round-trips and the command-line interface contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minsurf as ms
from minsurf import wdfile
from minsurf.errors import ParseError


# child interpreters import the minsurf under test, with or without PYTHONPATH
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(ms.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "minsurf.cli", *map(str, args)],
        capture_output=True, text=True, env=CHILD_ENV,
    )


@pytest.fixture()
def catenoid_file(tmp_path, catenoid):
    path = tmp_path / "catenoid.wd"
    wdfile.dump(wdfile.document_from_data(catenoid.data), path)
    return path


class TestFormat:
    def test_round_trip_exact(self, catenoid_file):
        doc1 = wdfile.load(catenoid_file)
        text = wdfile.dumps(doc1)
        doc2 = wdfile.loads(text)
        assert doc1.components == doc2.components
        assert doc1.punctures == doc2.punctures
        assert doc1.basepoint == doc2.basepoint
        assert wdfile.dumps(doc2) == text

    def test_to_data_matches_source(self, catenoid_file, catenoid):
        data = wdfile.load(catenoid_file).to_data()
        assert data.n == 3
        z = 1.7 - 0.4j
        for r1, r2 in zip(data.phi, catenoid.data.phi):
            assert abs(r1(z) - r2(z)) < 1e-14

    def test_punctures_optional(self, tmp_path, catenoid):
        doc = wdfile.document_from_data(catenoid.data)
        doc.punctures = None
        data = doc.to_data()
        assert len(data.punctures) == 2

    def test_malformed_json_line_column(self):
        with pytest.raises(ParseError) as err:
            wdfile.loads('{"n": 3,\n  "components": [}')
        assert err.value.line == 2

    def test_component_count_mismatch(self):
        with pytest.raises(ParseError):
            wdfile.loads(json.dumps({
                "n": 3,
                "components": [{"num": [[1, 0]], "den": [[1, 0]]}],
            }))

    def test_bad_pair_shape(self):
        with pytest.raises(ParseError):
            wdfile.loads(json.dumps({
                "n": 3,
                "components": [{"num": [[1, 0, 0]], "den": [[1, 0]]}] * 3,
            }))


class TestCliVerify:
    def test_valid_file_exit_zero(self, catenoid_file):
        out = run_cli("verify", catenoid_file)
        assert out.returncode == 0

    def test_invalid_datum_exit_one(self, tmp_path):
        # constant non-null datum
        path = tmp_path / "bad.wd"
        path.write_text(json.dumps({
            "n": 3,
            "label": "bad",
            "components": [
                {"num": [[1, 0]], "den": [[1, 0]]},
                {"num": [[0, 0]], "den": [[1, 0]]},
                {"num": [[0, 0]], "den": [[1, 0]]},
            ],
        }))
        out = run_cli("verify", path)
        assert out.returncode == 1
        assert "null" in out.stderr

    def test_malformed_file_exit_two(self, tmp_path):
        path = tmp_path / "broken.wd"
        path.write_text("{ not json")
        out = run_cli("verify", path)
        assert out.returncode == 2
        assert "line" in out.stderr

    def test_missing_file_exit_two(self):
        assert run_cli("verify", "/nonexistent/x.wd").returncode == 2


class TestCliStrictParse:
    """The CLI contract: malformed input and unreadable paths exit 2 with no
    traceback."""

    @pytest.fixture()
    def catenoid_doc(self, catenoid):
        return json.loads(wdfile.dumps(wdfile.document_from_data(catenoid.data)))

    @staticmethod
    def _exits_two(path):
        out = run_cli("analyze", path)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        return out

    def _analyze(self, tmp_path, doc):
        path = tmp_path / "edited.wd"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert "parse error" in self._exits_two(path).stderr

    def test_malformed_json(self, tmp_path):
        self._analyze(tmp_path, '{"n": 3,\n  "components": [}')

    def test_non_object_top_level(self, tmp_path, catenoid_doc):
        self._analyze(tmp_path, [catenoid_doc])

    @pytest.mark.parametrize("n", ["abc", 3.9, True])
    def test_non_integer_n(self, tmp_path, catenoid_doc, n):
        self._analyze(tmp_path, dict(catenoid_doc, n=n))

    def test_non_list_components(self, tmp_path, catenoid_doc):
        self._analyze(tmp_path, dict(catenoid_doc, components=catenoid_doc["components"][0]))

    def test_non_object_component(self, tmp_path, catenoid_doc):
        catenoid_doc["components"][1] = [[1, 0]]
        self._analyze(tmp_path, catenoid_doc)

    @pytest.mark.parametrize("entry", [[1, 0, 0], 5])
    def test_non_pair_coefficient(self, tmp_path, catenoid_doc, entry):
        catenoid_doc["components"][2]["den"][0] = entry
        self._analyze(tmp_path, catenoid_doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_coefficient(self, tmp_path, catenoid_doc, value):
        catenoid_doc["components"][0]["num"][0][0] = value
        self._analyze(tmp_path, catenoid_doc)

    @pytest.mark.parametrize("punctures", [5, "inf"])
    def test_non_list_punctures(self, tmp_path, catenoid_doc, punctures):
        self._analyze(tmp_path, dict(catenoid_doc, punctures=punctures))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.wd"
        path.write_bytes(b'\xff\xfe{"n":3}')
        assert "not UTF-8" in self._exits_two(path).stderr

    def test_directory_path(self, tmp_path):
        self._exits_two(tmp_path)

    def test_missing_file(self, tmp_path):
        self._exits_two(tmp_path / "missing.wd")


class TestCliAnalyze:
    def test_report_content_and_determinism(self, tmp_path):
        wd = tmp_path / "jm2.wd"
        out = run_cli("catalog", "generalized-jorge-meeks", "--param", 2, "-o", wd)
        assert out.returncode == 0
        j1 = tmp_path / "a.json"
        j2 = tmp_path / "b.json"
        r1 = run_cli("analyze", wd, "--json", j1)
        r2 = run_cli("analyze", wd, "--json", j2)
        assert r1.returncode == 0 and r2.returncode == 0
        body = lambda text: [l for l in text.splitlines() if not l.startswith("report written")]
        assert body(r1.stdout) == body(r2.stdout)
        assert j1.read_bytes() == j2.read_bytes()
        rep = json.loads(j1.read_text())
        assert rep["curvature"]["d"] == 4
        assert rep["curvature"]["tc_algebraic"]["symbolic"] == "-8*pi"
        assert rep["curvature"]["co_equality"] is True
        assert rep["verdicts"]["equality_consistent"] is True
        assert len(rep["ends"]) == 3
        assert all(e["embedded"] for e in rep["ends"])

    def test_counterexample_report(self, tmp_path, counterexample):
        wd = tmp_path / "ce.wd"
        wdfile.dump(wdfile.document_from_data(counterexample.data), wd)
        j = tmp_path / "ce.json"
        out = run_cli("analyze", wd, "--json", j)
        assert out.returncode == 0
        rep = json.loads(j.read_text())
        assert rep["curvature"]["tc_algebraic"]["symbolic"] == "-6*pi"
        assert rep["curvature"]["co_equality"] is False
        end0 = next(e for e in rep["ends"] if e["puncture"] != "inf")
        assert end0["mu"] == -3 and end0["k"] == 3
        assert end0["classification"] == "higher-order"

    def test_refuses_invalid(self, tmp_path):
        path = tmp_path / "bad.wd"
        path.write_text(json.dumps({
            "n": 3,
            "components": [
                {"num": [[1, 0]], "den": [[1, 0]]},
                {"num": [[0, 0]], "den": [[1, 0]]},
                {"num": [[0, 0]], "den": [[1, 0]]},
            ],
        }))
        assert run_cli("analyze", path).returncode == 1


class TestCliCatalog:
    def test_list_mode(self):
        out = run_cli("catalog")
        assert out.returncode == 0
        assert "catenoid" in out.stdout and "plane" in out.stdout

    def test_write_jorge_meeks_m3(self, tmp_path):
        path = tmp_path / "jm3.wd"
        out = run_cli("catalog", "generalized-jorge-meeks", "--param", 3, "-o", path)
        assert out.returncode == 0
        doc = wdfile.load(path)
        assert doc.n == 7
        assert len(doc.punctures) == 4

    def test_unknown_name_exit_two(self):
        out = run_cli("catalog", "nosuch")
        assert out.returncode == 2
        assert "catenoid" in out.stderr  # lists available names


class TestCliMesh:
    def test_obj_and_sidecar(self, tmp_path, counterexample):
        wd = tmp_path / "ce.wd"
        wdfile.dump(wdfile.document_from_data(counterexample.data), wd)
        obj = tmp_path / "ce.obj"
        out = run_cli("mesh", wd, "-o", obj, "--rmin", 0.2, "--rmax", 0.6,
                      "--res", 8, "--project", "1,2,3")
        assert out.returncode == 0
        assert obj.exists()
        sidecar = tmp_path / "ce.obj.coords.tsv"
        assert sidecar.exists()
        first = obj.read_text().splitlines()[0].split()
        assert first[0] == "v" and len(first) == 4

    def test_catenoid_obj(self, tmp_path, catenoid_file):
        obj = tmp_path / "cat.obj"
        out = run_cli("mesh", catenoid_file, "-o", obj, "--rmin", 0.1,
                      "--rmax", 0.5, "--res", 8)
        assert out.returncode == 0
        text = obj.read_text()
        assert text.startswith("v ") and "\nf " in text

    @pytest.mark.parametrize("args", [("--res", 4), ("--rmin", 1, "--rmax", 0.5),
                                      ("--project", "1,2"), ("--project", "a,b,c"),
                                      ("--project", "1,2,9")])
    def test_usage_error_exit_two(self, tmp_path, catenoid_file, args):
        obj = tmp_path / "cat.obj"
        out = run_cli("mesh", catenoid_file, "-o", obj, *args)
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and "Traceback" not in out.stderr
        assert not obj.exists()


class TestImport:
    def test_import_loads_no_scipy(self):
        # scipy is imported inside mesh.sample_domain only: every `minsurf`
        # command pays for `import minsurf`, and scipy doubles its cost
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, minsurf; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True, env=CHILD_ENV,
        )
        assert out.stdout.strip() == "[]"
