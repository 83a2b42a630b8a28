"""Input-format round-trips and the command-line interface contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minsurf as ms
from minsurf import cli, wdfile
from minsurf.errors import InternalConsistencyError, ParseError


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

    def test_an_underflowed_leading_vector_is_rejected(self, tmp_path, catenoid):
        # the catenoid with phi_1 = 1e308 (1 + z) / (2 z^2): over the unit,
        # 2^1023, the leading vector at infinity underflows and its null
        # defect is 0/0; a NaN defect fails the gate, and numpy warns of none
        doc = json.loads(wdfile.dumps(wdfile.document_from_data(catenoid.data)))
        doc["components"][0]["num"] = [[1e308, 0], [1e308, 0]]
        path = tmp_path / "huge.wd"
        path.write_text(json.dumps(doc))
        out = run_cli("verify", path)
        assert out.returncode == 1
        assert "RuntimeWarning" not in out.stderr
        for end in ("0j", "inf"):
            assert f"verify: end {end}: leading Laurent vector not null" in out.stderr

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


class TestCliBranched:
    """Branched data exit 1 with a message that names the branch point."""

    @pytest.mark.parametrize("name", ["enneper-branched", "enneper-branched-moebius"])
    @pytest.mark.parametrize("command", ["verify", "analyze", "mesh"])
    def test_refused(self, tmp_path, name, command):
        from conftest import branched_enneper

        wd = tmp_path / f"{name}.wd"
        wdfile.dump(wdfile.document_from_data(branched_enneper()[name], label=name), wd)
        obj = tmp_path / "out.obj"
        out = run_cli(command, wd, *(("-o", obj) if command == "mesh" else ()))
        assert out.returncode == 1
        assert "branch points" in out.stderr and "Traceback" not in out.stderr
        assert not obj.exists()


class TestCliScaled:
    """A positive factor on every component is a homothety: files scaled by
    1e150 and 1e-150 analyse to the unscaled integers and classifications."""

    @staticmethod
    def _analyze(tmp_path, name, w):
        wd, out = tmp_path / f"{name}.wd", tmp_path / f"{name}.json"
        wdfile.dump(wdfile.document_from_data(w, label=name), wd)
        res = run_cli("analyze", wd, "--json", out)
        assert res.returncode == 0, res.stderr
        rep = json.loads(out.read_text())
        ends = sorted((str(e["puncture"]), e["mu"], e["classification"], e["rotation_index"])
                      for e in rep["ends"])
        return rep["curvature"]["d"], ends, rep["verdicts"], rep["curvature"]["tc_numeric"]

    @pytest.mark.parametrize("name", ["catenoid", "enneper", "holomorphic_counterexample"])
    def test_scaled_files_analyse_as_unscaled(self, tmp_path, name):
        w = getattr(ms, name)().data
        d, ends, verdicts, tc = self._analyze(tmp_path, name, w)
        for s in (1e150, 1e-150):
            scaled = ms.WeierstrassData([ms.RationalMap(r.num * s, r.den) for r in w.phi])
            got = self._analyze(tmp_path, f"{name}-{s:g}", scaled)
            assert got[:3] == (d, ends, verdicts), s
            assert abs(got[3] - tc) <= 1e-14 * abs(tc), s


    def test_catalog_files_scaled_by_1e200_analyse(self, tmp_path, capsys):
        # the null identity's squares overflowed from about 1e160 up (a NaN
        # defect); the cleared numerators are now divided by the datum's unit
        for entry in ms.catalog.entries():
            w = entry.data
            scaled = ms.WeierstrassData([ms.RationalMap(r.num * 1e200, r.den) for r in w.phi])
            wd, out = tmp_path / f"{entry.name}.wd", tmp_path / f"{entry.name}.json"
            wdfile.dump(wdfile.document_from_data(scaled, label=entry.name), wd)
            assert cli.main(["analyze", str(wd), "--json", str(out)]) == 0, entry.name
            assert capsys.readouterr().err == ""
            rep = json.loads(out.read_text())
            want = entry.expected
            assert rep["curvature"]["d"] == want.d, entry.name
            assert sorted(e["mu"] for e in rep["ends"]) == sorted(want.end_orders), entry.name
            assert rep["verdicts"]["co_equality"] == want.co_equality, entry.name


class TestCliTinyTopTerm:
    @pytest.mark.parametrize("eps", [1e-14, 1e-13, 1e-12, 1e-11])
    def test_verify_and_analyze_agree(self, tmp_path, capsys, enneper, eps):
        # Enneper with eps z^4 added to the numerator of phi_1, written to
        # the file as coefficients: below the trim it is Enneper, above it
        # an order -6 end that is not null; verify and analyze decide it
        # alike, and neither reports degree and end orders at odds
        doc = json.loads(wdfile.dumps(wdfile.document_from_data(enneper.data)))
        doc["components"][0]["num"] += [[0.0, 0.0], [eps, 0.0]]
        path = tmp_path / "tiny.wd"
        path.write_text(json.dumps(doc))
        codes = [cli.main([command, str(path)]) for command in ("verify", "analyze")]
        err = capsys.readouterr().err
        assert codes == ([0, 0] if eps <= 0.5 * ms.rational.TRIM_TOL else [1, 1])
        assert "disagrees with end orders" not in err
        if codes[0]:
            assert "leading Laurent vector not null" in err


class TestCliCloseEnds:
    def test_every_chart_exits_with_one_line(self, tmp_path, capsys):
        # the catenoid with ends 1e-3 apart at 31 positions: each analyses or
        # is refused with one "minsurf:" line, and a total curvature that runs
        # out of rounds names its last two estimates
        codes = []
        for i, p in enumerate(np.linspace(0.2, 0.5, 31)):
            w = ms.mobius_precompose(ms.catenoid().data, (1, -p, 1, -(p + 1e-3)))
            wd = tmp_path / f"close-{i}.wd"
            wdfile.dump(wdfile.document_from_data(w, label=f"close-{i}"), wd)
            code = cli.main(["analyze", str(wd)])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1), p
            assert err == [] if code == 0 else (len(err) == 1 and err[0].startswith("minsurf: "))
            if code == 1 and "did not stabilize" in err[0]:
                first, second = err[0].split("(last estimates ")[1].rstrip(")").split(", ")
                assert float(first) != float(second), err[0]
            codes.append(code)
        assert 0 in codes and 1 in codes

    @staticmethod
    def _close_file(tmp_path, delta):
        w = ms.mobius_precompose(ms.catenoid().data, (1, -0.2, 1, -(0.2 + delta)))
        path = tmp_path / f"close-{delta:g}.wd"
        wdfile.dump(wdfile.document_from_data(w, label="close"), path)
        return path

    def test_merged_ends_are_rejected_by_verify(self, tmp_path, capsys):
        # ends 5e-6 apart merge into one pole, so the chart looks one-ended;
        # verify names the end whose leading vector misses nullity by 1
        path = self._close_file(tmp_path, 5e-6)
        assert cli.main(["verify", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"{path}: datum rejected"
        (line,) = err[:-1]
        assert line.startswith("verify: end (0.2")
        assert line.endswith("leading Laurent vector not null: "
                             "|<a_lead, a_lead>| = 1.000e+00 |a_lead|^2")

    def test_resolved_ends_give_the_residue_reason_alone(self, tmp_path, capsys):
        # ends 3e-4 apart: no false common factor, so no null defect and no
        # branch point; the residue refusal is the rounding of the expansion
        path = self._close_file(tmp_path, 3e-4)
        assert cli.main(["analyze", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"minsurf: {path}: datum rejected: non-real residue: ")
        assert ";" not in line and "null" not in line and "branch" not in line


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


# The Moebius charts (a, b, c, d) of the benchmark's fault table, one per
# fault named there, pulled back from these catalog surfaces, with the Gauss
# map degree and end orders of the unit surface.
FAULT_CHARTS = [
    ("catenoid-ends-0.01-apart", ms.catenoid, (1, -0.25, 1, -0.26), (2, [-2, -2])),
    ("catenoid-ends-0.01-apart-b", ms.catenoid, (1, -0.5, 1, -0.51), (2, [-2, -2])),
    ("jm1-lead-nullity", lambda: ms.generalized_jorge_meeks(1),
     (complex(-0.37760500712699807, -0.5140063716874629),
      complex(2.0427716074923303, -1.6480751708556527),
      complex(0.6467029962018469, 0.16746474422274113),
      complex(0.6630633723762617, 0.10901408782154753)), (2, [-2, -2])),
    ("jm2-co-consistency", lambda: ms.generalized_jorge_meeks(2),
     (complex(-0.9585437977525599, -0.08079228027724643),
      complex(-0.07926609009606381, -1.8343841189278653),
      complex(0.18066336513409245, -0.6717494671929184),
      complex(-0.08449893575731342, -0.7078303235682751)), (4, [-2, -2, -2])),
    ("enneper-anchor-path", ms.enneper,
     (complex(0.04931968294274557, -1.1429566337463961),
      complex(-2.1666121593182464, 0.5995576979640092),
      complex(0.7238102522772645, -0.8764085171864693),
      complex(-1.0714959570851907, 0.8228349505059208)), (2, [-4])),
]


class TestCliFaultCharts:
    @pytest.mark.parametrize("tag,make,mob,unit", FAULT_CHARTS, ids=[c[0] for c in FAULT_CHARTS])
    def test_analyze_exits_cleanly(self, tmp_path, tag, make, mob, unit):
        # written as the benchmark writes them: no punctures, no basepoint;
        # every chart analyses, with the unit surface's degree and end orders
        doc = wdfile.document_from_data(ms.mobius_precompose(make().data, mob), label=tag)
        doc.punctures = None
        doc.basepoint = None
        path, report = tmp_path / f"{tag}.wd", tmp_path / f"{tag}.json"
        wdfile.dump(doc, path)
        out = run_cli("analyze", path, "--json", report)
        assert out.returncode == 0 and out.stderr == "", out.stderr
        rep = json.loads(report.read_text())
        d, orders = unit
        assert rep["curvature"]["d"] == d
        assert sorted(e["mu"] for e in rep["ends"]) == orders

    @pytest.mark.parametrize("kind", ["rejected", "refused", "residue"])
    def test_refusal_forms(self, tmp_path, capsys, monkeypatch, kind):
        # validation's rejections (branched Enneper; the catenoid with phi_3
        # times 1 + 1e-8 i, a non-real residue) and a refusal after it (here
        # end analysis made to refuse the valid catenoid) are one "minsurf:"
        # line each, exit 1; verify and mesh reject what validation rejects,
        # mesh with analyze's line
        from conftest import branched_enneper

        phi = ms.catenoid().data.phi
        w = {"rejected": lambda: branched_enneper()["enneper-branched"],
             "refused": lambda: ms.catenoid().data,
             "residue": lambda: ms.WeierstrassData([*phi[:2], phi[2] * (1 + 1e-8j)])}[kind]()
        path = tmp_path / f"{kind}.wd"
        wdfile.dump(wdfile.document_from_data(w, label=kind), path)
        if kind == "refused":
            def refuse(w, p):
                raise InternalConsistencyError(f"at end {p!r}: nullity violated")

            monkeypatch.setattr("minsurf.report.analyze_end", refuse)
        assert cli.main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("minsurf: "), err
        if kind == "refused":
            assert lines[0] == "minsurf: at end 0j: nullity violated"
            return
        reason = "branch points " if kind == "rejected" else "null identity violated"
        assert lines[0].startswith(f"minsurf: {path}: datum rejected: {reason}"), err
        if kind == "residue":
            assert "non-real residue: worst imaginary part 1.000e-08" in lines[0]
        assert cli.main(["verify", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"{path}: datum rejected"
        obj = tmp_path / "out.obj"
        assert cli.main(["mesh", str(path), "-o", str(obj)]) == 1
        assert capsys.readouterr().err == err and not obj.exists()

    def test_no_tolerance_flag(self, catenoid_file, capsys):
        # every gate reads its one module constant: --tol is a usage error
        with pytest.raises(SystemExit) as usage:
            cli.main(["--tol", "1e4", "analyze", str(catenoid_file)])
        assert usage.value.code == 2
        assert capsys.readouterr().err.startswith("usage: minsurf ")


class TestImport:
    def test_import_loads_no_scipy(self, tmp_path, catenoid_file):
        # minsurf depends on numpy alone: neither `import minsurf` nor a whole
        # `minsurf mesh` run (lattice cells by index arithmetic, zipped seams)
        # loads scipy
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, minsurf; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, check=True, env=CHILD_ENV,
        )
        assert out.stdout.strip() == "[]"
        obj = tmp_path / "cat.obj"
        code = ("import sys; from minsurf.cli import main; "
                f"rc = main(['mesh', {str(catenoid_file)!r}, '-o', {str(obj)!r}, '--res', '8']); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=CHILD_ENV)
        assert out.stdout.splitlines()[-1] == "0 []"
        assert obj.read_text().startswith("v ")

    def test_analyze_loads_no_float_text_kernel(self, tmp_path, catenoid_file):
        # the '%.17g' kernel is export_obj's alone: `import minsurf` builds none
        # of its tables and a whole `minsurf analyze` run never imports it
        code = ("import sys, minsurf; print('minsurf._floattext' in sys.modules); "
                "from minsurf import _floattext; print(_floattext._tables.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=CHILD_ENV)
        assert out.stdout.split() == ["False", "0"]
        report = tmp_path / "cat.json"
        code = ("import sys; from minsurf.cli import main; "
                f"rc = main(['analyze', {str(catenoid_file)!r}, '--json', {str(report)!r}]); "
                "print(rc, 'minsurf._floattext' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=CHILD_ENV)
        assert out.stdout.splitlines()[-1] == "0 False"
        assert json.loads(report.read_text())

