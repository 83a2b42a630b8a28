"""Every demo runs to completion, and the meshes it writes parse back."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9]*.py"))


def run_demo(demo: Path, workdir: Path):
    """Run a copy of the demo in workdir, so that what it writes beside itself
    lands there, in a child interpreter that imports minsurf from src."""
    script = workdir / demo.name
    shutil.copy(demo, script)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=workdir, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def parse_obj(path: Path):
    verts, faces = [], []
    for line in path.read_text().splitlines():
        kind, *fields = line.split()
        assert kind in ("v", "f") and len(fields) == 3, line
        if kind == "v":
            verts.append([float(x) for x in fields])
        else:
            faces.append([int(x) for x in fields])
    return np.array(verts), np.array(faces)


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    out = run_demo(demo, tmp_path)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stdout + out.stderr
    # each mesh the demo reports: "<name>: V vertices, F faces" and its axes
    reported = re.findall(r"^(\S+): (\d+) vertices, (\d+) faces\n.*\n"
                          r"  projection axes \(0-based\): \(([\d, ]+)\)", out.stdout, re.M)
    assert {path.stem for path in tmp_path.glob("_out/*.obj")} == {r[0] for r in reported}
    for name, nv, nf, axes in reported:
        verts, faces = parse_obj(tmp_path / "_out" / f"{name}.obj")
        assert verts.shape == (int(nv), 3) and np.isfinite(verts).all()
        assert faces.shape == (int(nf), 3)
        assert faces.min() >= 1 and faces.max() <= int(nv)
        sidecar = tmp_path / "_out" / f"{name}.obj.coords.tsv"
        if sidecar.exists():
            header, *rows = sidecar.read_text().splitlines()
            table = np.array([[float(x) for x in row.split("\t")] for row in rows])
            assert header.split("\t") == [f"x{i + 1}" for i in range(table.shape[1])]
            assert np.array_equal(table[:, [int(a) for a in axes.split(",")]], verts)
