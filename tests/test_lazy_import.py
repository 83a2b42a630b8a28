"""``import minsurf`` executes the analysis modules only, and a
``minsurf analyze`` imports no ``numpy.polynomial``.

``catalog``, ``mesh`` and ``quadrature`` are put into ``sys.modules``
unexecuted and run on their first attribute access; the catalog and mesh
names that ``minsurf`` exports are looked up on first use.  The checks run
in child interpreters, since this one has executed every module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import minsurf as ms
from minsurf import wdfile

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(ms.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
LAZY = ("minsurf.mesh", "minsurf.catalog", "minsurf.quadrature")
# sorted(minsurf.__all__) when every module was executed on import
PUBLIC = [
    "AnalysisReport", "CatalogEntry", "ComplexPoly", "CurvatureReport", "EndAnalysis",
    "EndType", "GaussMap", "INF", "LaurentSeries", "LocalImmersion", "RationalMap",
    "SurfaceMesh", "WeierstrassData", "analyze_end", "build_mesh", "catalog", "catenoid",
    "check_residues_real", "chern_osserman", "curvature", "curvature_report",
    "detect_punctures", "ends", "enneper", "errors", "export_obj", "fullness_and_degeneracy",
    "gauss_map", "generalized_jorge_meeks", "holomorphic_counterexample", "immersion_eval",
    "is_infinity", "laurent_expand", "limit_circle_deviation", "mesh", "metric_order_at",
    "mobius_precompose", "plane", "quadrature", "rational", "report", "report_to_json",
    "roots", "rotation_index_numeric", "run_analysis", "sample_domain", "shared_roots",
    "total_curvature_numeric", "validate_null", "weierstrass",
]


def child(code, *args):
    """The last stdout line of ``python -c code args``, which must exit 0."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, env=CHILD_ENV, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def executed(names):
    # type() reads no attribute, so asking it executes nothing
    return f"[type(sys.modules[m]) is types.ModuleType for m in {names!r}]"


def test_analyze_executes_no_lazy_module(tmp_path):
    # nor imports numpy.polynomial: minsurf evaluates and divides
    # polynomials by its own Horner and long division (rational.horner,
    # rational.poly_quotient)
    path = tmp_path / "jm2.wd"
    wdfile.dump(wdfile.document_from_data(ms.generalized_jorge_meeks(2).data), path)
    code = ("import sys, types\nimport minsurf.cli\n"
            "assert minsurf.cli.main(['analyze', sys.argv[1]]) == 0\n"
            f"print({executed(LAZY)}, 'numpy.polynomial' in sys.modules)")
    assert child(code, path) == "[False, False, False] False"


def test_catalog_and_mesh_commands_load_their_modules(tmp_path):
    path, obj = tmp_path / "catenoid.wd", tmp_path / "catenoid.obj"
    code = ("import sys, types\nimport minsurf.cli\n"
            "assert minsurf.cli.main(['catalog', 'catenoid', '-o', sys.argv[1]]) == 0\n"
            "assert minsurf.cli.main(['mesh', sys.argv[1], '-o', sys.argv[2], '--res', '8']) == 0\n"
            f"print({executed(LAZY)})")
    assert child(code, path, obj) == "[True, True, False]"
    assert wdfile.load(path).to_data().n == 3 and obj.stat().st_size > 0


def test_exports_are_their_modules_names():
    code = ("import minsurf\n"
            "names = {'catalog': ['CatalogEntry', 'catenoid', 'enneper', 'plane',\n"
            "                     'generalized_jorge_meeks', 'holomorphic_counterexample'],\n"
            "         'mesh': ['SurfaceMesh', 'build_mesh', 'export_obj', 'sample_domain']}\n"
            "print(all(getattr(minsurf, n) is getattr(getattr(minsurf, m), n)\n"
            "          for m, ns in names.items() for n in ns))")
    assert child(code) == "True"


def test_public_names_are_unchanged():
    code = ("import minsurf, sys, types\n"
            "public = sorted(n for n in dir(minsurf) if not n.startswith('_'))\n"
            f"print(public == sorted(minsurf.__all__), sorted(minsurf.__all__), {executed(LAZY)})")
    assert child(code) == f"True {PUBLIC!r} [False, False, False]"
