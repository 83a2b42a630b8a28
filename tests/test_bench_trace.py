"""The benchmark's tracer (``bench/spans.py``) names only functions that exist.

``Tracer.install`` looks up every ``TRACED`` (module, attribute) in the loaded
minsurf modules, so a renamed or deleted function breaks a ``--trace 1``
benchmark run.  These tests load the tracer by path and install it in a
child interpreter, since installing rebinds minsurf's functions.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [(mod, attr) for mod, attr, _name in load_spans().TRACED
               if not hasattr(importlib.import_module(f"minsurf.{mod}"), attr)]
    assert missing == []


def test_tracer_installs_after_the_cli_import():
    code = "import minsurf.cli\nfrom spans import Tracer\nTracer().install()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
