"""Seeded inputs of the three workloads.

Nothing here reads an expected result from minsurf: the surfaces come from
the catalog factories, the charts from ``mobius_precompose`` and the files
from ``wdfile`` / the ``minsurf catalog`` command, exactly as a user would
make them.  Which outputs are correct is decided in ``oracle.py``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import minsurf as ms
from minsurf import cli, wdfile
from minsurf.rational import is_infinity

# Catalog names as the oracle knows them, with their factory and CLI spelling.
JM = "generalized-jorge-meeks"


def catalog_entry(name: str):
    if name.startswith(JM):
        return ms.generalized_jorge_meeks(int(name.rsplit("m", 1)[1]))
    return {"catenoid": ms.catenoid, "plane": ms.plane, "enneper": ms.enneper,
            "holomorphic-counterexample": ms.holomorphic_counterexample}[name]()


def jm(m: int) -> str:
    return f"{JM}-m{m}"


SMALL = ["catenoid", "plane", "enneper", "holomorphic-counterexample"]
ANALYZE_SURFACES = SMALL + [jm(m) for m in range(1, 7)]
ANALYZE_LARGEST = jm(6)
# JM m >= 4 is left out of meshing for run length only (m = 6 alone takes ~18 s).
MESH_SURFACES = ["catenoid", "enneper", "holomorphic-counterexample", jm(2), jm(3)]
MESH_LARGEST = jm(3)
MESH_SETTINGS = {"r_min": 0.02, "r_max": 0.5, "res": 32}
R_LIST = (1e2, 1e3, 1e4)
CLI_UNIT = SMALL + [jm(m) for m in range(1, 5)]
CLI_CHARTED = ["catenoid", "enneper", "holomorphic-counterexample"] + [jm(m) for m in range(1, 5)]

# Fixed sample of general Moebius charts: one chart per surface drawn by the
# rejection rule below from this generator seed.  It does not follow --seed
# because about one chart in ten of this rule fails today (see FAULT_CHARTS),
# and a failure that comes and goes with the seed would change the failed
# share from run to run.  All seven charts of this sample succeed today.
MOBIUS_SAMPLE_SEED = 2001

# Charts that fail today, one per named fault, independent of --seed.  Each
# fails on every run; a change that mends the fault turns it into a checked
# success.  (name, surface, Moebius (a, b, c, d)); the comment names the fault.
FAULT_CHARTS = [
    # bilinear check <a_-2, a_-1>: the catenoid with its ends at 0.25 and 0.26
    ("catenoid-ends-0.01-apart", "catenoid", (1, -0.25, 1, -0.26)),
    # false rejection (non-real residue): the same with the ends at 0.5 and 0.51
    ("catenoid-ends-0.01-apart-b", "catenoid", (1, -0.5, 1, -0.51)),
    # bilinear check <a_lead, a_lead>: a JM m = 1 chart of the conftest rule
    ("jm1-lead-nullity", jm(1),
     (complex(-0.37760500712699807, -0.5140063716874629),
      complex(2.0427716074923303, -1.6480751708556527),
      complex(0.6467029962018469, 0.16746474422274113),
      complex(0.6630633723762617, 0.10901408782154753))),
    # Gauss-map degree disagrees with the end orders (chern_osserman): a JM
    # m = 2 chart of the conftest rule, on which only two ends are detected
    ("jm2-co-consistency", jm(2),
     (complex(-0.9585437977525599, -0.08079228027724643),
      complex(-0.07926609009606381, -1.8343841189278653),
      complex(0.18066336513409245, -0.6717494671929184),
      complex(-0.08449893575731342, -0.7078303235682751))),
    # anchor quadrature of LocalImmersion: an Enneper chart of the conftest rule
    ("enneper-anchor-path", "enneper",
     (complex(0.04931968294274557, -1.1429566337463961),
      complex(-2.1666121593182464, 0.5995576979640092),
      complex(0.7238102522772645, -0.8764085171864693),
      complex(-1.0714959570851907, 0.8228349505059208))),
]


def transformed_points(w, mob):
    """Pre-images of the punctures, and of infinity, under the Moebius map."""
    a, b, c, d = mob
    pts = []
    for p in w.punctures:
        if is_infinity(p):
            if c != 0:
                pts.append(complex(a / c))
        else:
            den = -c * p + a
            if abs(den) < 1e-9:
                return None
            pts.append(complex((d * p - b) / den))
    if c != 0:
        pts.append(complex(-d / c))
    return pts


def well_conditioned_mobius(w, rng):
    """The rejection rule of tests/conftest.py::well_conditioned_mobius.

    Draw (a, b, c, d) with standard complex normal entries; reject when
    |ad - bc| < 0.3, when a transformed puncture (or the pre-image of
    infinity) lies outside |z| <= 8, or when two of them are closer than 0.15.
    """
    while True:
        mob = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(mob[0] * mob[3] - mob[1] * mob[2]) < 0.3:
            continue
        pts = transformed_points(w, mob)
        if pts is None or any(abs(p) > 8 for p in pts):
            continue
        if all(abs(pts[i] - pts[j]) >= 0.15
               for i in range(len(pts)) for j in range(i + 1, len(pts))):
            return tuple(mob)


def seeded_dilation(rng: random.Random):
    """z -> lam z with lam = 2^(s/2) e^(i pi q / 4), s in {-1, 0, 1}, q in 0..7.

    The family is finite so that every chart a seed can draw is known to be
    analysed today (all 24 x 7 are); a continuous range of lam fails now and
    then (|lam| = 0.52 once broke the JM m = 4 anchor quadrature in ~850
    draws), which would make the failed share depend on the seed.
    """
    return (2.0 ** (rng.choice((-1, 0, 1)) / 2) * cmath.exp(1j * math.pi * rng.randrange(8) / 4),
            0j, 0j, 1 + 0j)


@dataclass(frozen=True)
class Chart:
    """One .wd file of the cli-charts workload."""
    name: str
    surface: str
    kind: str                  # "unit", "dilation", "mobius" or "fault"
    path: str


def _write_chart(w, label: str, path: str) -> None:
    """Write a pulled-back datum without punctures and basepoint."""
    doc = wdfile.document_from_data(w, label=label)
    doc.punctures = None
    doc.basepoint = None
    wdfile.dump(doc, path)


def cli_charts(seed: int, workdir: str) -> list[Chart]:
    """Write every .wd file of one cli-charts round into ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    charts = []
    for name in CLI_UNIT:
        path = os.path.join(workdir, f"unit-{name}.wd")
        argv = ["catalog", JM, "--param", name.rsplit("m", 1)[1]] if name.startswith(JM) \
            else ["catalog", name]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + ["-o", path]) != 0:
                raise RuntimeError(f"minsurf catalog failed for {name}")
        charts.append(Chart(f"unit-{name}", name, "unit", path))

    rng = random.Random(seed)
    for name in CLI_CHARTED:
        path = os.path.join(workdir, f"dilation-{name}.wd")
        _write_chart(ms.mobius_precompose(catalog_entry(name).data, seeded_dilation(rng)),
                     name, path)
        charts.append(Chart(f"dilation-{name}", name, "dilation", path))

    nrng = np.random.default_rng(MOBIUS_SAMPLE_SEED)
    for name in CLI_CHARTED:
        w = catalog_entry(name).data
        path = os.path.join(workdir, f"mobius-{name}.wd")
        _write_chart(ms.mobius_precompose(w, well_conditioned_mobius(w, nrng)), name, path)
        charts.append(Chart(f"mobius-{name}", name, "mobius", path))

    for tag, name, mob in FAULT_CHARTS:
        path = os.path.join(workdir, f"fault-{tag}.wd")
        _write_chart(ms.mobius_precompose(catalog_entry(name).data, mob), name, path)
        charts.append(Chart(f"fault-{tag}", name, "fault", path))

    rng.shuffle(charts)
    return charts
