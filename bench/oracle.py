"""Expected values and output checks, computed apart from minsurf.

The integers come from the classical closed forms (Osserman 1964,
Jorge-Meeks 1983), never from ``minsurf.catalog.ExpectedValues``.  The mesh
oracle integrates the Weierstrass forms written out below with
``mpmath.quad`` along paths chosen here.  Every check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

TC_TOL = 1e-3        # the program's stated relative tolerance on tc_numeric
RESIDUE_TOL = 1e-8   # |sum of residue vectors| relative to the largest one
MESH_TOL = 1e-8      # vertex difference versus the oracle integral, relative


@dataclass(frozen=True)
class Expected:
    d: int                 # Gauss-map degree
    ks: tuple              # end orders k = -mu, sorted
    types: tuple           # end classifications, sorted
    inf_is_end: bool
    finite_poles: tuple    # finite punctures of the unit-scale chart

    @property
    def m(self) -> int:
        return len(self.ks)

    @property
    def chi(self) -> int:          # genus 0
        return 2 - self.m

    @property
    def tc_pi(self) -> int:        # TC = -2 pi d
        return -2 * self.d

    @property
    def co_rhs_pi(self) -> int:    # Chern-Osserman bound 2 pi (chi - m)
        return 2 * (self.chi - self.m)

    @property
    def co_equality(self) -> bool:
        return self.tc_pi == self.co_rhs_pi

    @property
    def rotation(self) -> tuple:   # rotation index |k - 1| of each end
        return tuple(sorted(abs(k - 1) for k in self.ks))

    @property
    def embedded(self) -> tuple:   # an end is embedded iff k = 2
        return tuple(sorted(k == 2 for k in self.ks))


CAT, PLANAR, HIGHER = "catenoid-type", "planar", "higher-order"


def expected(name: str) -> Expected:
    """Classical values: catenoid, plane, Enneper, (z, 1/z^2), Jorge-Meeks m."""
    if name.startswith("generalized-jorge-meeks-m"):
        m = int(name.rsplit("m", 1)[1])
        unity = tuple(complex(math.cos(2 * math.pi * t / (m + 1)),
                              math.sin(2 * math.pi * t / (m + 1))) for t in range(m + 1))
        return Expected(2 * m, (2,) * (m + 1), (CAT,) * (m + 1), False, unity)
    return {
        "catenoid": Expected(2, (2, 2), (CAT, CAT), True, (0j,)),
        "plane": Expected(0, (2,), (PLANAR,), True, ()),
        "enneper": Expected(2, (4,), (HIGHER,), True, ()),
        "holomorphic-counterexample": Expected(3, (2, 3), (HIGHER, PLANAR), True, (0j,)),
    }[name]


def phi_forms(name: str):
    """The Weierstrass forms phi_j (f = 2 Re int phi dz) as mpmath callables."""
    i = mpmath.mpc(0, 1)
    if name == "catenoid":
        return [lambda z: (1 - z**2) / (2 * z**2), lambda z: i * (1 + z**2) / (2 * z**2),
                lambda z: 1 / z]
    if name == "plane":
        return [lambda z: mpmath.mpf(0.5), lambda z: -i / 2, lambda z: mpmath.mpc(0)]
    if name == "enneper":
        return [lambda z: (1 - z**2) / 2, lambda z: i * (1 + z**2) / 2, lambda z: z]
    if name == "holomorphic-counterexample":
        return [lambda z: mpmath.mpf(0.5), lambda z: -i / 2, lambda z: -z**-3,
                lambda z: i * z**-3]
    m = int(name.rsplit("m", 1)[1])
    out = []
    for j in range(m):
        out.append(lambda z, j=j: (z**j - z**(2 * m - j)) / (2 * (z**(m + 1) - 1) ** 2))
        out.append(lambda z, j=j: i * (z**j + z**(2 * m - j)) / (2 * (z**(m + 1) - 1) ** 2))
    out.append(lambda z: mpmath.sqrt(m) * z**m / (z**(m + 1) - 1) ** 2)
    return out


# -- analysis reports --------------------------------------------------------

def summary_from_report(rep) -> dict:
    """The checked fields of an in-process ``AnalysisReport``."""
    c = rep.curvature
    return {
        "d": c.d, "m": c.m, "chi": c.chi, "tc_pi": c.tc_pi, "co_rhs_pi": c.co_rhs_pi,
        "co_equality": c.co_equality, "tc_numeric": c.tc_numeric,
        "equality_consistent": rep.equality_consistent,
        "ends": [{"k": e.k, "mu": e.mu, "type": e.classification.value,
                  "rot": e.rotation_index, "embedded": e.embedded,
                  "residue": [float(x) for x in e.a_minus1]} for e in rep.ends],
    }


def _pi_multiple(field: dict) -> int:
    k = int(field["symbolic"].split("*")[0])
    if field["value"] != float(k) * float(np.pi):
        raise ValueError(f"pi-multiple {field} is inconsistent")
    return k


def summary_from_json(obj: dict) -> dict:
    """The same fields from a ``minsurf analyze --json`` report."""
    c = obj["curvature"]
    return {
        "d": c["d"], "m": c["m"], "chi": c["chi"], "tc_pi": _pi_multiple(c["tc_algebraic"]),
        "co_rhs_pi": _pi_multiple(c["co_rhs"]), "co_equality": c["co_equality"],
        "tc_numeric": c["tc_numeric"],
        "equality_consistent": obj["verdicts"]["equality_consistent"],
        "ends": [{"k": e["k"], "mu": e["mu"], "type": e["classification"],
                  "rot": e["rotation_index"], "embedded": e["embedded"],
                  "residue": e["a_minus1"]} for e in obj["ends"]],
    }


def invariants(s: dict) -> tuple:
    """Every integer and verdict of a summary, independent of the chart."""
    ends = tuple(sorted((e["k"], e["mu"], e["type"], e["rot"], e["embedded"])
                        for e in s["ends"]))
    return (s["d"], s["m"], s["chi"], s["tc_pi"], s["co_rhs_pi"], s["co_equality"], ends)


def check_summary(name: str, s: dict, numeric_rotation=None, surface=None) -> list[str]:
    """Closed-form values and the properties the method must have.

    ``name`` labels the messages; ``surface`` (default ``name``) is the
    catalog surface whose classical values apply.
    """
    exp = expected(surface or name)
    ends = s["ends"]
    ks = tuple(sorted(e["k"] for e in ends))
    got = {
        "d": (s["d"], exp.d), "ends": (s["m"], exp.m), "chi": (s["chi"], exp.chi),
        "TC/pi": (s["tc_pi"], exp.tc_pi), "CO bound/pi": (s["co_rhs_pi"], exp.co_rhs_pi),
        "CO equality": (s["co_equality"], exp.co_equality), "end orders": (ks, exp.ks),
        "end types": (tuple(sorted(e["type"] for e in ends)), tuple(sorted(exp.types))),
        "rotation indices": (tuple(sorted(e["rot"] for e in ends)), exp.rotation),
        "embedded": (tuple(sorted(e["embedded"] for e in ends)), exp.embedded),
    }
    errs = [f"{name}: {what} {a!r} != expected {b!r}" for what, (a, b) in got.items() if a != b]
    if s["d"] != sum(ks) - 2:
        errs.append(f"{name}: Jorge-Meeks identity d = sum k - 2 fails ({s['d']} vs {ks})")
    all_two = all(k == 2 for k in ks)
    all_emb = all(e["embedded"] for e in ends)
    if not (s["co_equality"] == all_two == all_emb) or s["equality_consistent"] is not True:
        errs.append(f"{name}: CO equality {s['co_equality']}, all k=2 {all_two} and "
                    f"all embedded {all_emb} disagree")
    for e in ends:
        if e["rot"] != abs(e["k"] - 1) or e["mu"] != -e["k"]:
            errs.append(f"{name}: end k={e['k']} has rotation index {e['rot']}, mu {e['mu']}")
    res = np.array([e["residue"] for e in ends], dtype=float)
    scale = max(1.0, float(np.max(np.abs(res)))) if res.size else 1.0
    if res.size and float(np.max(np.abs(res.sum(axis=0)))) > RESIDUE_TOL * scale:
        errs.append(f"{name}: residue vectors sum to {res.sum(axis=0)!r}, not 0")
    tc = -2.0 * math.pi * s["d"]
    if s["tc_numeric"] is None or abs(s["tc_numeric"] - tc) > TC_TOL * max(1.0, abs(tc)):
        errs.append(f"{name}: tc_numeric {s['tc_numeric']} is not within {TC_TOL} of {tc}")
    if numeric_rotation is not None:
        for e, r in zip(ends, numeric_rotation):
            if r != abs(e["k"] - 1):
                errs.append(f"{name}: numeric rotation index {r} != |k - 1| for k={e['k']}")
    return errs


def tc_sign_flipped(s: dict) -> bool:
    """tc_numeric reads +2 pi d instead of -2 pi d (a fault seen on charts of
    Enneper's surface whose end is finite); such a run counts as failed."""
    tc = 2.0 * math.pi * s["d"]
    return s["d"] > 0 and s["tc_numeric"] is not None \
        and abs(s["tc_numeric"] - tc) <= TC_TOL * tc


def check_invariance(label: str, unit: dict, chart: dict) -> list[str]:
    if invariants(unit) != invariants(chart):
        return [f"{label}: invariants {invariants(chart)} differ from the unit chart's "
                f"{invariants(unit)}"]
    return []


# -- meshes ------------------------------------------------------------------

def check_mesh_structure(name: str, mesh, paths) -> list[str]:
    """Euler characteristic, index range, finiteness and the written files."""
    exp = expected(name)
    verts, faces = mesh.vertices, mesh.faces
    errs = []
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        errs.append(f"{name}: face index out of range")
    if not np.all(np.isfinite(verts)):
        errs.append(f"{name}: non-finite vertex")
    edges = {tuple(sorted(e)) for f in faces.tolist() for e in ((f[0], f[1]), (f[1], f[2]),
                                                                  (f[2], f[0]))}
    euler = len(verts) - len(edges) + len(faces)
    want = (2 if exp.inf_is_end else 1) - exp.m
    if euler != want:
        errs.append(f"{name}: V - E + F = {euler}, expected {want}")
    with open(paths[0]) as fh:
        rows = [line.split() for line in fh]
    v = np.array([[float(x) for x in r[1:]] for r in rows if r[0] == "v"])
    f = np.array([[int(x) for x in r[1:]] for r in rows if r[0] == "f"])
    if v.shape != (len(verts), 3) or not np.array_equal(v, verts[:, list(mesh.projection)]):
        errs.append(f"{name}: OBJ vertices do not parse back to the mesh")
    if not np.array_equal(f, faces + 1):
        errs.append(f"{name}: OBJ faces do not parse back to the mesh")
    if verts.shape[1] > 3:
        with open(paths[1]) as fh:
            header = fh.readline().split()
            side = np.array([[float(x) for x in line.split()] for line in fh])
        if header != [f"x{i + 1}" for i in range(verts.shape[1])] \
                or not np.array_equal(side, verts):
            errs.append(f"{name}: sidecar does not parse back to the mesh")
    elif len(paths) != 1:
        errs.append(f"{name}: unexpected sidecar for n = 3")
    return errs


def _path_points(z0: complex, z1: complex, poles) -> list:
    """Break points for quadrature along [z0, z1], avoiding the poles.

    Residues are real, so 2 Re of the integral does not depend on the path;
    a segment that runs through a pole is replaced by a two-segment detour.
    """
    for p in poles:
        d = z1 - z0
        t = ((p - z0) * d.conjugate()).real / max(abs(d) ** 2, 1e-300)
        if 0.0 < t < 1.0 and abs(z0 + t * d - p) < 0.05:
            mid = z0 + t * d + 0.2 * 1j * d / abs(d)
            return _path_points(z0, mid, poles)[:-1] + _path_points(mid, z1, poles)
    return [z0, z1]


def oracle_difference(name: str, z0: complex, z1: complex) -> np.ndarray:
    """f(z1) - f(z0) = 2 Re int_{z0}^{z1} phi dz by mpmath.quad."""
    pts = _path_points(complex(z0), complex(z1), expected(name).finite_poles)
    out = []
    with mpmath.workdps(20):
        for phi in phi_forms(name):
            total = mpmath.mpc(0)
            for a, b in zip(pts[:-1], pts[1:]):
                a, b = mpmath.mpc(a), mpmath.mpc(b)
                total += mpmath.quad(lambda t: phi(a + t * (b - a)) * (b - a), [0, 0.5, 1])
            out.append(2.0 * float(total.real))
    return np.array(out)


def mesh_references(name: str, mesh, root: int, sample) -> np.ndarray:
    """Oracle differences from the root vertex for the sampled vertices."""
    return np.array([oracle_difference(name, mesh.param[root], mesh.param[v])
                     for v in sample])


def check_mesh_values(name: str, vertices: np.ndarray, root: int, sample, refs) -> list[str]:
    errs = []
    for v, ref in zip(sample, refs):
        got = vertices[v] - vertices[root]
        err = float(np.max(np.abs(got - ref)))
        if not err <= MESH_TOL * max(1.0, float(np.max(np.abs(ref)))):
            errs.append(f"{name}: vertex {v} differs from the oracle by {err:.3e}")
    return errs


def null_defect(name: str, z=mpmath.mpc(0.3, 0.7)) -> float:
    """|sum phi_j^2| of the oracle's own forms: they must be conformal."""
    return float(abs(sum(phi(z) ** 2 for phi in phi_forms(name))))
