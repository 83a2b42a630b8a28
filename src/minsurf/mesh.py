"""Parameter-domain triangulation, immersion meshes, and OBJ export.

End neighborhoods are meshed with annular fans (geometric radius progression)
around each puncture -- in the w = 1/z chart for an end at infinity -- glued
to a Delaunay triangulation of the remaining chart.  Vertices are immersion
values; for n > 3 a projection picks the exported 3 coordinates and a sidecar
table keeps the full-dimensional data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationNearSingularityError
from .rational import is_infinity
from .weierstrass import WeierstrassData, immersion_eval

__all__ = ["ParamTriangulation", "SurfaceMesh", "sample_domain", "build_mesh", "export_obj"]

RING_RATIO = 1.3  # geometric radius progression between annulus rings


@dataclass(frozen=True)
class ParamTriangulation:
    nodes: np.ndarray      # complex parameter positions
    triangles: np.ndarray  # (m, 3) int indices


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray    # (V, n) immersion values
    faces: np.ndarray       # (m, 3) int indices
    param: np.ndarray       # (V,) complex parameter values
    projection: tuple       # 3 coordinate axes used for OBJ export


class _NodePool:
    """Deduplicating node registry: equal parameter values share one vertex."""

    def __init__(self):
        self.nodes: list[complex] = []
        self._index: dict[tuple, int] = {}

    def add(self, z: complex) -> int:
        key = (round(z.real, 9), round(z.imag, 9))
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(z)
            self._index[key] = idx
        return idx


def _ring_radii(r_min: float, r_max: float):
    radii = [r_min]
    while radii[-1] * RING_RATIO < r_max:
        radii.append(radii[-1] * RING_RATIO)
    radii.append(r_max)
    return radii


def _fan(pool: _NodePool, triangles: list, center, r_min: float, r_max: float, res: int):
    """Annular fan around a puncture; returns the outermost ring indices."""
    radii = _ring_radii(r_min, r_max)
    angles = 2.0 * math.pi * np.arange(res) / res
    at_inf = is_infinity(center)

    def node(r, ang):
        if at_inf:
            return (1.0 / r) * complex(math.cos(ang), -math.sin(ang))
        return complex(center) + r * complex(math.cos(ang), math.sin(ang))

    rings = [[pool.add(node(r, ang)) for ang in angles] for r in radii]
    for inner, outer in zip(rings[:-1], rings[1:]):
        for k in range(res):
            k1 = (k + 1) % res
            triangles.append((inner[k], inner[k1], outer[k]))
            triangles.append((inner[k1], outer[k1], outer[k]))
    return rings[-1]


def sample_domain(w: WeierstrassData, r_min: float = 1e-2, r_max: float = 1.0,
                  res: int = 32) -> ParamTriangulation:
    """Triangulated parameter domain: fans around every end plus a filled center.

    Overlapping fan disks (punctures closer than 2 r_max) shrink r_max
    automatically with a warning, and r_min is raised to the evaluation
    clearance of the datum when it lies below it.  The chart is covered out
    to a finite outer radius; when infinity is an end its fan provides the
    outer boundary.
    """
    from scipy.spatial import Delaunay  # deferred: most of import minsurf's time

    if not (0.0 < r_min < r_max):
        raise ValueError("require 0 < r_min < r_max")
    if res < 8:
        raise ValueError("res must be at least 8")
    fin = w.finite_punctures
    has_inf = any(is_infinity(p) for p in w.punctures)

    if len(fin) >= 2 and w.min_separation < 2.0 * r_max:
        r_max = 0.45 * w.min_separation
        warnings.warn(f"end annuli overlap; shrinking r_max to {r_max:.3g}")
    if has_inf and fin:
        # the inner boundary of the infinity fan must enclose the finite fans
        needed = 2.0 * max(abs(p) + r_max for p in fin)
        if 1.0 / r_max < needed:
            r_max = min(r_max, 1.0 / needed)
            warnings.warn(f"infinity fan overlaps finite fans; shrinking r_max to {r_max:.3g}")
    if r_max <= r_min:
        r_min = r_max / 4.0
    if fin and r_min < w.clearance:
        if r_max <= w.clearance:
            raise EvaluationNearSingularityError(
                f"r_max {r_max:.3g} is within the evaluation clearance {w.clearance:.3g}"
            )
        r_min = w.clearance
        warnings.warn(f"r_min below the evaluation clearance; raising it to {r_min:.3g}")

    pool = _NodePool()
    triangles: list[tuple] = []
    boundary_idx: list[int] = []
    for p in fin:
        boundary_idx.extend(_fan(pool, triangles, p, r_min, r_max, res))
    if has_inf:
        boundary_idx.extend(_fan(pool, triangles, next(p for p in w.punctures
                                                       if is_infinity(p)),
                                 r_min, r_max, res))
        outer_radius = 1.0 / r_max
    else:
        outer_radius = 2.5 * (max((abs(p) for p in fin), default=0.0) + r_max) + 1.0
        angles = 2.0 * math.pi * np.arange(res) / res
        boundary_idx.extend(
            pool.add(outer_radius * complex(math.cos(a), math.sin(a))) for a in angles
        )

    # hex-grid fill of the central region
    spacing = 2.0 * math.pi * r_max / res
    fill: list[complex] = []
    ny = int(outer_radius / (spacing * math.sqrt(3.0) / 2.0)) + 1
    nx = int(outer_radius / spacing) + 1
    for iy in range(-ny, ny + 1):
        y = iy * spacing * math.sqrt(3.0) / 2.0
        offset = 0.5 * spacing if iy % 2 else 0.0
        for ix in range(-nx, nx + 1):
            z = complex(ix * spacing + offset, y)
            if abs(z) > outer_radius - 0.45 * spacing:
                continue
            if any(abs(z - p) < r_max + 0.45 * spacing for p in fin):
                continue
            fill.append(z)

    central = [pool.nodes[i] for i in boundary_idx] + fill
    central_idx = [pool.add(z) for z in central]
    if len(central) >= 4:
        pts = np.array([[z.real, z.imag] for z in central])
        try:
            tri = Delaunay(pts)
        except Exception:
            tri = None
        if tri is not None:
            for simplex in tri.simplices:
                zs = [central[i] for i in simplex]
                cen = sum(zs) / 3.0
                if abs(cen) > outer_radius * (1.0 + 1e-9):
                    continue
                if any(abs(cen - p) < r_max * 0.995 for p in fin):
                    continue
                a, b, c = (complex(z) for z in zs)
                area2 = abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
                if area2 < 1e-12 * spacing * spacing:
                    continue
                triangles.append(tuple(central_idx[i] for i in simplex))

    nodes = np.array(pool.nodes, dtype=complex)
    tris = np.array(triangles, dtype=int)
    return ParamTriangulation(nodes=nodes, triangles=tris)


def build_mesh(w: WeierstrassData, tri: ParamTriangulation) -> SurfaceMesh:
    """Evaluate the immersion at every parameter node (one closed-form call)."""
    vertices = immersion_eval(w, tri.nodes).T.copy()
    projection = _default_projection(vertices)
    return SurfaceMesh(vertices=vertices, faces=tri.triangles.copy(),
                       param=tri.nodes.copy(), projection=projection)


def _default_projection(vertices: np.ndarray) -> tuple:
    n = vertices.shape[1]
    if n <= 3:
        return (0, 1, 2)
    var = vertices.var(axis=0)
    order = np.argsort(-var, kind="stable")[:3]
    return tuple(sorted(int(i) for i in order))


def export_obj(mesh: SurfaceMesh, path, projection=None):
    """Write the mesh as OBJ text; n > 3 data goes to a sidecar TSV.

    ``v`` lines carry the projected coordinates at full precision; faces are
    1-based.  Returns the list of written paths.
    """
    n = mesh.vertices.shape[1]
    proj = tuple(projection) if projection is not None else mesh.projection
    if len(proj) != 3 or len(set(proj)) != 3 or any(not (0 <= i < n) for i in proj):
        raise ValueError(f"projection {proj!r} invalid for ambient dimension {n}")
    path = str(path)
    lines = []
    for v in mesh.vertices:
        lines.append("v " + " ".join(f"{v[i]:.17g}" for i in proj))
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    written = [path]
    if n > 3:
        sidecar = path + ".coords.tsv"
        with open(sidecar, "w") as fh:
            fh.write("\t".join(f"x{i + 1}" for i in range(n)) + "\n")
            for v in mesh.vertices:
                fh.write("\t".join(f"{x:.17g}" for x in v) + "\n")
        written.append(sidecar)
    return written
