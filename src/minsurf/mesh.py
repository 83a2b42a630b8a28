"""Parameter-domain triangulation, immersion meshes, and OBJ export.

End neighborhoods are meshed with annular fans (geometric radius progression)
around each puncture -- in the w = 1/z chart for an end at infinity -- glued
to a Delaunay triangulation of the remaining chart.  Vertices are immersion
values; for n > 3 a projection picks the exported 3 coordinates and a sidecar
table keeps the full-dimensional data.

Everything is built as arrays: each fan is a (ring x angle) node array whose
triangles come from index arithmetic, the central fill is a hex lattice masked
by vectorised distance tests, and the Delaunay simplices are filtered by one
array test each.  Every triangle winds counterclockwise in the chart (scipy
orients Delaunay simplices so), so the exported faces have consistent
normals.  Only fan and outer-circle nodes can coincide (two fans that
touch); they are merged on the key ``(round(re, 9), round(im, 9))``.  Fill
nodes keep at least 0.45 lattice spacings from every fan and from the outer
boundary, so they are appended unmerged.  The fill is cut inside the outer
boundary polygon (the inscribed ``res``-gon), not merely inside its circle,
so no lattice node pokes through a boundary chord.  A lattice larger than
``MAX_FILL_LATTICE`` points is refused before anything is allocated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationNearSingularityError, MeshBudgetError, UsageError
from .rational import is_infinity
from .weierstrass import WeierstrassData, immersion_eval

__all__ = ["ParamTriangulation", "SurfaceMesh", "sample_domain", "build_mesh",
           "check_projection", "export_obj"]

RING_RATIO = 1.3  # geometric radius progression between annulus rings
# Hex-lattice points a fill may span.  The benchmark's largest mesh (JM m = 3
# at r_max 0.5, res 32) spans ~11k; ends 0.01 apart at the CLI defaults would
# span ~1.6e7, several hundred MB of coordinates and masks before Delaunay.
MAX_FILL_LATTICE = 1_000_000


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


def _ring_radii(r_min: float, r_max: float):
    radii = [r_min]
    while radii[-1] * RING_RATIO < r_max:
        radii.append(radii[-1] * RING_RATIO)
    radii.append(r_max)
    return radii


def _fan_nodes(center, radii: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(ring, angle) nodes of the annular fan around one puncture."""
    if is_infinity(center):
        return (1.0 / radii[:, None]) * u.conj()
    return complex(center) + radii[:, None] * u


def _fan_triangles(idx: np.ndarray) -> np.ndarray:
    """Two triangles per (ring gap, angle) cell of a (ring, angle) index array.

    Rings run outward from the puncture and angles counterclockwise around it
    (in the w = 1/z chart at infinity, which z = 1/w maps with its
    orientation), so (inner, outer, next inner) winds counterclockwise."""
    inner, outer = idx[:-1], idx[1:]
    inner1, outer1 = np.roll(inner, -1, axis=1), np.roll(outer, -1, axis=1)
    return np.stack([inner, outer, inner1, inner1, outer, outer1], axis=-1).reshape(-1, 3)


def _merge(points: np.ndarray):
    """Index of each point among the distinct keys, and each key's first point."""
    index: dict[tuple, int] = {}
    idx = np.array([index.setdefault((round(z.real, 9), round(z.imag, 9)), len(index))
                    for z in points.tolist()], dtype=int)
    return idx, np.unique(idx, return_index=True)[1]


def sample_domain(w: WeierstrassData, r_min: float = 1e-2, r_max: float = 1.0,
                  res: int = 32) -> ParamTriangulation:
    """Triangulated parameter domain: fans around every end plus a filled center.

    Overlapping fan disks (punctures closer than 2 r_max) shrink r_max
    automatically with a warning, and r_min is raised to the evaluation
    clearance of the datum when it lies below it.  The chart is covered out
    to a finite outer radius; when infinity is an end its fan provides the
    outer boundary.  A fill lattice of more than ``MAX_FILL_LATTICE`` points
    (ends very close together shrink r_max and the spacing with it) raises
    ``MeshBudgetError``.
    """
    from scipy.spatial import Delaunay, QhullError  # deferred: most of import minsurf's time

    if not (0.0 < r_min < r_max):
        raise UsageError("require 0 < r_min < r_max")
    if res < 8:
        raise UsageError("res must be at least 8")
    fin = w.finite_punctures
    inf = next((p for p in w.punctures if is_infinity(p)), None)
    has_inf = inf is not None

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

    if has_inf:
        outer_radius = 1.0 / r_max
    else:
        outer_radius = 2.5 * (max((abs(p) for p in fin), default=0.0) + r_max) + 1.0
    spacing = 2.0 * math.pi * r_max / res
    ny = int(outer_radius / (spacing * math.sqrt(3.0) / 2.0)) + 1
    nx = int(outer_radius / spacing) + 1
    lattice = (2 * nx + 1) * (2 * ny + 1)
    if lattice > MAX_FILL_LATTICE:
        raise MeshBudgetError(
            f"the central fill would span {lattice} lattice points (limit {MAX_FILL_LATTICE}): "
            f"r_max {r_max:.3g}, minimum end separation {w.min_separation:.3g}"
        )

    # fans (finite ends, then infinity) or, with no end at infinity, the outer circle
    angles = 2.0 * math.pi * np.arange(res) / res
    u = np.array([complex(math.cos(a), math.sin(a)) for a in angles])
    radii = np.array(_ring_radii(r_min, r_max))
    centers = list(fin) + ([inf] if has_inf else [])
    blocks = [_fan_nodes(p, radii, u) for p in centers]
    if not has_inf:
        blocks.append(outer_radius * u[None, :])
    points = np.concatenate([b.ravel() for b in blocks])
    idx, first = _merge(points)
    ring_nodes = points[first]
    block_idx = np.split(idx, np.cumsum([b.size for b in blocks])[:-1])
    triangles = [_fan_triangles(i.reshape(-1, res)) for i in block_idx[:len(centers)]]
    boundary = np.concatenate([i[-res:] for i in block_idx])

    # hex-grid fill of the central region, inside the boundary polygon
    cut = min(outer_radius - 0.45 * spacing,
              outer_radius * math.cos(math.pi / res) - 0.2 * spacing)
    iy = np.arange(-ny, ny + 1)[:, None]
    x = np.arange(-nx, nx + 1) * spacing + np.where(iy % 2, 0.5 * spacing, 0.0)
    y = np.broadcast_to(iy * spacing * math.sqrt(3.0) / 2.0, x.shape)
    inside = np.hypot(x, y) <= cut
    x, y = x[inside], y[inside]
    for p in fin:
        clear = np.hypot(x - p.real, y - p.imag) >= r_max + 0.45 * spacing
        x, y = x[clear], y[clear]
    fill = np.empty(x.size, dtype=complex)
    fill.real, fill.imag = x, y

    central = np.concatenate([ring_nodes[boundary], fill])
    central_idx = np.concatenate([boundary, ring_nodes.size + np.arange(fill.size)])
    if central.size >= 4:
        pts = np.column_stack([central.real, central.imag])
        try:
            tri = Delaunay(pts)
        except (QhullError, ValueError):
            tri = None
        if tri is not None:
            simplices = tri.simplices
            (ax, bx, cx), (ay, by, cy) = pts[simplices].T
            cen_x, cen_y = (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0
            keep = np.hypot(cen_x, cen_y) <= outer_radius * (1.0 + 1e-9)
            for p in fin:
                keep &= np.hypot(cen_x - p.real, cen_y - p.imag) >= r_max * 0.995
            area2 = np.abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
            keep &= area2 >= 1e-12 * spacing * spacing
            triangles.append(central_idx[simplices[keep]])

    nodes = np.concatenate([ring_nodes, fill])
    return ParamTriangulation(nodes=nodes, triangles=np.concatenate(triangles))


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


def check_projection(projection, n: int) -> tuple:
    """The projection as a tuple of 3 distinct 0-based axes below n, else UsageError."""
    proj = tuple(projection)
    if len(proj) != 3 or len(set(proj)) != 3 or any(not (0 <= i < n) for i in proj):
        raise UsageError(f"projection {proj!r} invalid for ambient dimension {n}")
    return proj


def export_obj(mesh: SurfaceMesh, path, projection=None):
    """Write the mesh as OBJ text; n > 3 data goes to a sidecar TSV.

    ``v`` lines carry the projected coordinates at full precision; faces are
    1-based.  Returns the list of written paths.
    """
    verts, faces = mesh.vertices, mesh.faces
    n = verts.shape[1]
    proj = check_projection(mesh.projection if projection is None else projection, n)
    path = str(path)
    text = (("v %.17g %.17g %.17g\n" * len(verts)) % tuple(verts[:, list(proj)].ravel().tolist())
            + ("f %d %d %d\n" * len(faces)) % tuple((faces + 1).ravel().tolist()))
    with open(path, "w") as fh:
        fh.write(text or "\n")
    written = [path]
    if n > 3:
        sidecar = path + ".coords.tsv"
        row = "\t".join(["%.17g"] * n) + "\n"
        with open(sidecar, "w") as fh:
            fh.write("\t".join(f"x{i + 1}" for i in range(n)) + "\n")
            fh.write((row * len(verts)) % tuple(verts.ravel().tolist()))
        written.append(sidecar)
    return written
