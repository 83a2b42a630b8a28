"""Parameter-domain triangulation, immersion meshes, and OBJ export.

Each end gets an annular fan (geometric radius progression; in the w = 1/z
chart at infinity), the rest of the chart a hex lattice cut inside the outer
boundary polygon and clear of the fans.  Fan and lattice triangles come from
index arithmetic, a lattice cell being kept iff its three nodes are.  Seams
are zipped by merging two loops in angle (Christiansen-Sederberg 1978): each
finite fan's ring with its lattice hole, the outer boundary with the
lattice's outer loop after its reflex vertices are clipped.  Every triangle
winds counterclockwise in the chart.  Vertices are immersion values; for
n > 3 a projection picks the exported 3 coordinates and a sidecar table keeps
the full-dimensional data.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .errors import (EvaluationNearSingularityError, MeshBudgetError, MeshTopologyError,
                     UsageError)
from .rational import INF, is_infinity
from .weierstrass import WeierstrassData, immersion_eval

__all__ = ["ParamTriangulation", "SurfaceMesh", "sample_domain", "build_mesh",
           "check_projection", "export_obj"]

RING_RATIO = 1.3  # geometric radius progression between annulus rings
# Hex-lattice points a fill may span.  The benchmark's largest mesh (JM m = 3
# at r_max 0.5, res 32) spans ~11k; ends 0.01 apart at the CLI defaults would
# span ~2.2e7, several hundred MB of coordinates and masks before any is kept.
MAX_FILL_LATTICE = 1_000_000
FAN_GAP = 3  # lattice spacings between fans: 2 x 0.45 clearance and two rows (sqrt 3)
EXPORT_BLOCK = 1024  # vertices (and faces) per block of written text


class ParamTriangulation(NamedTuple):
    nodes: np.ndarray      # complex parameter positions
    triangles: np.ndarray  # (m, 3) int indices


class SurfaceMesh(NamedTuple):
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


def _zip(a: list, b: list, z: np.ndarray, c) -> list:
    """Triangles between a closed loop ``a`` and the loop ``b`` around it, both
    counterclockwise about c.  Their vertices merge in angle about c; each step
    takes the angle-preferred triangle if it winds counterclockwise, else the other."""
    u = z[a[0]] - c
    b = np.roll(b, -np.argmin(np.abs(np.angle((z[b] - c) / u)))).tolist()
    a, b = a + a[:1] * 2, b + b[:1] * 2  # closed, then a repeat: a zero-area end stop
    (ta, pa), (tb, pb) = ((np.unwrap(np.angle((z[v] - c) / u)).tolist(), z[v].tolist())
                          for v in (a, b))
    ta[-1] = tb[-1] = math.inf
    i = j = 0
    out = []
    while i + j < len(a) + len(b) - 4:
        for di in (1, 0) if ta[i + 1] <= tb[j + 1] else (0, 1):
            k, r = (a[i + 1], pa[i + 1]) if di else (b[j + 1], pb[j + 1])
            if ((pb[j] - pa[i]).conjugate() * (r - pa[i])).imag > 0:
                out.append((a[i], b[j], k))
                i, j = i + di, j + 1 - di
                break
        else:
            raise MeshTopologyError(f"no counterclockwise triangle closes the seam about {c:.3g}")
    return out


def _ear_fill(loop: list, z: np.ndarray):
    """Clip the reflex vertices of a counterclockwise loop: (loop, ear triangles).
    A turn within 1e-9 of straight counts as straight."""
    k = int(np.argmin(z[loop].real))  # leftmost, so convex
    loop = loop[k:] + loop[:k + 1]
    pts = z[loop].tolist()
    stack, ears = [], []
    for v, q in enumerate(pts):
        while len(stack) > 1:
            p, o = pts[stack[-2]], pts[stack[-1]]
            if ((o - p).conjugate() * (q - o)).imag >= -1e-9 * abs(o - p) * abs(q - o):
                break
            ears.append((loop[stack[-2]], loop[v], loop[stack.pop()]))
        stack.append(v)
    return [loop[v] for v in stack[:-1]], ears


def sample_domain(w: WeierstrassData, r_min: float = 1e-2, r_max: float = 1.0,
                  res: int = 32) -> ParamTriangulation:
    """Triangulated parameter domain: fans around every end plus a filled center.

    Fans less than ``FAN_GAP`` lattice spacings apart shrink r_max
    automatically with a warning, and r_min is raised to just past the
    evaluation clearance of the datum when it lies below it; radii that are
    not finite raise ``UsageError``.  The chart is covered out to a finite
    outer radius; when infinity is an end its fan provides the outer
    boundary.  A fill lattice of more than ``MAX_FILL_LATTICE`` points
    (ends very close together shrink r_max and the spacing with it) raises
    ``MeshBudgetError``, and seams that cannot be closed ``MeshTopologyError``.
    """
    if not (0.0 < r_min < r_max < math.inf):
        raise UsageError("require 0 < r_min < r_max < inf")
    if res < 8:
        raise UsageError("res must be at least 8")
    fin = w.finite_punctures
    has_inf = INF in w.end_poles

    if len(fin) >= 2 and r_max > w.min_separation / (2.0 + 2.0 * math.pi * FAN_GAP / res):
        r_max = w.min_separation / (2.0 + 2.0 * math.pi * FAN_GAP / res)
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
        r_min = w.clearance * (1.0 + 1e-9)  # its ring, rounded, stays clear
        if r_max <= r_min:
            raise EvaluationNearSingularityError(
                f"r_max {r_max:.3g} is within the evaluation clearance {w.clearance:.3g}"
            )
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
    centers = list(fin) + ([INF] if has_inf else [])
    blocks = [_fan_nodes(p, radii, u) for p in centers]
    if not has_inf:
        blocks.append(outer_radius * u[None, :])
    ring_nodes = np.concatenate([b.ravel() for b in blocks])
    rows = np.arange(ring_nodes.size).reshape(-1, res)
    triangles = [_fan_triangles(rows[k * radii.size:(k + 1) * radii.size])
                 for k in range(len(centers))]
    rings = rows[radii.size - 1::radii.size][:len(fin)].tolist()
    outer = (rows[-1][-np.arange(res)] if has_inf else rows[-1]).tolist()  # counterclockwise

    # hex-lattice fill inside the boundary polygon; a cell is kept iff its three nodes are
    cut = min(outer_radius - 0.45 * spacing,
              outer_radius * math.cos(math.pi / res) - 0.2 * spacing)
    iy = np.arange(-ny, ny + 1)[:, None]
    grid = np.empty((2 * ny + 1, 2 * nx + 1), dtype=complex)
    grid.real = np.arange(-nx, nx + 1) * spacing + np.where(iy % 2, 0.5 * spacing, 0.0)
    grid.imag = iy * spacing * math.sqrt(3.0) / 2.0
    keep = np.hypot(grid.real, grid.imag) <= cut
    for p in fin:
        keep &= np.hypot(grid.real - p.real, grid.imag - p.imag) >= r_max + 0.45 * spacing
    n, keep = 2 * nx + 1, keep.ravel()
    g = np.arange(keep.size - n).reshape(-1, n)[:, :-1]  # an up and a down cell per g
    e = iy[:-1] % 2  # the row above sits half a spacing left (0) or right (1)
    every = np.stack([g, g + 1, g + n + e, g + 1 - e, g + n + 1, g + n], -1).reshape(-1, 3)
    while True:  # drop nodes in no cell and nodes where two boundary loops pinch
        k = keep[every]
        cells = every[k[:, 0] & k[:, 1] & k[:, 2]]
        src, dst = cells.ravel(), cells[:, [1, 2, 0]].ravel()
        step = np.abs(dst - src)  # 1 along a row, n - 1, n or n + 1 across rows
        key = 4 * np.minimum(src, dst) + np.where(step == 1, 0, step - n + 2)
        once = np.bincount(key)[key] == 1  # in one cell: on the boundary
        src, dst = src[once], dst[once]
        drop = keep & ((np.bincount(cells.ravel(), minlength=keep.size) == 0)
                       | (np.bincount(src, minlength=keep.size) > 1))
        if not drop.any():
            break
        keep &= ~drop
    index = ring_nodes.size - 1 + np.cumsum(keep)
    nodes = np.concatenate([ring_nodes, grid.ravel()[keep]])
    triangles.append(index[cells])

    # the lattice's boundary loops: one outer loop and one hole about each finite fan
    succ = dict(zip(index[src].tolist(), index[dst].tolist()))
    loops = []
    while succ:
        loops.append([next(iter(succ))])
        while (v := succ.pop(loops[-1][-1])) != loops[-1][0]:
            loops[-1].append(v)
    outside = [lp for lp in loops if np.sum(np.conj(nodes[lp]) * nodes[np.roll(lp, -1)]).imag > 0]
    holes = [lp[::-1] for lp in loops if lp not in outside]  # now counterclockwise
    # winding numbers of the holes about the fans: a permutation matrix when
    # each finite fan lies in a hole of its own
    wind = np.reshape([round(np.angle((nodes[np.roll(lp, -1)] - p) / (nodes[lp] - p)).sum()
                             / (2.0 * math.pi)) for lp in holes for p in fin],
                      (len(holes), len(fin)))
    if (len(outside) == 1 and len(holes) == len(fin) == wind.sum()
            and np.array_equal(wind @ wind.T, np.eye(len(fin)))):
        hull, ears = _ear_fill(outside[0], nodes)
        triangles.append(np.array(ears, dtype=int).reshape(-1, 3))
        seams = [(hull, outer, 0)] + [(rings[k], holes[h], fin[k]) for h, k in np.argwhere(wind)]
    elif not loops and len(fin) < 2:  # no lattice: one fan's ring zipped to the outer ring
        seams = [(rings[0], outer, fin[0])] if fin else []
        if not fin:
            triangles.append(np.stack([np.full(res - 2, outer[0]), outer[1:-1], outer[2:]], 1))
    else:
        raise MeshTopologyError(f"the fill lattice has {len(outside)} outer loops and "
                                f"{len(holes)} holes about {len(fin)} finite ends")
    triangles += [np.array(_zip(a, b, nodes, c)) for a, b, c in seams]
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

    ``v`` lines carry the projected coordinates at full precision (``%.17g``);
    faces are 1-based, written like ``%d`` from 4-digit group words.  Each
    coordinate is formatted once, for its ``v`` line and its sidecar row, and
    the files are written in blocks of ``EXPORT_BLOCK`` rows.  Returns the
    list of written paths.
    """
    from ._floattext import format_g17, format_int

    verts, faces = mesh.vertices, mesh.faces
    n = verts.shape[1]
    proj = list(check_projection(mesh.projection if projection is None else projection, n))
    path = str(path)
    sidecar = path + ".coords.tsv" if n > 3 else None
    with open(path, "wb") as obj, (open(sidecar, "wb") if sidecar else nullcontext()) as side:
        if side:
            side.write("\t".join(f"x{i + 1}" for i in range(n)).encode() + b"\n")
        for start in range(0, len(verts), EXPORT_BLOCK):
            cells = format_g17(verts[start:start + EXPORT_BLOCK])
            obj.write(_text_rows(cells[:, proj], b"v", b" "))
            if side:
                side.write(_text_rows(cells, b"", b"\t"))
        for start in range(0, len(faces), EXPORT_BLOCK):
            obj.write(_text_rows(format_int(faces[start:start + EXPORT_BLOCK] + 1), b"f", b" "))
        if not (len(verts) or len(faces)):
            obj.write(b"\n")
    return [path] + ([sidecar] if sidecar else [])


def _text_rows(cells: np.ndarray, lead: bytes, sep: bytes) -> np.ndarray:
    """Rows of text cells (rows, columns, width) as one line each: ``lead``
    (one byte or none), the cells joined by ``sep``, a newline.  A cell is
    NUL-padded text whose first byte is NUL; the separator goes there and the
    NULs are squeezed out."""
    rows, cols, width = cells.shape
    buf = np.empty((rows, cols * width + 2), np.uint8)
    buf[:, 0] = lead[0] if lead else 0
    buf[:, 1:-1] = cells.reshape(rows, -1)
    buf[:, -1] = ord("\n")
    buf[:, 1 + width * np.arange(0 if lead else 1, cols)] = ord(sep)
    return buf[buf != 0]
