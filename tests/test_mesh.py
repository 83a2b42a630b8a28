"""Parameter triangulation, immersion meshes, OBJ export."""

import math
import time
import warnings

import numpy as np
import pytest

import minsurf as ms
from minsurf import mesh as mesh_module
from minsurf.errors import EvaluationNearSingularityError, MeshBudgetError, MeshTopologyError
from minsurf.mesh import (RING_RATIO, ParamTriangulation, SurfaceMesh, build_mesh, export_obj,
                          sample_domain)
from conftest import metric_sq
from minsurf.rational import is_infinity


def parse_obj(path):
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:]])
            elif parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:]])
    return np.array(verts), np.array(faces)


class TestSampleDomain:
    def test_catenoid_two_fans(self, catenoid):
        with pytest.warns(UserWarning):  # infinity fan forces an r_max shrink
            tri = sample_domain(catenoid.data, r_min=5e-2, r_max=1.0, res=16)
        near_zero = np.sum(np.abs(tri.nodes) < 0.06)
        far_out = np.sum(np.abs(tri.nodes) > 1.0 / 0.06)
        assert near_zero >= 16 and far_out >= 16  # innermost ring of each fan
        assert tri.triangles.min() >= 0
        assert tri.triangles.max() < tri.nodes.size

    def test_jorge_meeks_three_fans_plus_center(self, jm2):
        with pytest.warns(UserWarning):
            tri = sample_domain(jm2.data, r_min=2e-2, r_max=1.0, res=16)
        for p in jm2.data.punctures:
            assert np.sum(np.abs(tri.nodes - p) < 0.025) >= 16
        assert np.sum(np.abs(tri.nodes) < 0.3) > 0  # central fill exists

    def test_minimal_resolution_valid(self, catenoid):
        tri = sample_domain(catenoid.data, r_min=0.1, r_max=0.5, res=8)
        assert tri.triangles.shape[1] == 3
        a = tri.nodes[tri.triangles[:, 0]]
        b = tri.nodes[tri.triangles[:, 1]]
        c = tri.nodes[tri.triangles[:, 2]]
        area2 = np.abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real)
        assert np.all(area2 > 1e-12)

    def test_nodes_deduplicated(self, catenoid):
        tri = sample_domain(catenoid.data, r_min=0.1, r_max=0.5, res=8)
        pts = np.round(np.column_stack([tri.nodes.real, tri.nodes.imag]), 9)
        assert len({tuple(p) for p in pts}) == tri.nodes.size

    def test_bad_parameters(self, catenoid):
        with pytest.raises(ValueError):
            sample_domain(catenoid.data, r_min=1.0, r_max=0.5)
        with pytest.raises(ValueError):
            sample_domain(catenoid.data, res=4)


class TestBuildMesh:
    def test_plane_is_flat(self, plane):
        tri = sample_domain(plane.data, r_min=0.2, r_max=0.8, res=12)
        mesh = build_mesh(plane.data, tri)
        assert np.max(np.abs(mesh.vertices[:, 2])) < 1e-10

    def test_catenoid_end_flare(self, catenoid):
        # vertex planar radius grows like 2a/r = 1/r toward the end at 0
        tri = sample_domain(catenoid.data, r_min=1e-2, r_max=0.5, res=12)
        mesh = build_mesh(catenoid.data, tri)
        inner = np.abs(mesh.param) < 1.5e-2
        rad = np.linalg.norm(mesh.vertices[inner][:, :2], axis=1)
        expect = 1.0 / np.abs(mesh.param[inner])
        assert np.allclose(rad, expect, rtol=0.05)

    def test_counterexample_four_columns(self, counterexample):
        tri = sample_domain(counterexample.data, r_min=0.2, r_max=0.6, res=8)
        mesh = build_mesh(counterexample.data, tri)
        assert mesh.vertices.shape[1] == 4

    def test_metric_consistency_short_edges(self, catenoid):
        # narrow annulus fan with parameter edges well below 0.01
        from minsurf.mesh import ParamTriangulation

        res = 128
        ang = np.exp(2j * np.pi * np.arange(res) / res)
        nodes = np.concatenate([0.1 * ang, 0.102 * ang])
        tris = []
        for k in range(res):
            k1 = (k + 1) % res
            tris.append((k, k1, res + k))
            tris.append((k1, res + k1, res + k))
        tri = ParamTriangulation(nodes=nodes, triangles=np.array(tris))
        mesh = build_mesh(catenoid.data, tri)
        checked = 0
        for i, j in ((t[0], t[1]) for t in mesh.faces):
            dz = mesh.param[j] - mesh.param[i]
            if abs(dz) > 0.01:
                continue
            ds = np.linalg.norm(mesh.vertices[j] - mesh.vertices[i])
            mid = (mesh.param[i] + mesh.param[j]) / 2
            lam = np.sqrt(metric_sq(catenoid.data, mid))
            assert abs(ds - lam * abs(dz)) < 0.1 * lam * abs(dz)
            checked += 1
        assert checked > 0

    def test_jorge_meeks_m3_vertices_match_mpmath(self):
        # vertex differences from the basepoint against 2 Re int phi dz by
        # mpmath.quad at 20 digits: out along the sector bisector of the ends,
        # then along the circle |z| = |v| to the vertex, which stays in one
        # sector and so never meets an end
        mpmath = pytest.importorskip("mpmath")
        w = ms.generalized_jorge_meeks(3).data
        mesh = build_mesh(w, sample_domain(w, r_min=0.02, r_max=0.5, res=32))
        sector = 2 * np.pi / len(w.punctures)
        forms = [(r.num.coeffs[::-1].tolist(), r.den.coeffs[::-1].tolist()) for r in w.phi]

        def integral(num, den, path, velocity):
            # int phi_j dz along z = path(s), 0 <= s <= 1
            with mpmath.workdps(20):
                return mpmath.quad(lambda s: mpmath.polyval(num, path(s))
                                   / mpmath.polyval(den, path(s)) * velocity(s), [0, 1])

        rng = np.random.default_rng(2718)
        for k in rng.choice(mesh.param.size, size=3, replace=False):
            z = complex(mesh.param[k])
            rho, theta = abs(z), np.angle(z)
            mid = sector * (np.floor(theta / sector) + 0.5)
            ray = (lambda s: s * rho * mpmath.expj(mid), lambda s: rho * mpmath.expj(mid))
            angle = lambda s: mid + s * (theta - mid)
            arc = (lambda s: rho * mpmath.expj(angle(s)),
                   lambda s: 1j * rho * (theta - mid) * mpmath.expj(angle(s)))
            ref = np.array([float(2 * mpmath.re(integral(*form, *ray) + integral(*form, *arc)))
                            for form in forms])
            assert np.max(np.abs(mesh.vertices[k] - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_r_min_raised_to_clearance(self):
        # JM m = 1 with its ends 200 apart: the clearance (0.2) exceeds r_min
        w = ms.mobius_precompose(ms.generalized_jorge_meeks(1).data, (1, 0, 0, 100))
        with pytest.warns(UserWarning, match="clearance"):
            tri = sample_domain(w, r_min=0.01, r_max=10.0, res=8)
        dist = np.min(np.abs(tri.nodes[:, None] - np.array(w.finite_punctures)), axis=1)
        assert dist.min() >= w.clearance * (1 - 1e-9)
        assert np.all(np.isfinite(build_mesh(w, tri).vertices))

    def test_fan_inside_clearance_refused(self):
        # the catenoid moved to 1000: the infinity fan forces r_max to 5e-4,
        # inside the clearance 1e-3, so no finite fan can be sampled
        w = ms.mobius_precompose(ms.catenoid().data, (1, -1000, 0, 1))
        with pytest.warns(UserWarning), pytest.raises(EvaluationNearSingularityError):
            sample_domain(w, r_min=0.01, r_max=0.5, res=8)


class TestExportObj:
    def test_single_triangle_format(self, tmp_path):
        mesh = SurfaceMesh(
            vertices=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
            faces=np.array([[0, 1, 2]]),
            param=np.array([0, 1, 1j]),
            projection=(0, 1, 2),
        )
        path = tmp_path / "tri.obj"
        export_obj(mesh, path)
        lines = path.read_text().strip().splitlines()
        assert len([l for l in lines if l.startswith("v ")]) == 3
        assert lines[-1] == "f 1 2 3"

    def test_round_trip_printed_precision(self, catenoid, tmp_path):
        tri = sample_domain(catenoid.data, r_min=0.2, r_max=0.6, res=8)
        mesh = build_mesh(catenoid.data, tri)
        path = tmp_path / "cat.obj"
        export_obj(mesh, path)
        verts, faces = parse_obj(path)
        assert np.array_equal(faces, mesh.faces)
        assert np.array_equal(verts, np.asarray([[f"{x:.17g}" for x in v]
                                                 for v in mesh.vertices], dtype=float))

    def test_sidecar_for_n4(self, counterexample, tmp_path):
        tri = sample_domain(counterexample.data, r_min=0.2, r_max=0.6, res=8)
        mesh = build_mesh(counterexample.data, tri)
        path = tmp_path / "ce.obj"
        written = export_obj(mesh, path, projection=(0, 1, 2))
        assert len(written) == 2
        table = np.loadtxt(written[1], skiprows=1)
        assert table.shape == mesh.vertices.shape
        assert np.array_equal(table, mesh.vertices)

    def test_invalid_projection(self, plane, tmp_path):
        tri = sample_domain(plane.data, r_min=0.2, r_max=0.6, res=8)
        mesh = build_mesh(plane.data, tri)
        with pytest.raises(ValueError):
            export_obj(mesh, tmp_path / "x.obj", projection=(0, 1, 5))


# -- loop reference ----------------------------------------------------------
# sample_domain's nodes and export_obj written as per-node Python loops with a
# de-duplicating node pool.  The array implementation must reproduce them bit
# for bit: nodes, warnings and the written bytes.  The reference also builds
# the fan triangles and the kept lattice cells by loops; the zipped seams it
# leaves to the structural checks below.

class _NodePool:
    """Deduplicating node registry: equal parameter values share one vertex."""

    def __init__(self):
        self.nodes = []
        self._index = {}

    def add(self, z):
        key = (round(z.real, 9), round(z.imag, 9))
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(z)
            self._index[key] = idx
        return idx


def _loop_ring_radii(r_min, r_max):
    radii = [r_min]
    while radii[-1] * RING_RATIO < r_max:
        radii.append(radii[-1] * RING_RATIO)
    radii.append(r_max)
    return radii


def _loop_fan(pool, triangles, center, r_min, r_max, res):
    radii = _loop_ring_radii(r_min, r_max)
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
            triangles.append((inner[k], outer[k], inner[k1]))
            triangles.append((inner[k1], outer[k], outer[k1]))
    return rings[-1]


def loop_radii(w, r_min=1e-2, r_max=1.0, res=32):
    """sample_domain's parameter rules, with their warnings: the (r_min, r_max)
    it meshes with.  Fans are kept 3 lattice spacings (2 pi r_max / res) apart."""
    if not (0.0 < r_min < r_max):
        raise ValueError("require 0 < r_min < r_max")
    if res < 8:
        raise ValueError("res must be at least 8")
    fin = w.finite_punctures
    has_inf = any(is_infinity(p) for p in w.punctures)

    if len(fin) >= 2 and r_max > w.min_separation / (2.0 + 2.0 * math.pi * 3 / res):
        r_max = w.min_separation / (2.0 + 2.0 * math.pi * 3 / res)
        warnings.warn(f"end annuli overlap; shrinking r_max to {r_max:.3g}")
    if has_inf and fin:
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
    return r_min, r_max


def _outer_radius(w, r_max):
    """Radius of the fill's outer boundary: the infinity fan's r_max ring, or the outer circle."""
    if any(is_infinity(p) for p in w.punctures):
        return 1.0 / r_max
    return 2.5 * (max((abs(p) for p in w.finite_punctures), default=0.0) + r_max) + 1.0


def loop_sample_domain(w, r_min=1e-2, r_max=1.0, res=32, polygon=True):
    """Loop reference of sample_domain's nodes, with the fan triangles and the
    lattice cells whose three nodes are kept (no seams, and no pruning: none of
    the reference cases prunes a node).  ``polygon=False`` cuts the fill at the
    outer circle alone, which leaves lattice nodes beyond a chord of the
    boundary polygon."""
    r_min, r_max = loop_radii(w, r_min, r_max, res)
    fin = w.finite_punctures
    has_inf = any(is_infinity(p) for p in w.punctures)

    pool = _NodePool()
    triangles = []
    for p in fin:
        _loop_fan(pool, triangles, p, r_min, r_max, res)
    outer_radius = _outer_radius(w, r_max)
    if has_inf:
        _loop_fan(pool, triangles, next(p for p in w.punctures if is_infinity(p)),
                  r_min, r_max, res)
    else:
        for a in 2.0 * math.pi * np.arange(res) / res:
            pool.add(outer_radius * complex(math.cos(a), math.sin(a)))

    spacing = 2.0 * math.pi * r_max / res
    cut = outer_radius - 0.45 * spacing
    if polygon:
        cut = min(cut, outer_radius * math.cos(math.pi / res) - 0.2 * spacing)
    kept = {}
    ny = int(outer_radius / (spacing * math.sqrt(3.0) / 2.0)) + 1
    nx = int(outer_radius / spacing) + 1
    for iy in range(-ny, ny + 1):
        y = iy * spacing * math.sqrt(3.0) / 2.0
        offset = 0.5 * spacing if iy % 2 else 0.0
        for ix in range(-nx, nx + 1):
            z = complex(ix * spacing + offset, y)
            if abs(z) > cut:
                continue
            if any(abs(z - p) < r_max + 0.45 * spacing for p in fin):
                continue
            kept[iy, ix] = pool.add(z)
    # the up cell right of each node and the down cell above it
    for (iy, ix), k in kept.items():
        right, above_right = (iy, ix + 1), (iy + 1, ix + iy % 2)
        above_left = (iy + 1, ix + iy % 2 - 1)
        if right in kept and above_right in kept:
            triangles.append((k, kept[right], kept[above_right]))
        if above_right in kept and above_left in kept:
            triangles.append((k, kept[above_right], kept[above_left]))

    return ParamTriangulation(nodes=np.array(pool.nodes, dtype=complex),
                              triangles=np.array(triangles, dtype=int))


def loop_export_obj(mesh, path):
    """Loop reference of export_obj: one f-string per line."""
    n = mesh.vertices.shape[1]
    lines = ["v " + " ".join(f"{v[i]:.17g}" for i in mesh.projection) for v in mesh.vertices]
    lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in mesh.faces]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    written = [str(path)]
    if n > 3:
        sidecar = str(path) + ".coords.tsv"
        with open(sidecar, "w") as fh:
            fh.write("\t".join(f"x{i + 1}" for i in range(n)) + "\n")
            for v in mesh.vertices:
                fh.write("\t".join(f"{x:.17g}" for x in v) + "\n")
        written.append(sidecar)
    return written


def assert_export_matches_loop(mesh, tmp_path):
    """export_obj writes the bytes of the loop reference, sidecar included."""
    written = export_obj(mesh, tmp_path / "array.obj")
    expected = loop_export_obj(mesh, tmp_path / "loop.obj")
    assert len(written) == len(expected) == (2 if mesh.vertices.shape[1] > 3 else 1)
    for a, b in zip(written, expected):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def _with_warnings(f, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args, **kwargs)
    return out, [str(c.message) for c in caught]


def _ring_area(radius, res):
    """Area of the res-gon inscribed in a circle of the given radius."""
    return res / 2.0 * radius * radius * math.sin(2.0 * math.pi / res)


def assert_mesh_structure(w, tri, r_min, r_max, res):
    """The mesh is the sphere less one disk per end, triangulated.

    - V - E + F = (2 if infinity is an end else 1) - #ends;
    - edge-manifold: each directed edge in one face, each edge in one or two;
    - every triangle winds counterclockwise in the chart, every node is used;
    - the boundary edges (in exactly one face) are exactly the innermost ring
      of each finite fan plus the outer boundary (the infinity fan's ring at
      |z| = 1 / r_min, or the outer circle);
    - the signed areas sum to A(R_out) - #finite A(r_min), A(R) the area
      of the inscribed res-gon.
    """
    has_inf = any(is_infinity(p) for p in w.punctures)
    fin = w.finite_punctures
    faces, z, size = tri.triangles, tri.nodes, tri.nodes.size
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    assert np.unique(directed[:, 0] * size + directed[:, 1]).size == len(directed)
    undirected = np.sort(directed, axis=1)
    keys, per_edge = np.unique(undirected[:, 0] * size + undirected[:, 1], return_counts=True)
    assert per_edge.max() <= 2
    assert size - len(keys) + len(faces) == (2 if has_inf else 1) - len(w.punctures)
    a, b, c = z[faces.T]
    twice = (np.conj(b - a) * (c - a)).imag
    assert np.all(twice > 0)
    assert np.unique(faces).size == size

    outer = 1.0 / r_min if has_inf else _outer_radius(w, r_max)
    expected = set()
    for p, radius in [(complex(p), r_min) for p in fin] + [(0j, outer)]:
        on = np.flatnonzero(np.abs(np.abs(z - p) - radius) <= 1e-9 * radius)
        assert on.size == res, (p, radius)
        on = on[np.argsort(np.angle(z[on] - p))]
        expected |= {(min(i, j), max(i, j)) for i, j in zip(on.tolist(), np.roll(on, -1).tolist())}
    boundary = {divmod(int(k), size) for k in keys[per_edge == 1]}
    assert boundary == expected

    area = _ring_area(outer, res) - len(fin) * _ring_area(r_min, res)
    assert abs(twice.sum() / 2.0 - area) <= 1e-9 * area


def _cyclic(triangles):
    """Triangles as tuples rotated to start at their least index (orientation kept)."""
    t = np.asarray(triangles)
    k = np.argmin(t, axis=1)[:, None]
    return set(map(tuple, np.take_along_axis(np.tile(t, 2), k + np.arange(3), axis=1).tolist()))


BENCH = dict(r_min=0.02, r_max=0.5, res=32)
JM = ms.generalized_jorge_meeks
# (surface, sample_domain keywords, whether the circle-only cut gives the same mesh)
REFERENCE_CASES = {
    "catenoid-bench": (lambda: ms.catenoid().data, BENCH, True),
    "enneper-bench": (lambda: ms.enneper().data, BENCH, True),
    "counterexample-bench": (lambda: ms.holomorphic_counterexample().data, BENCH, True),
    "jm2-bench": (lambda: JM(2).data, BENCH, True),
    "jm3-bench": (lambda: JM(3).data, BENCH, True),
    # CLI defaults: the fans would touch at 0; r_max shrinks to keep them apart
    "jm1-touching-fans": (lambda: JM(1).data, {}, True),
    # ends at +-0.3 and r_max 0.3: fans that would meet at 0, shrunk apart
    "jm1-touching-fans-rounded": (lambda: ms.mobius_precompose(JM(1).data, (1, 0, 0, 0.3)),
                                  dict(r_min=0.01, r_max=0.3), True),
    "plane-no-finite-end": (lambda: ms.plane().data, {}, True),
    # ends at 0.25 and -0.5, none at infinity: the outer circle bounds the fill
    "moebius-catenoid-outer-circle": (
        lambda: ms.mobius_precompose(ms.catenoid().data, (1, -0.25, 1, 0.5)), {}, True),
    "catenoid-res8": (lambda: ms.catenoid().data, dict(r_min=0.1, r_max=0.5, res=8), False),
    "jm1-r_min-at-clearance": (lambda: ms.mobius_precompose(JM(1).data, (1, 0, 0, 100)),
                               dict(r_min=0.01, r_max=10.0, res=8), False),
}


def _edge_mesh(vertices, faces, n=3, projection=(0, 1, 2)):
    vertices = np.asarray(vertices, dtype=float).reshape(-1, n)
    return SurfaceMesh(vertices=vertices, faces=np.asarray(faces, dtype=int).reshape(-1, 3),
                       param=np.zeros(len(vertices), complex), projection=projection)


def _many_vertices():
    # more than 10^4 vertices and 2 x 10^4 faces: indices of 1 to 5 digits, and
    # vertex and face text that crosses several blocks of export_obj
    rng = np.random.default_rng(7)
    verts = rng.normal(size=(12_345, 5)) * 10.0 ** rng.integers(-6, 6, size=(12_345, 5))
    return _edge_mesh(verts, rng.integers(0, 12_345, size=(24_690, 3)), 5, (0, 2, 4))


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 1e-4, 1e16, 0.1]
# meshes no surface produces: empty ones, non-finite and extreme coordinates,
# a 7-dimensional immersion projected to (2, 5, 6), and a large random one
EDGE_MESHES = {
    "empty": lambda: _edge_mesh([], []),
    "empty-n4": lambda: _edge_mesh([], [], 4),
    "vertices-only": lambda: _edge_mesh([1.5, -2.0, 3.25], []),
    "special-values": lambda: _edge_mesh([(SPECIAL[i:] + SPECIAL[:i])[:4] for i in range(12)],
                                         [[0, 1, 2], [9, 10, 11]], 4),
    "n7-projection-2-5-6": lambda: _edge_mesh(np.random.default_rng(3).normal(size=(50, 7)),
                                              [[0, 1, 2], [47, 48, 49]], 7, (2, 5, 6)),
    "more-than-1e4-vertices": _many_vertices,
}


class TestAgainstLoopReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bitwise_equal(self, case, tmp_path):
        make, kwargs, circle_cut_same = REFERENCE_CASES[case]
        w = make()
        tri, warned = _with_warnings(sample_domain, w, **kwargs)
        for polygon in (True, False) if circle_cut_same else (True,):
            ref, ref_warned = _with_warnings(loop_sample_domain, w, polygon=polygon, **kwargs)
            assert tri.nodes.tobytes() == ref.nodes.tobytes()
            assert tri.triangles.dtype == ref.triangles.dtype
            assert _cyclic(ref.triangles) <= _cyclic(tri.triangles)
            assert warned == ref_warned
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r_min, r_max = loop_radii(w, **kwargs)
        assert_mesh_structure(w, tri, r_min, r_max, kwargs.get("res", 32))
        assert_export_matches_loop(build_mesh(w, tri), tmp_path)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_lattice_cells_are_delaunay(self, case):
        # the triangles between fill nodes with three edges of one lattice
        # spacing are exactly such simplices of the fill's Delaunay triangulation
        spatial = pytest.importorskip("scipy.spatial")
        make, kwargs, _ = REFERENCE_CASES[case]
        w = make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tri = sample_domain(w, **kwargs)
            r_min, r_max = loop_radii(w, **kwargs)
        res = kwargs.get("res", 32)
        spacing = 2.0 * math.pi * r_max / res
        rings = len(_loop_ring_radii(r_min, r_max))
        has_inf = any(is_infinity(p) for p in w.punctures)
        first_fill = res * (len(w.punctures) * rings + (0 if has_inf else 1))
        fill = tri.nodes[first_fill:]

        def cells(simplices, z):
            a, b, c = z[simplices.T]
            unit = [np.abs(np.abs(d) - spacing) <= 1e-12 * spacing for d in (b - a, c - b, a - c)]
            kept = np.sort(simplices[unit[0] & unit[1] & unit[2]], axis=1)
            return kept[np.lexsort(kept.T[::-1])]

        inner = tri.triangles[np.all(tri.triangles >= first_fill, axis=1)] - first_fill
        delaunay = spatial.Delaunay(np.column_stack([fill.real, fill.imag])).simplices
        mine, theirs = cells(inner, fill), cells(delaunay, fill)
        assert len(mine) > 0
        assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("case", sorted(EDGE_MESHES))
    def test_edge_meshes_bitwise_equal(self, case, tmp_path):
        assert_export_matches_loop(EDGE_MESHES[case](), tmp_path)

    def test_circle_cut_differs_where_the_polygon_binds(self):
        # the cases marked False above do exercise the polygon rule
        for make, kwargs, circle_cut_same in REFERENCE_CASES.values():
            if not circle_cut_same:
                w = make()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    new, old = (loop_sample_domain(w, polygon=p, **kwargs) for p in (True, False))
                assert new.nodes.size < old.nodes.size


def _polygon_apothem_excess(z, radius, res):
    """max over the edges of the inscribed res-gon (vertices at 2 pi k / res) of
    the distance of z beyond the edge's line; negative inside the polygon."""
    normals = np.exp(-1j * np.pi * (2 * np.arange(res) + 1) / res)
    return np.max((z[:, None] * normals).real, axis=1) - radius * math.cos(math.pi / res)


class TestTopology:
    """The parameter mesh is a sphere with one disk cut out per end (infinity
    included when it is an end): V - E + F = (2 if infinity is an end else 1)
    - #ends, every edge lies in one or two faces, every triangle winds
    counterclockwise in the chart, and the central fill stays inside the
    boundary polygon.  The outer radius is 1 / r_max with an end at infinity
    and 2.5 (max |p| + r_max) + 1 without, r_max after any shrink; the exact
    boundary and area checks of ``assert_mesh_structure`` hold as well."""

    SURFACES = {"catenoid": ms.catenoid, "plane": ms.plane, "enneper": ms.enneper,
                "counterexample": ms.holomorphic_counterexample,
                **{f"jm{m}": (lambda m=m: JM(m)) for m in (1, 2, 3, 4, 6)},
                # ends at 0.25 and -0.5, none at infinity
                "moebius-catenoid": lambda: ms.mobius_precompose(ms.catenoid().data,
                                                                 (1, -0.25, 1, 0.5)),
                # JM m = 1 with its ends at +-0.3
                "moebius-jm1": lambda: ms.mobius_precompose(JM(1).data, (1, 0, 0, 0.3))}
    # the sweep before the fan gap rule; cases it shrinks now assert the warning
    FIRST = dict(res=(8, 12, 16, 24), r_max=(0.2, 0.3, 0.5))
    # JM m = 3 at r_max 0.7 and res 8 or 16 left holes between near fans
    WIDER = dict(res=(8, 12, 16, 24, 32, 48), r_max=(0.2, 0.3, 0.5, 0.7, 1.0))

    @pytest.mark.parametrize("name", sorted(SURFACES))
    def test_sweep(self, name):
        surface = self.SURFACES[name]()
        w = getattr(surface, "data", surface)
        has_inf = any(is_infinity(p) for p in w.punctures)
        fin = np.array(w.finite_punctures, dtype=complex)
        for res in self.WIDER["res"]:
            for r_max in self.WIDER["r_max"]:
                tri, warned = _with_warnings(sample_domain, w, r_min=r_max / 10, r_max=r_max,
                                             res=res)
                (r_min, shrunk), expected = _with_warnings(loop_radii, w, r_min=r_max / 10,
                                                           r_max=r_max, res=res)
                assert warned == expected, (res, r_max)
                first = res in self.FIRST["res"] and r_max in self.FIRST["r_max"]
                if first:
                    # only the fan gap rule may shrink r_max in the first sweep
                    assert all(m.startswith("end annuli overlap; shrinking r_max")
                               for m in warned), (res, r_max)
                    assert (shrunk < r_max) == bool(warned), (res, r_max)
                r_max = shrunk
                faces = tri.triangles
                edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                                faces[:, [2, 0]]]), axis=1)
                _, per_edge = np.unique(edges[:, 0] * tri.nodes.size + edges[:, 1],
                                        return_counts=True)
                euler = tri.nodes.size - len(per_edge) + len(faces)
                assert euler == (2 if has_inf else 1) - len(w.punctures), (res, r_max)
                assert per_edge.max() <= 2, (res, r_max)
                a, b, c = tri.nodes[faces.T]
                assert np.all((np.conj(b - a) * (c - a)).imag > 0), (res, r_max)
                radius = _outer_radius(w, r_max)
                z = tri.nodes
                off_fans = np.all(np.abs(z[:, None] - fin) > r_max * (1 + 1e-9), axis=1)
                fill = z[off_fans & (np.abs(z) < radius * (1 - 1e-9))]
                assert fill.size > 0 or not first  # wider fans may leave no lattice
                assert np.all(_polygon_apothem_excess(fill, radius, res) < 0), (res, r_max)
                assert_mesh_structure(w, tri, r_min, r_max, res)

    def test_fans_too_close_for_the_lattice_are_refused(self, monkeypatch):
        # with no gap rule the fans of JM m = 3 at r_max 0.7 stay 0.014 apart,
        # no lattice passes between them, and the seam is refused, not left open
        monkeypatch.setattr(mesh_module, "FAN_GAP", 0)
        with pytest.raises(MeshTopologyError, match="holes about 4 finite ends"):
            sample_domain(JM(3).data, r_min=0.07, r_max=0.7, res=8)

    def test_unzippable_seam_raises(self):
        # a loop inside the one it should be zipped around: no triangle of
        # either kind winds counterclockwise
        z = np.concatenate([np.exp(0.5j * np.pi * np.arange(4)),
                            0.5 * np.exp(0.5j * np.pi * np.arange(4))])
        with pytest.raises(MeshTopologyError, match="seam"):
            mesh_module._zip([0, 1, 2, 3], [4, 5, 6, 7], z, 0j)


class TestNodeBudget:
    def test_close_ends_refused_quickly(self):
        # JM m = 1 with its ends 1e-3 apart: r_max shrinks to 3.86e-4 and the
        # fill lattice would span ~8e8 points
        w = ms.mobius_precompose(JM(1).data, (1, 0, 0, 5e-4))
        assert abs(w.min_separation - 1e-3) < 1e-12
        start = time.perf_counter()
        with pytest.warns(UserWarning, match="shrinking r_max"), \
                pytest.raises(MeshBudgetError, match=r"lattice points .*r_max 0.000386.*0.001"):
            sample_domain(w)
        assert time.perf_counter() - start < 1.0
