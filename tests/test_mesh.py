"""Parameter triangulation, immersion meshes, OBJ export."""

import numpy as np
import pytest

import minsurf as ms
from minsurf.errors import EvaluationNearSingularityError
from minsurf.mesh import SurfaceMesh, build_mesh, export_obj, sample_domain
from minsurf.weierstrass import conformal_factor


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
            lam = np.sqrt(conformal_factor(catenoid.data, mid).lambda_sq)
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
        assert np.allclose(table, mesh.vertices)

    def test_invalid_projection(self, plane, tmp_path):
        tri = sample_domain(plane.data, r_min=0.2, r_max=0.6, res=8)
        mesh = build_mesh(plane.data, tri)
        with pytest.raises(ValueError):
            export_obj(mesh, tmp_path / "x.obj", projection=(0, 1, 5))
