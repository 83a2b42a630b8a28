"""Weierstrass datum validation, immersion evaluation, and metric checks."""

import json

import numpy as np
import pytest

import minsurf as ms
from conftest import branched_enneper
from minsurf.errors import (
    EvaluationNearSingularityError,
    NonRealResidueError,
    SingularMetricError,
)
from minsurf.rational import INF, RationalMap, is_infinity, laurent_expand
from minsurf.weierstrass import (
    WeierstrassData,
    check_residues_real,
    conformal_factor,
    detect_punctures,
    form_residue_vector,
    immersion_delta,
    immersion_eval,
    metric_order_at,
    validate,
    validate_null,
)


def catenoid_antiderivative(z):
    """Closed-form primitive of the catenoid components (hand oracle)."""
    return np.array([-1 / (2 * z) - z / 2, -1j / (2 * z) + 1j * z / 2, np.log(z)])


class TestValidateNull:
    def test_catenoid_symbolic_identity(self, catenoid):
        # independent oracle: (1-z^2)^2 - (1+z^2)^2 + 4 z^2 expands to zero
        sq1 = np.convolve([1, 0, -1], [1, 0, -1])
        sq2 = np.convolve([1, 0, 1], [1, 0, 1])
        sq3 = np.convolve([0, 2], [0, 2])
        total = sq1 - sq2
        total[: sq3.size] += sq3
        assert np.allclose(total, 0)
        check = validate_null(catenoid.data)
        assert check.ok and check.defect < 1e-14

    def test_counterexample_identity(self, counterexample):
        # 1/4 - 1/4 + z^-6 - z^-6 = 0 by hand
        check = validate_null(counterexample.data)
        assert check.ok and check.defect < 1e-14

    def test_constant_datum_rejected(self):
        w = WeierstrassData(
            [RationalMap([1.0]), RationalMap([0.0], [1.0]), RationalMap([0.0], [1.0])],
            punctures=(INF,),
        )
        check = validate_null(w)
        assert not check.ok
        assert check.defect == pytest.approx(1.0)


class TestDetectPunctures:
    def test_catenoid(self, catenoid):
        pts = detect_punctures(catenoid.data.phi)
        assert len(pts) == 2
        assert abs(pts[0]) < 1e-10 and is_infinity(pts[1])

    def test_jorge_meeks_m2_cube_roots_not_infinity(self, jm2):
        pts = detect_punctures(jm2.data.phi)
        assert not any(is_infinity(p) for p in pts)
        expected = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        assert len(pts) == 3
        for p in pts:
            assert min(abs(p - e) for e in expected) < 1e-9

    def test_catenoid_ends_1e3_apart(self, catenoid):
        # the pulled-back denominators have two double roots 1e-3 apart: two
        # finite punctures, not four
        w = ms.mobius_precompose(catenoid.data, (1, -0.25, 1, -0.251))
        finite = sorted(w.finite_punctures, key=lambda p: p.real)
        assert len(finite) == 2
        assert abs(finite[0] - 0.25) < 1e-12 and abs(finite[1] - 0.251) < 1e-12

    def test_simple_pole_pair(self):
        phi = (RationalMap([1], [0, 1]), RationalMap([1j], [0, 1]), RationalMap([0.0], [1]))
        pts = detect_punctures(phi)
        assert len(pts) == 2
        assert abs(pts[0]) < 1e-10 and is_infinity(pts[1])


class TestPoleTable:
    DATA = {"catenoid": lambda: ms.catenoid().data, "enneper": lambda: ms.enneper().data,
            "jm4": lambda: ms.generalized_jorge_meeks(4).data,
            "jm4-moebius": lambda: ms.mobius_precompose(ms.generalized_jorge_meeks(4).data,
                                                        (1, -0.3, 0.2, 1))}

    def test_roots_calls_per_analysis(self, monkeypatch):
        self._check_roots_calls(monkeypatch, "jm4")

    @pytest.mark.parametrize("name", ["catenoid", "enneper", "jm4-moebius"])
    def test_roots_calls_per_analysis_other_data(self, monkeypatch, name):
        self._check_roots_calls(monkeypatch, name)

    @staticmethod
    def _count_roots(monkeypatch):
        """The polynomials passed to ``roots`` from now on, at every binding site."""
        import sys

        import minsurf.rational as rat

        calls = []
        real_roots = rat.roots

        def counting_roots(p, *args, **kwargs):
            calls.append(p)
            return real_roots(p, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("minsurf") and getattr(mod, "roots", None) is real_roots:
                monkeypatch.setattr(mod, "roots", counting_roots)
        return calls

    def test_roots_calls_per_moebius_pullback(self, monkeypatch):
        # each component is pulled back as a 1-form in one step, T' included:
        # one roots() on its numerator, one on the new denominator, and the
        # analysis reuses the latter
        base = ms.generalized_jorge_meeks(4).data
        assert all(r.den_roots for r in base.phi)
        calls = self._count_roots(monkeypatch)
        w = ms.mobius_precompose(base, (1, -0.3, 0.2, 1))
        assert len(calls) == 2 * len(w.phi) == 18
        assert sum(any(p is r.num for r in base.phi) for p in calls) == len(w.phi)
        assert sum(any(p is r.den for r in w.phi) for p in calls) == len(w.phi)
        assert ms.run_analysis(w).valid
        assert len(calls) <= 2 * len(w.phi) + 1

    def _check_roots_calls(self, monkeypatch, name):
        # counted from construction on: one roots() per component denominator
        # in total (when the component is reduced), and one other per datum,
        # on a cleared numerator, for its branch points
        calls = self._count_roots(monkeypatch)
        w = self.DATA[name]()
        built = len(calls)
        assert ms.run_analysis(w).valid
        dens = [r.den for r in w.phi if r.den.degree() >= 1]
        on_dens = [p for p in calls if any(p is d for d in dens)]
        assert len(on_dens) == len(dens)
        assert all(sum(p is d for p in on_dens) == 1 for d in dens)
        others = [p for p in calls[built:] if not any(p is d for d in dens)]
        assert len(others) <= 1
        assert all(any(p is q for q in w.cleared[1]) for p in others)
        # the partial fractions of the immersion reuse the denominators' roots
        before = len(calls)
        immersion_eval(w, 0.3 + 0.1j)
        assert len(calls) == before

    @staticmethod
    def _moved(w, eps):
        return WeierstrassData(w.phi, punctures=[p + eps for p in w.punctures])

    def test_listed_punctures_within_merge_rule(self):
        # JM m = 3 ends are double poles: listed points 1e-7 off are the
        # same poles, and every end is expanded at the poles themselves
        w = ms.generalized_jorge_meeks(3).data
        moved = self._moved(w, 1e-7)
        assert validate(moved).ok
        for p, q in zip(w.punctures, moved.punctures):
            e, f = ms.analyze_end(w, p), ms.analyze_end(moved, q)
            assert (f.mu, f.a, f.b) == (e.mu, e.a, e.b)
            assert np.array_equal(f.a_minus1, e.a_minus1)
            assert np.array_equal(f.frame, e.frame)

    def test_listed_punctures_beyond_merge_rule(self):
        report = validate(self._moved(ms.generalized_jorge_meeks(3).data, 1e-4))
        assert not report.ok and not report.punctures_ok
        assert any("not listed among the punctures" in m for m in report.messages)


class TestLaurentTable:
    @staticmethod
    def _count_expansions(monkeypatch):
        import sys

        import minsurf.rational as rat

        real_expand = rat.laurent_expand
        calls = []

        def counting_expand(r, center, *args, **kwargs):
            calls.append((r, center))
            return real_expand(r, center, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("minsurf") and getattr(mod, "laurent_expand", None) is real_expand:
                monkeypatch.setattr(mod, "laurent_expand", counting_expand)
        return calls

    def test_one_expansion_per_component_and_centre(self, monkeypatch):
        calls = self._count_expansions(monkeypatch)
        w = ms.generalized_jorge_meeks(4).data

        def analysis_round():
            rep = ms.run_analysis(w)
            assert rep.valid
            return [ms.rotation_index_numeric(w, e.puncture, (1e2, 1e3), end=e)
                    for e in rep.ends]

        assert analysis_round() == [1] * 5
        # 9 components, 5 ends: the pole table, validation, curvature, the
        # end analysis, the partial fractions and the local immersions share
        # one expansion per (component, centre)
        assert len(calls) == 45
        assert len({(id(r), c) for r, c in calls}) == 45
        assert analysis_round() == [1] * 5
        assert len(calls) == 45

    @staticmethod
    def _reference_window(w, p, depth):
        """The window from ``laurent_expand`` called directly at that depth."""
        series = []
        for r in w.phi:
            if r.is_zero:
                series.append(None)
                continue
            if is_infinity(p):
                s = laurent_expand(r, INF, depth)
                series.append((s.order - 2, -s.coeffs))
                continue
            near = [z for z, _m in (ms.roots(r.den) if r.den.degree() >= 1 else ())
                    if abs(z - p) <= 1e-5 * (1 + abs(p))]
            s = laurent_expand(r, near[0] if near else p, depth)
            series.append((s.order, s.coeffs))
        mu = min(order for order, _ in (s for s in series if s is not None))
        C = np.zeros((w.n, depth + 1), dtype=complex)
        for j, s in enumerate(series):
            if s is not None:
                for k in range(depth + 1):
                    if 0 <= mu + k - s[0] < s[1].size:
                        C[j, k] = s[1][mu + k - s[0]]
        return mu, C

    @pytest.mark.parametrize("depths", [(0, 2, 8, 40), (40, 8, 2, 0)])
    def test_windows_are_bitwise_prefixes(self, depths):
        from minsurf.weierstrass import form_coefficient_window

        for entry in (ms.holomorphic_counterexample(), ms.generalized_jorge_meeks(3)):
            w = entry.data
            for depth in depths:
                for p in w.punctures:
                    mu, C = form_coefficient_window(w, p, depth)
                    ref_mu, ref = self._reference_window(w, p, depth)
                    assert mu == ref_mu
                    assert C.tobytes() == ref.tobytes()


class TestResiduesReal:
    def test_catenoid_residue_vector(self, catenoid):
        res = form_residue_vector(catenoid.data, 0j)
        assert np.allclose(res, [0, 0, 1], atol=1e-13)
        assert check_residues_real(catenoid.data).ok

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_jorge_meeks_real_residues(self, m):
        check = check_residues_real(ms.generalized_jorge_meeks(m).data)
        assert check.ok and check.worst_imag < 1e-12

    def test_imaginary_residue_rejected(self):
        w = WeierstrassData(
            [RationalMap([1j], [0, 1]), RationalMap([1], [0, 1]),
             RationalMap([0.0], [1])],
            punctures=(0j, INF),
        )
        check = check_residues_real(w)
        assert not check.ok
        assert check.worst_imag == pytest.approx(1.0, rel=1e-9)


class TestBranchPoints:
    """A zero of every form is a branch point: validation refuses it, and
    the Gauss-map degree comes from the numerators' common factor."""

    def test_finite_branch_point_refused(self):
        w = branched_enneper()["enneper-branched"]
        (z, m), = w.branch_points
        assert abs(z - 1) < 1e-12 and m == 2
        report = validate(w)
        assert report.null.ok and report.residues.ok and report.orders_ok and report.punctures_ok
        assert not report.ok and report.branch_points == w.branch_points
        assert any("branch points 1" in msg and "(order 2)" in msg for msg in report.messages)
        assert not ms.run_analysis(w).valid

    def test_branch_point_at_infinity_refused(self):
        w = branched_enneper()["enneper-branched-moebius"]
        assert w.branch_points == () and not any(is_infinity(p) for p in w.punctures)
        report = validate(w)
        assert report.null.ok and report.residues.ok and report.orders_ok and report.punctures_ok
        assert not report.ok and report.branch_points == ((INF, 2),)
        assert any("branch points inf (order 2)" in msg for msg in report.messages)

    def test_degree_from_common_factor(self, enneper):
        # Osserman: d = sum_j k_j - 2 - beta, with k_j = -mu_j the end orders
        # and beta the total branching order
        assert ms.gauss_map(enneper.data).degree == 2
        for name, w in branched_enneper().items():
            beta = sum(m for _p, m in validate(w).branch_points)
            ends = sum(-metric_order_at(w, p) for p in w.punctures)
            assert ms.gauss_map(w).degree == 2 == ends - 2 - beta, name

    def test_catalog_has_none(self, all_entries):
        for entry in all_entries:
            assert entry.data.branch_points == ()
            assert validate(entry.data).branch_points == ()

    def test_json_lists_them(self, catenoid):
        w = branched_enneper()["enneper-branched"]
        block = json.loads(ms.report_to_json(ms.run_analysis(w)))["validation"]
        (point,) = block["branch_points"]
        assert point["order"] == 2 and np.allclose(point["point"], [1, 0], atol=1e-12)
        assert not block["ok"]
        block = json.loads(ms.report_to_json(ms.run_analysis(catenoid.data)))["validation"]
        assert block["branch_points"] == [] and block["ok"]


class TestMetricOrder:
    def test_catenoid_at_zero(self, catenoid):
        assert metric_order_at(catenoid.data, 0j) == -2

    def test_counterexample_at_zero(self, counterexample):
        assert metric_order_at(counterexample.data, 0j) == -3

    def test_enneper_at_infinity(self, enneper):
        assert metric_order_at(enneper.data, INF) == -4

    def test_non_puncture_is_nonnegative(self, catenoid):
        assert metric_order_at(catenoid.data, 3.0 + 0j) >= 0

    def test_order_matches_laurent_with_jacobian_shift(self, enneper):
        # dominant component of the form at infinity: function order - 2
        orders = [laurent_expand(r, INF, 0).order - 2 for r in enneper.data.phi]
        assert metric_order_at(enneper.data, INF) == min(orders)


class TestImmersion:
    def test_catenoid_closed_form(self, catenoid):
        w = catenoid.data
        F0 = catenoid_antiderivative(w.basepoint)
        for z in (1.0 + 0j, 2.0 + 1.0j, -1.0 + 0.5j, 0.3 - 0.8j):
            got = immersion_eval(w, z)
            want = 2.0 * (catenoid_antiderivative(z) - F0).real
            assert np.max(np.abs(got - want)) < 1e-9

    def test_plane_datum(self, plane):
        got = immersion_eval(plane.data, 1 + 1j)
        assert np.allclose(got, [1, 1, 0], atol=1e-12)

    def test_basepoint_maps_to_origin(self, all_entries):
        for entry in all_entries:
            assert np.allclose(immersion_eval(entry.data, entry.data.basepoint), 0.0)

    def test_near_puncture_rejected(self, catenoid):
        with pytest.raises(EvaluationNearSingularityError):
            immersion_eval(catenoid.data, 1e-8 + 0j)

    def test_path_independence_randomized(self, jm2):
        # the closed form equals the path integral along random detours
        from conftest import path_integral

        w = jm2.data
        rng = np.random.default_rng(23)
        target = 1.5 + 0.5j
        closed = immersion_eval(w, target)
        done = 0
        while done < 10:
            via = [complex(rng.normal() * 2, rng.normal() * 2) for _ in range(2)]
            if any(abs(v - p) < 0.1 for v in via for p in w.finite_punctures):
                continue
            alt = path_integral(w, [w.basepoint, *via, target])
            assert np.max(np.abs(closed - alt)) < 1e-8
            done += 1

    @pytest.mark.parametrize("eps, real", [(1e-10, True), (4e-10, False)])
    def test_non_real_residue_refused(self, catenoid, eps, real):
        # catenoid with residue 1 + i eps at 0: the tolerance is 1e-10 (1 + 1),
        # the same for validation and for evaluation
        phi = catenoid.data.phi[:2] + (RationalMap([1 + 1j * eps], [0, 1]),)
        w = WeierstrassData(phi, punctures=catenoid.data.punctures, basepoint=0.5)
        assert check_residues_real(w).ok is real
        if real:
            assert np.all(np.isfinite(immersion_eval(w, 1 + 1j)))
        else:
            with pytest.raises(NonRealResidueError):
                immersion_eval(w, 1 + 1j)

    def test_vectorized_matches_pointwise(self, jm2):
        zs = np.array([[1.5 + 0.5j, -0.3 + 0.2j], [0.4 - 1.1j, 2.0 + 0j]])
        got = immersion_eval(jm2.data, zs)
        assert got.shape == (jm2.data.n, 2, 2)
        for idx in np.ndindex(zs.shape):
            one = immersion_eval(jm2.data, zs[idx])
            assert np.max(np.abs(got[(slice(None),) + idx] - one)) <= 1e-13 * np.max(np.abs(one))


class TestConformalFactor:
    def test_plane_is_unit(self, plane):
        assert conformal_factor(plane.data, 0.7 - 0.2j).lambda_sq == pytest.approx(1.0)

    def test_catenoid_at_one(self, catenoid):
        # phi(1) = (0, i, 1): 2(0 + 1 + 1) = 4 by hand
        assert conformal_factor(catenoid.data, 1.0 + 0j).lambda_sq == pytest.approx(4.0)

    def test_catenoid_divergence_rate(self, catenoid):
        # lambda^2 r^4 -> 2 |leading|^2 = 1 as r -> 0
        for r in (1e-2, 1e-3):
            lam2 = conformal_factor(catenoid.data, r + 0j).lambda_sq
            assert lam2 * r**4 == pytest.approx(1.0, rel=1e-3)

    def test_puncture_rejected(self, catenoid):
        with pytest.raises(SingularMetricError):
            conformal_factor(catenoid.data, 0j)

    def test_finite_difference_conformality(self, all_entries):
        rng = np.random.default_rng(31)
        for entry in all_entries:
            w = entry.data
            done = 0
            while done < 20:
                z = complex(rng.normal(), rng.normal()) * 1.2
                if any(abs(z - p) < 0.25 for p in w.finite_punctures) or abs(z) < 0.05:
                    continue
                h = 1e-6 * np.exp(2j * np.pi * rng.random())
                df = immersion_delta(w, z, z + h)
                lam2 = conformal_factor(w, z).lambda_sq
                assert abs(float(df @ df) / abs(h) ** 2 - lam2) < 1e-3 * lam2
                done += 1

    def test_harmonicity_stencil(self, catenoid, jm2):
        # 5-point Laplacian of each coordinate is O(h^2) (scaled by phi''')
        for w in (catenoid.data, jm2.data):
            h = 1e-2
            for z in (1.4 + 0.6j, -0.5 + 1.6j):
                f = lambda q: immersion_eval(w, q)
                lap = (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2
                third = sum(abs(r.derivative().derivative().derivative()(z)) for r in w.phi)
                assert np.max(np.abs(lap)) <= h**2 * (2.0 * third + 1.0)


class TestMobius:
    def test_degree_invariance_spot(self, catenoid, enneper):
        from conftest import well_conditioned_mobius
        from minsurf.weierstrass import mobius_precompose

        rng = np.random.default_rng(41)
        for entry in (catenoid, enneper):
            d0 = ms.gauss_map(entry.data).degree
            for _ in range(3):
                mob = well_conditioned_mobius(entry.data, rng)
                w2 = mobius_precompose(entry.data, mob)
                assert ms.gauss_map(w2).degree == d0
