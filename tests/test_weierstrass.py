"""Weierstrass datum validation, immersion evaluation, and metric checks."""

import json

import numpy as np
import pytest

import minsurf as ms
from conftest import branched_enneper, laurent_coefficient, metric_sq
from minsurf.errors import EvaluationNearSingularityError, NonRealResidueError
from minsurf.rational import INF, RationalMap, is_infinity, laurent_expand
from minsurf.weierstrass import (
    WeierstrassData,
    check_residues_real,
    detect_punctures,
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
        # its numerator is rooted by the base datum's RootTable and the new
        # denominator by the chart's, so each distinct polynomial once: the
        # 9 numerators (for the first chart only) and 2 denominators, which
        # the analysis reuses
        base = ms.generalized_jorge_meeks(4).data
        assert all(r.den_roots for r in base.phi)
        calls = self._count_roots(monkeypatch)
        w = ms.mobius_precompose(base, (1, -0.3, 0.2, 1))
        assert len(calls) == len(w.phi) + 2 == 11
        assert sum(any(p is r.num for r in base.phi) for p in calls) == len(w.phi)
        assert sum(any(p is r.den for r in w.phi) for p in calls) == 2
        assert len({r.den.coeffs.tobytes() for r in w.phi}) == 2
        ms.mobius_precompose(base, (1, 0.3, -0.2, 1))
        assert len(calls) == 13
        assert ms.run_analysis(w).valid
        assert len(calls) <= 14

    def _check_roots_calls(self, monkeypatch, name):
        # counted from construction on: each distinct polynomial once (the
        # components of one build share a RootTable), the branch points'
        # cleared numerator included, every component denominator among them,
        # and besides those at most that one numerator
        calls = self._count_roots(monkeypatch)
        w = self.DATA[name]()
        built = len(calls)
        assert ms.run_analysis(w).valid
        keys = [p.coeffs.tobytes() for p in calls]
        assert len(set(keys)) == len(keys)
        dens = {r.den.coeffs.tobytes() for r in w.phi if r.den.degree() >= 1}
        nums = {q.coeffs.tobytes() for q in w.cleared[1]}
        later = set(keys[built:]) - dens
        assert dens <= set(keys) and later <= nums and len(later) <= 1
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
        # 9 components, 5 ends: the table, validation, curvature, the
        # end analysis, the partial fractions and the local immersions share
        # one expansion per (component, centre)
        assert len(calls) == 45
        assert len({(id(r), c) for r, c in calls}) == 45
        assert analysis_round() == [1] * 5
        assert len(calls) == 45

    def test_building_a_datum_expands_no_series(self, monkeypatch):
        # the table reads the order of each component at each pole by
        # laurent_expand's own rule, without expanding a series: on the 280
        # conftest-rule charts building a datum and its punctures expands
        # none, and each order and puncture is the one the series give
        from conftest import well_conditioned_mobius
        from minsurf import rational

        expand = rational.laurent_expand
        calls = self._count_expansions(monkeypatch)
        rng = np.random.default_rng(2001)
        charts = 0
        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            for _ in range(28):
                mob = well_conditioned_mobius(entry.data, rng)
                calls.clear()
                w = ms.mobius_precompose(entry.data, mob)
                punctures = w.punctures
                assert calls == [], entry.name
                finite = []
                for z, members in w._laurent.poles.items():
                    orders = []
                    for j, (root, _m) in members.items():
                        series = expand(w.phi[j], root, w._laurent.depth)
                        c, zero, pole = rational._finite_orders(w.phi[j], root)
                        assert (c, zero - pole) == (series.center, series.order), (entry.name, z, j)
                        orders.append(series.order)
                    if min(orders) < 0:
                        finite.append(z)
                assert punctures[:len(finite)] == tuple(finite), entry.name
                assert all(is_infinity(p) for p in punctures[len(finite):]), entry.name
                charts += 1
        assert charts == 280

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

    def test_windows_are_bitwise_prefixes(self):
        # each point has one window, at the Laurent table's depth; its
        # prefixes are bitwise the direct expansions at their own depths,
        # and a second read returns the same read-only array
        for entry in (ms.holomorphic_counterexample(), ms.generalized_jorge_meeks(3)):
            w = entry.data
            for p in w.punctures:
                win = w._laurent.window(p)
                mu, C = win.mu, win.C
                assert C.shape == (w.n, w._laurent.depth + 1)
                for depth in (0, 2, 8, 40):
                    ref_mu, ref = self._reference_window(w, p, depth)
                    assert mu == ref_mu
                    assert C[:, :depth + 1].tobytes() == ref.tobytes()
                again = w._laurent.window(p)
                assert again is win and again.C is C
                assert not C.flags.writeable

    def test_orders_past_the_depth_apart_are_reported(self):
        # (z^25, z^-25, 1): at 0 the first form's order lies 50 above mu,
        # past the table's depth 40, so its row of the window is zero there;
        # validation and the analysis report the datum as non-null
        w = WeierstrassData([RationalMap([0.0] * 25 + [1.0]),
                             RationalMap([1.0], [0.0] * 25 + [1.0]), RationalMap([1.0])])
        assert w._laurent.depth == 40
        win = w._laurent.window(0j)
        assert win.mu == -25 and not win.C[0].any()
        null = "null identity violated: defect 1.000e+00"
        assert validate(w).messages[0] == null
        rep = ms.run_analysis(w)
        assert not rep.valid and rep.validation.messages[0] == null


class TestResiduesReal:
    def test_catenoid_residue_vector(self, catenoid):
        win = catenoid.data._laurent.window(0j)
        res = win.C[:, -1 - win.mu]
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
        # and beta the total branching order, at z = 1 and, in the pulled-back
        # chart, at infinity; chern_osserman checks the same identity
        assert ms.gauss_map(enneper.data) == 2
        for name, w in branched_enneper().items():
            beta = sum(m for _p, m in validate(w).branch_points)
            ends = sum(-metric_order_at(w, p) for p in w.punctures)
            assert ms.gauss_map(w) == 2 == ends - 2 - beta, name
            assert ms.chern_osserman(w).d == 2, name

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


LEAD = "leading Laurent vector not null: |<a_lead, a_lead>| = "


def close_catenoid(p, delta):
    """The catenoid with its ends at p and p + delta."""
    return ms.mobius_precompose(ms.catenoid().data, (1, -p, 1, -(p + delta)))


def lead_defects(messages):
    """The leading-nullity defects that validation messages state."""
    return [float(m.split(LEAD)[1].split()[0]) for m in messages if LEAD in m]


class TestClosePoles:
    """The catenoid with its ends delta apart at 11 positions from 0.2 to 0.5:
    resolved down to 3e-5, with residue refusals left to the rounding of the
    expansion, and refused by validation once its double poles merge."""

    POSITIONS = np.linspace(0.2, 0.5, 11)

    def test_ends_1e3_apart(self):
        outcomes = [ms.run_analysis(close_catenoid(p, 1e-3)) for p in self.POSITIONS]
        analysed = [rep for rep in outcomes if rep.valid]
        assert len(analysed) == 6
        assert all(rep.curvature.d == 2 and rep.curvature.m == 2 for rep in analysed)
        refused = [rep.validation.messages for rep in outcomes if not rep.valid]
        assert all(len(msgs) == 1 and msgs[0].startswith("non-real residue") for msgs in refused)

    @pytest.mark.parametrize("delta", [3e-4, 1e-4, 3e-5])
    def test_resolved_ends_keep_their_denominators(self, delta):
        # the numerator zeros delta / sqrt(2) from both double poles are no
        # common factor; the null identity holds and no branch point appears
        for p in self.POSITIONS:
            w = close_catenoid(p, delta)
            assert [r.den.degree() for r in w.phi] == [4, 4, 2], p
            rep = ms.run_analysis(w)
            if rep.valid:
                assert (rep.curvature.d, rep.curvature.m) == (2, 2), p
                continue
            msgs = rep.validation.messages
            assert rep.validation.null.ok and not rep.validation.branch_points, p
            assert msgs[0].startswith("non-real residue"), (p, msgs)
            # any further message is a leading vector that misses nullity by
            # rounding, (root error) / delta, far below a merged pole's 1
            assert len(lead_defects(msgs)) == len(msgs) - 1, (p, msgs)
            assert all(d < 1e-6 for d in lead_defects(msgs)), (p, msgs)

    @pytest.mark.parametrize("delta", [1e-5, 5e-6])
    def test_merged_poles_are_refused(self, delta):
        # below the resolvable separation the double poles come back as one,
        # and the chart looks one-ended; validation names that end, whose
        # leading vector misses nullity by order 1, before analyze_end's own
        # nullity gate would raise InternalConsistencyError
        for p in self.POSITIONS:
            rep = ms.run_analysis(close_catenoid(p, delta))
            assert not rep.valid and len(rep.validation.end_orders) == 1, p
            assert lead_defects(rep.validation.messages) == [pytest.approx(1.0)], p


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

    def test_a_puncture_listed_twice_is_integrated_once(self, jm2):
        # two listings of one pole coincide, and the closed form integrates
        # the pole once: bitwise the immersion of the single listing
        w = jm2.data
        twice = WeierstrassData(w.phi, punctures=w.punctures + (w.punctures[0] + 1e-9,),
                                basepoint=w.basepoint)
        assert any(msg.endswith("coincide") for msg in validate(twice).messages)
        z = np.array([0.3 + 0.7j, -1.1 + 0.2j, 2.5 - 1.5j])
        assert immersion_eval(twice, z).tobytes() == immersion_eval(w, z).tobytes()

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

    def test_residue_at_infinity_refused_alike(self):
        # three simple poles of residue 1 + 2.5e-10 i: the finite residues
        # pass against 1e-10 (2 + 1), but the residue at infinity, -3 times
        # theirs, does not (7.5e-10 against 1e-10 (2 + 3)); validation and
        # evaluation read the one gate, so both refuse the datum
        c = 1 + 2.5e-10j
        num = (np.convolve([-0.5j, 1], [0.5, 1]) + np.convolve([-0.5j, 1], [-0.5, 1])
               + np.convolve([0.5, 1], [-0.5, 1])) * c
        third = RationalMap(num, np.convolve(np.convolve([-0.5, 1], [0.5, 1]), [-0.5j, 1]))
        w = WeierstrassData([RationalMap([0.5]), RationalMap([-0.5j]), third])
        assert len(w.punctures) == 4 and is_infinity(w.punctures[-1]) and w.unit == 2.0
        check = check_residues_real(w)
        assert not check.ok and check.worst_imag == pytest.approx(7.5e-10, rel=1e-6)
        assert any(m.startswith("non-real residue") for m in validate(w).messages)
        with pytest.raises(NonRealResidueError, match="imaginary part 7.500e-10"):
            immersion_eval(w, 2 + 1j)

    def test_residue_at_an_unlisted_pole_refused_alike(self, catenoid):
        # phi_3 = 1/z + i/(z - 1) - i/(z + 1) with only 0 and infinity
        # listed: their residues are real, but the closed form integrates
        # the poles at +-1 too, so the gate reads them, and validation and
        # evaluation both refuse the datum for its residues +-i
        phi = catenoid.data.phi[:2] + (RationalMap([-1, 2j, 1], [0, -1, 0, 1]),)
        w = WeierstrassData(phi, punctures=(0j, INF), basepoint=0.5j)
        check = check_residues_real(w)
        assert not check.ok and check.worst_imag == pytest.approx(1.0, rel=1e-12)
        assert "non-real residue: worst imaginary part 1.000e+00" in validate(w).messages
        with pytest.raises(NonRealResidueError, match="imaginary part 1.000e"):
            immersion_eval(w, 2 + 1j)

    def test_vectorized_matches_pointwise(self, jm2):
        zs = np.array([[1.5 + 0.5j, -0.3 + 0.2j], [0.4 - 1.1j, 2.0 + 0j]])
        got = immersion_eval(jm2.data, zs)
        assert got.shape == (jm2.data.n, 2, 2)
        for idx in np.ndindex(zs.shape):
            one = immersion_eval(jm2.data, zs[idx])
            assert np.max(np.abs(got[(slice(None),) + idx] - one)) <= 1e-13 * np.max(np.abs(one))


class TestConformalFactor:
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
                lam2 = metric_sq(w, z)
                assert abs(float(df @ df) / abs(h) ** 2 - lam2) < 1e-3 * lam2
                done += 1

    def test_harmonicity_stencil(self, catenoid, jm2):
        # 5-point Laplacian of each coordinate is O(h^2), scaled by |phi'''|,
        # which is 6 |c_3| of the Taylor expansion at z
        for w in (catenoid.data, jm2.data):
            h = 1e-2
            for z in (1.4 + 0.6j, -0.5 + 1.6j):
                f = lambda q: immersion_eval(w, q)
                lap = (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2
                third = sum(6.0 * abs(laurent_coefficient(r, z, 3))
                            for r in w.phi if not r.is_zero)
                assert np.max(np.abs(lap)) <= h**2 * (2.0 * third + 1.0)


class TestMobius:
    def test_degree_invariance_spot(self, catenoid, enneper):
        from conftest import well_conditioned_mobius
        from minsurf.weierstrass import mobius_precompose

        rng = np.random.default_rng(41)
        for entry in (catenoid, enneper):
            d0 = ms.gauss_map(entry.data)
            for _ in range(3):
                mob = well_conditioned_mobius(entry.data, rng)
                w2 = mobius_precompose(entry.data, mob)
                assert ms.gauss_map(w2) == d0
