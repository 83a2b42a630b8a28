"""Per-end analysis: frames, classification, asymptotic models, rotation index."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minsurf as ms
from minsurf import ends
from minsurf.ends import (
    EndType,
    LocalImmersion,
    analyze_end,
    asymptotic_model,
    limit_circle_deviation,
    rotation_index_numeric,
    verify_asymptotic,
)
from minsurf.errors import ModelUndefinedError, NumericInstabilityError
from minsurf.rational import INF, is_infinity
from minsurf.weierstrass import form_coefficient_window, form_residue_vector

R_LIST = (1e2, 1e3, 1e4)


class TestAnalyzeEnd:
    def test_catenoid_at_zero_exact(self, catenoid):
        e = analyze_end(catenoid.data, 0j)
        assert e.mu == -2 and e.k == 2
        assert np.allclose(e.a_minus2, [0.5, 0.5j, 0], atol=1e-13)
        assert np.allclose(e.a_minus1, [0, 0, 1], atol=1e-13)
        assert e.a == pytest.approx(0.5)
        assert e.b == pytest.approx(1.0)
        assert np.allclose(e.frame[0], [1, 0, 0], atol=1e-12)
        assert np.allclose(e.frame[1], [0, 1, 0], atol=1e-12)
        assert np.allclose(e.frame[2], [0, 0, 1], atol=1e-12)
        assert e.classification is EndType.CATENOID_TYPE
        assert e.rotation_index == 1 and e.embedded

    def test_counterexample_at_zero(self, counterexample):
        e = analyze_end(counterexample.data, 0j)
        assert e.mu == -3 and e.k == 3
        assert e.classification is EndType.HIGHER_ORDER
        assert e.rotation_index == 2 and not e.embedded

    def test_enneper_at_infinity(self, enneper):
        e = analyze_end(enneper.data, INF)
        assert e.mu == -4
        assert e.classification is EndType.HIGHER_ORDER
        assert e.rotation_index == 3

    def test_plane_planar(self, plane):
        e = analyze_end(plane.data, INF)
        assert e.classification is EndType.PLANAR
        assert e.b == 0.0 and e.embedded

    def test_frame_orthonormal_on_catalog(self, all_entries):
        for entry in all_entries:
            for p in entry.data.punctures:
                e = analyze_end(entry.data, p)
                G = np.array(e.frame) @ np.array(e.frame).T
                assert np.max(np.abs(G - np.eye(3))) < 1e-10, (entry.name, p)

    def test_bilinear_relations_on_catalog(self, all_entries):
        for entry in all_entries:
            for p in entry.data.punctures:
                e = analyze_end(entry.data, p)
                lead = e._lead
                scale = np.linalg.norm(lead) ** 2
                assert abs(np.sum(lead * lead)) <= 1e-9 * scale
                if e.mu == -2:
                    assert abs(np.sum(e.a_minus2 * e.a_minus1)) <= 1e-9 * scale

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
           st.floats(1e-3, 1e3), st.floats(0.0, 2e-9))
    def test_nullity_forces_equal_real_and_imaginary_norms(self, xs, size, defect):
        # |<a, a>| <= BILINEAR_TOL |a|^2 makes | |Re a| - |Im a| | <= ~2e-9 |Re a|
        # and Re a != 0, so analyze_end needs no gate of its own on either
        u, v, x, y = (np.array(xs[i:i + 3]) for i in range(0, 12, 3))
        assume(np.linalg.norm(u) > 1e-3)
        e1 = u / np.linalg.norm(u)
        v = v - (v @ e1) * e1
        assume(np.linalg.norm(v) > 1e-3)
        lead = size * (e1 + 1j * v / np.linalg.norm(v) + defect * (x + 1j * y))
        assume(abs(np.sum(lead * lead)) <= ends.BILINEAR_TOL * np.linalg.norm(lead) ** 2)
        a = ends._norm(lead.real)
        assert a > 0.0
        assert abs(ends._norm(lead.imag) - a) <= 2.1e-9 * a

    def test_residue_vectors_close_globally(self, all_entries):
        # sum of the residue vectors over all ends vanishes on the sphere
        for entry in all_entries:
            total = sum(form_residue_vector(entry.data, p) for p in entry.data.punctures)
            assert np.max(np.abs(total)) < 1e-10, entry.name


class TestAsymptoticModel:
    def test_catenoid_self_asymptotic(self, catenoid):
        e = analyze_end(catenoid.data, 0j)
        model = asymptotic_model(e)
        loc = e._local
        for r in (1e-2, 1e-3):
            t = r * np.exp(1j * np.linspace(0, 2 * np.pi, 32, endpoint=False))
            resid = np.max(np.linalg.norm(loc(t) - model(t), axis=0))
            assert resid < 2.0 * r  # |f - f0| = O(r)

    def test_plane_model_is_exact(self, plane):
        e = analyze_end(plane.data, INF)
        model = asymptotic_model(e)
        loc = e._local
        t = 1e-2 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        assert np.max(np.abs(loc(t) - model(t))) < 1e-10

    def test_higher_order_has_no_model(self, counterexample):
        e = analyze_end(counterexample.data, 0j)
        with pytest.raises(ModelUndefinedError):
            asymptotic_model(e)


class TestVerifyAsymptotic:
    RADII = (1e-1, 1e-2, 1e-3, 1e-4)

    def test_bounded_on_order_two_ends(self, all_entries):
        for entry in all_entries:
            for p in entry.data.punctures:
                e = analyze_end(entry.data, p)
                if e.mu != -2:
                    continue
                chk = verify_asymptotic(entry.data, e, self.RADII)
                assert chk.bounded, (entry.name, p, chk.ratios)

    def test_plane_ratios_vanish(self, plane):
        e = analyze_end(plane.data, INF)
        chk = verify_asymptotic(plane.data, e, self.RADII)
        assert max(chk.ratios) < 1e-9

    def test_forced_planar_model_diverges(self, counterexample):
        e = analyze_end(counterexample.data, 0j)
        bad = asymptotic_model(e, force_planar=True)
        chk = verify_asymptotic(counterexample.data, e, self.RADII, model=bad)
        assert not chk.bounded
        assert chk.ratios[-1] > 50.0 * chk.ratios[-2]

    def test_plane_model_off_by_a_millionth_is_unbounded(self):
        w = ms.plane().data
        e = analyze_end(w, INF)
        model = asymptotic_model(e)
        off = dataclasses.replace(model, a2=model.a2 * (1.0 + 1e-6))
        chk = verify_asymptotic(w, e, self.RADII, model=off)
        assert not chk.bounded

    def test_plane_model_off_by_an_ulp_is_unbounded(self):
        # the local series minus the model is one table, so no rounding floor
        # hides an a2 off by ~1e-15: the ratios grow like 1 / r^2
        w = ms.plane().data
        e = analyze_end(w, INF)
        model = asymptotic_model(e)
        off = dataclasses.replace(model, a2=model.a2 * (1.0 + 1e-15))
        chk = verify_asymptotic(w, e, self.RADII, model=off)
        assert chk.ratios[-1] > 1e3 * chk.ratios[-3] > 0.0
        assert not chk.bounded

    def test_ratios_match_mpmath(self, jm2):
        # the same series minus the model, the sup over the same 64 angles,
        # in 40 digits: the ratios agree to 1e-13 down to r = 1e-4
        w = jm2.data
        p = w.punctures[0]
        e = analyze_end(w, p)
        model = asymptotic_model(e)
        chk = verify_asymptotic(w, e, self.RADII)
        mu, C = form_coefficient_window(w, p, 40)
        const = e._local.constant
        thetas = 2.0 * np.pi * np.arange(64) / 64
        with mpmath.workdps(40):
            terms = [[mpmath.mpc(c) / (mu + k + 1) for k, c in enumerate(row) if mu + k != -1]
                     for row in C]
            log_c = [mpmath.mpc(c) for c in C[:, -1 - mu]]
            for r, ratio in zip(self.RADII, chk.ratios):
                sup = 0
                for theta in thetas:
                    t = mpmath.mpf(r) * mpmath.expj(mpmath.mpf(theta))
                    log_t = mpmath.log(t)
                    powers = [t ** (mu + 1 + k) for k in range(C.shape[1]) if mu + k != -1]
                    sq = 0
                    for j in range(w.n):
                        f = 2 * mpmath.re(mpmath.fsum(c * tp for c, tp in zip(terms[j], powers))
                                          + log_c[j] * log_t) + const[j]
                        f0 = (2 * mpmath.re(-mpmath.mpc(model.a2[j]) / t)
                              + 2 * model.log_vec[j] * mpmath.re(log_t) + model.constant[j])
                        sq += (f - f0) ** 2
                    sup = max(sup, mpmath.sqrt(sq))
                want = float(sup / r)
                assert abs(ratio - want) <= 1e-13 * want, (r, ratio, want)

    def test_radii_must_decrease(self, catenoid):
        e = analyze_end(catenoid.data, 0j)
        with pytest.raises(ValueError):
            verify_asymptotic(catenoid.data, e, [1e-3, 1e-2])


class TestRotationIndex:
    def test_catenoid(self, catenoid):
        assert rotation_index_numeric(catenoid.data, 0j, R_LIST) == 1

    def test_counterexample_double_cover(self, counterexample):
        assert rotation_index_numeric(counterexample.data, 0j, R_LIST) == 2

    def test_enneper_triple(self, enneper):
        assert rotation_index_numeric(enneper.data, INF, R_LIST) == 3

    def test_matches_analytic_on_catalog(self, all_entries):
        for entry in all_entries:
            for p in entry.data.punctures:
                e = analyze_end(entry.data, p)
                idx = rotation_index_numeric(entry.data, p, R_LIST, end=e)
                assert idx == e.rotation_index == abs(e.k - 1), (entry.name, p)


class TestLimitCircle:
    def test_deviation_decreases_catenoid(self, catenoid):
        devs = [limit_circle_deviation(catenoid.data, 0j, R) for R in R_LIST]
        assert devs[0] > devs[1] > devs[2]

    def test_plane_deviation_floor(self, plane):
        devs = [limit_circle_deviation(plane.data, INF, R) for R in R_LIST]
        assert max(devs) < 1e-9

    def test_counterexample_double_cover_model(self, counterexample):
        devs = [limit_circle_deviation(counterexample.data, 0j, R) for R in R_LIST]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2


class TestEqualityEquivalence:
    def test_equality_iff_model_ends_iff_embedded(self, all_entries):
        # the flagship cross-module equivalence, on every catalog surface
        for entry in all_entries:
            rep = ms.chern_osserman(entry.data)
            ends = [analyze_end(entry.data, p) for p in entry.data.punctures]
            model_ends = all(
                e.classification in (EndType.CATENOID_TYPE, EndType.PLANAR) for e in ends
            )
            embedded = all(e.embedded for e in ends)
            assert rep.co_equality == model_ends == embedded, entry.name

    def test_counterexample_embeddedness_not_sufficient(self, counterexample):
        # the end at infinity is embedded with mu = -2 while equality fails
        e_inf = analyze_end(counterexample.data, INF)
        assert e_inf.mu == -2 and e_inf.embedded
        rep = ms.chern_osserman(counterexample.data)
        assert not rep.co_equality


class TestLocalImmersion:
    def test_matches_path_integral(self, jm2):
        from conftest import path_integral

        w = jm2.data
        p = w.punctures[0]
        loc = LocalImmersion(w, p)
        r = 0.12
        for theta in (0.3, 2.1, 4.4):
            t = r * np.exp(1j * theta)
            z = p + t
            direct = path_integral(w, [w.basepoint, z])
            local = loc(np.array([t]))[:, 0]
            assert np.max(np.abs(direct - local)) < 1e-8

    def test_builds_where_the_anchor_path_passes_an_end(self, enneper):
        # an Enneper chart whose straight basepoint-to-anchor path runs close
        # past the order -4 end; the anchor is closed-form, so no path matters
        mob = (complex(0.04931968294274557, -1.1429566337463961),
               complex(-2.1666121593182464, 0.5995576979640092),
               complex(0.7238102522772645, -0.8764085171864693),
               complex(-1.0714959570851907, 0.8228349505059208))
        w = ms.mobius_precompose(enneper.data, mob)
        (p,) = w.punctures
        loc = LocalImmersion(w, p)
        assert loc.mu == -4
        t = 0.3 * loc.r_ref * np.exp(0.7j)
        direct = ms.immersion_eval(w, p + t)
        assert np.max(np.abs(loc(np.array([t]))[:, 0] - direct)) < 1e-8 * np.max(np.abs(direct))


class FloatPowerImmersion(LocalImmersion):
    """The local immersion as first written: every term t ** p taken as a
    complex power with a float exponent, all 40 of them on every call, and
    its own constant from the closed form at the reference radius.  Only the
    chart radii (``r_ref``, ``_cap``) come from ``LocalImmersion``."""

    def __init__(self, w, p):
        super().__init__(w, p)
        mu, C = form_coefficient_window(w, p, 40)
        exps = mu + np.arange(C.shape[1])
        keep = exps != -1
        self._ref_powers = (exps[keep] + 1).astype(float)
        self._ref_anti = C[:, keep] / (exps[keep] + 1)
        self._ref_log = C[:, ~keep].sum(axis=1)
        z_ref = 1.0 / self.r_ref if is_infinity(p) else p + self.r_ref
        self.constant = (ms.immersion_eval(w, z_ref)
                         - self._series(np.array([self.r_ref + 0j]))[:, 0])

    def _series(self, t):
        tp = t[None, :] ** self._ref_powers[:, None]
        return 2.0 * (self._ref_anti @ tp + np.multiply.outer(self._ref_log, np.log(t))).real

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        return self._series(t) + self.constant[:, None]

    def radial_jet(self, thetas, r_max):
        # the sphere cuts' evaluator: d/dlog r of t^p is p t^p, of log t is 1
        phase = np.exp(1j * thetas)

        def jet(x):
            t = np.exp(x) * phase
            tp = t[None, :] ** self._ref_powers[:, None]
            df = 2.0 * ((self._ref_anti * self._ref_powers) @ tp + self._ref_log[:, None]).real
            return self(t), df

        return jet, self._ref_powers.size


class TestIntegerPowerEvaluation:
    """The polar evaluation with its tail cut matches the float-power
    formula on every catalog end, at every scale it is used."""

    @staticmethod
    def _radii(loc):
        near_cap = 0.99 * loc._cap if math.isfinite(loc._cap) else 1.0
        return [loc.r_ref, 1e-2, 1e-4, 1e-6, near_cap]

    def test_matches_float_powers(self, all_entries):
        thetas = 2.0 * np.pi * np.arange(64) / 64
        orders = set()
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                loc, ref = LocalImmersion(w, p), FloatPowerImmersion(w, p)
                orders.add(loc.mu)
                for r in self._radii(loc):
                    t = r * np.exp(1j * thetas)
                    want = ref(t)
                    err = np.max(np.linalg.norm(loc(t) - want, axis=0))
                    assert err <= 1e-14 * np.max(np.linalg.norm(want, axis=0)), (entry.name, p, r)
        assert orders == {-2, -3, -4}

    def test_tail_is_cut_at_sphere_cut_radii(self, jm2):
        # at |t| = 1e-4 all but a few of the 41 terms fall below 1e-18 of the
        # leading one; near the cap every term is kept
        loc = LocalImmersion(jm2.data, jm2.data.punctures[0])
        assert loc._anti.shape[1] == 41
        assert loc._kept_terms(1e-4) < 8
        assert loc._kept_terms(0.99 * loc._cap) == 41

    def test_same_verdicts_as_float_powers(self, all_entries, monkeypatch):
        radii = [1e-1, 1e-2, 1e-3]
        thetas = 2.0 * np.pi * np.arange(64) / 64
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                got_rot = rotation_index_numeric(w, p, R_LIST, end=e)
                ref = FloatPowerImmersion(w, p)
                with monkeypatch.context() as m:
                    m.setitem(w._laurent.immersions, p, ref)
                    assert rotation_index_numeric(w, p, R_LIST, end=e) == got_rot
                if e.mu != -2:
                    continue
                # the ratios against f - f0 from two float-power values, up to
                # the rounding of that difference (a few eps |f|)
                model = asymptotic_model(e)
                got = verify_asymptotic(w, e, radii)
                for r, ratio in zip(radii, got.ratios):
                    t = r * np.exp(1j * thetas)
                    f = ref(t)
                    f0 = (2.0 * (-np.multiply.outer(model.a2, 1.0 / t)).real
                          + np.multiply.outer(2.0 * model.log_vec, np.log(np.abs(t)))
                          + model.constant[:, None])
                    want = np.max(np.linalg.norm(f - f0, axis=0)) / r
                    rounding = 1e-14 * np.max(np.linalg.norm(f, axis=0)) / r
                    assert abs(ratio - want) <= 1e-12 * want + rounding, (entry.name, p, r)
        plane = next(e for e in all_entries if e.name == "plane").data
        check = verify_asymptotic(plane, analyze_end(plane, INF), [1e-1, 1e-2, 1e-3, 1e-4])
        assert check.ratios == (0.0, 0.0, 0.0, 0.0) and check.bounded


THETAS = 2.0 * np.pi * np.arange(720) / 720


def _sphere_cut_radii(loc, e):
    """The solved radii at R = 1e2, 1e3, 1e4, and a circle near the cap."""
    radii = [ends._solve_sphere_radii(loc, e, THETAS, R)[0] for R in R_LIST]
    near_cap = 0.99 * loc._cap if math.isfinite(loc._cap) else 1.0
    return radii + [np.full(THETAS.size, near_cap)]


class TestPolarEvaluator:
    """``LocalImmersion.radial_jet``, the sphere cuts' evaluator, against the
    float-power reference and a central difference of it."""

    def test_value_and_radial_derivative(self, all_entries):
        orders = set()
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e, loc = analyze_end(w, p), LocalImmersion(w, p)
                ref = FloatPowerImmersion(w, p)
                orders.add(loc.mu)
                for r in _sphere_cut_radii(loc, e):
                    x = np.log(r)
                    f, df = loc.radial_jet(THETAS, float(np.max(r)))[0](x)
                    want = ref(r * np.exp(1j * THETAS))
                    scale = np.max(np.linalg.norm(want, axis=0))
                    assert np.max(np.linalg.norm(f - want, axis=0)) <= 1e-14 * scale, \
                        (entry.name, p, r[0])
                    h = 1e-5
                    diff = (ref(np.exp(x + h + 1j * THETAS))
                            - ref(np.exp(x - h + 1j * THETAS))) / (2.0 * h)
                    err = np.max(np.linalg.norm(df - diff, axis=0))
                    assert err <= 1e-8 * np.max(np.linalg.norm(diff, axis=0)), \
                        (entry.name, p, r[0])
        assert orders == {-2, -3, -4}

    def test_short_table_is_built_again(self, jm2, monkeypatch):
        # a first table cut for radii 100x too small holds too few terms; the
        # solve builds it again and converges to the same cut
        w = jm2.data
        p = w.punctures[0]
        e, loc = analyze_end(w, p), LocalImmersion(w, p)
        want_r, want_f = ends._solve_sphere_radii(loc, e, THETAS, 1e2)
        real = LocalImmersion.radial_jet
        sizes = []

        def short_first(self, thetas, r_max):
            jet, K = real(self, thetas, r_max if sizes else 1e-2 * r_max)
            sizes.append(K)
            return jet, K

        monkeypatch.setattr(LocalImmersion, "radial_jet", short_first)
        r, f = ends._solve_sphere_radii(loc, e, THETAS, 1e2)
        assert len(sizes) == 2 and sizes[0] < sizes[1]
        assert np.max(np.abs(r - want_r) / want_r) < 1e-13
        assert np.max(np.abs(f - want_f)) < 1e-12 * 1e2


class WrongSlopeImmersion(LocalImmersion):
    """The local immersion with the sign of its radial derivative flipped, so
    that no Newton step is taken; ``evaluations`` counts the jet calls."""

    def __init__(self, w, p):
        super().__init__(w, p)
        self.evaluations = 0

    def radial_jet(self, thetas, r_max):
        jet, K = super().radial_jet(thetas, r_max)

        def flipped(x):
            self.evaluations += 1
            f, df = jet(x)
            return f, -df

        return flipped, K


class TestSolverFallback:
    def test_wrong_slope_falls_back_to_asymptotic_step(self, all_entries):
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                loc, stub = LocalImmersion(w, p), WrongSlopeImmersion(w, p)
                for R in R_LIST:
                    want_r, _f = ends._solve_sphere_radii(loc, e, THETAS, R)
                    r, f = ends._solve_sphere_radii(stub, e, THETAS, R)
                    assert np.max(np.abs(np.linalg.norm(f, axis=0) / R - 1.0)) < 1e-12
                    assert np.max(np.abs(r - want_r) / want_r) < 1e-12, (entry.name, p, R)

    def test_stall_raises(self, catenoid):
        # a cut that |f| never reaches: the radius climbs to the cap and stays
        class Unreachable(WrongSlopeImmersion):
            def radial_jet(self, thetas, r_max):
                jet, K = super().radial_jet(thetas, r_max)

                def constant(x):
                    f, _df = jet(x)
                    return np.full_like(f, 2e3), np.zeros_like(f)

                return constant, K

        w = catenoid.data
        stub = Unreachable(w, 0j)
        stub._cap = 1.0
        with pytest.raises(NumericInstabilityError, match="stalled"):
            ends._solve_sphere_radii(stub, analyze_end(w, 0j), THETAS, 1e3)
        assert stub.evaluations == 80


class TestScaleFreeEnds:
    """``analyze_end`` takes its norms after an exact power-of-two rescaling,
    so data far below squaring's underflow analyse as the unscaled ones."""

    @pytest.mark.parametrize("name", ["catenoid", "enneper", "holomorphic_counterexample",
                                      "plane"])
    def test_tiny_data_analyse_as_unscaled(self, name):
        entry = getattr(ms, name)()
        w = entry.data
        want = ms.run_analysis(w)
        scaled = ms.WeierstrassData([ms.RationalMap(r.num * 1e-300, r.den) for r in w.phi],
                                    punctures=w.punctures)
        got = ms.run_analysis(scaled)
        assert got.valid and got.curvature.d == want.curvature.d == entry.expected.d
        assert [e.mu for e in got.ends] == [e.mu for e in want.ends]
        assert [e.classification for e in got.ends] == [e.classification for e in want.ends]
        for g, u in zip(got.ends, want.ends):
            assert g.a == pytest.approx(1e-300 * u.a, rel=1e-14)
            assert g.b == pytest.approx(1e-300 * u.b, rel=1e-12, abs=1e-310)
            assert np.allclose(g.frame, u.frame, atol=1e-12)

    def test_norms_are_bitwise_where_squaring_is_safe(self):
        rng = np.random.default_rng(3)
        for v in (rng.standard_normal(5), rng.standard_normal(7) * 1e-100, np.zeros(3)):
            assert ends._norm(v) == float(np.linalg.norm(v))
        assert ends._norm(np.array([3e-170, 4e-170])) == pytest.approx(5e-170, rel=1e-15)
