"""Per-end analysis: frames, classification, local immersion, rotation index."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
import minsurf as ms
from conftest import CUT_ANGLES, polar, sampled_deviation
from minsurf import ends
from minsurf.ends import (
    EndType,
    LocalImmersion,
    analyze_end,
    limit_circle_deviation,
    rotation_index_numeric,
)
from minsurf.errors import InternalConsistencyError, NumericInstabilityError
from minsurf.rational import INF
from minsurf.weierstrass import TERMS, validate

R_LIST = (1e2, 1e3, 1e4)


def generalized_enneper(m):
    """phi = ((1 - z^2m) / 2, i (1 + z^2m) / 2, z^m): one end, at infinity,
    of order k = 2m + 2, whose cut winds 2m + 1 times."""
    one = ms.ComplexPoly([1])
    return ms.WeierstrassData([
        ms.RationalMap(ms.ComplexPoly([0.5] + [0] * (2 * m - 1) + [-0.5]), one),
        ms.RationalMap(ms.ComplexPoly([0.5j] + [0] * (2 * m - 1) + [0.5j]), one),
        ms.RationalMap(ms.ComplexPoly([0] * m + [1]), one),
    ])


def holomorphic_end(a):
    """phi = (z^a, i z^a, 1, i) / 2 in R^4: one end, at infinity, of order
    k = a + 2, whose series there has the terms t^-k and t^-2."""
    return ms.WeierstrassData([ms.RationalMap(ms.ComplexPoly([0] * a + [c])) for c in (0.5, 0.5j)]
                              + [ms.RationalMap(ms.ComplexPoly([c])) for c in (0.5, 0.5j)])


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
                lead = entry.data._laurent.window(e.pole).C[:, 0]
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
        a = float(np.linalg.norm(lead.real))
        assert a > 0.0
        assert abs(float(np.linalg.norm(lead.imag)) - a) <= 2.1e-9 * a

    @pytest.mark.parametrize("eps,refused", [(2e-9, False), (3e-9, True)])
    def test_cross_relation_gate_edge(self, eps, refused):
        # the catenoid with eps/z added to phi_1: at 0, a_-2 = (1, i, 0)/2 and
        # a_-1 = (eps, 0, 1), so <a_-2, a_-1> = eps/2, which is 0.414 eps of
        # |a_-2| (|a_-2| + |a_-1|): 2e-9 passes and 3e-9 is refused, while
        # relative to |a_-2|^2 alone (eps) both would be refused
        phi = ms.catenoid().data.phi
        w = ms.WeierstrassData([ms.RationalMap([1.0, 2.0 * eps, -1.0], [0.0, 0.0, 2.0]),
                                *phi[1:]])
        if refused:
            with pytest.raises(InternalConsistencyError, match="Laurent relations violated"):
                analyze_end(w, 0j)
        else:
            assert analyze_end(w, 0j).classification is EndType.CATENOID_TYPE

    def test_nullity_gate_reads_validations_defect(self):
        # the catenoid with phi_1 off by one part in 1e7: validation rejects
        # it by the leading-nullity defect, and analyze_end, called on the
        # unvalidated datum, refuses it by the same defect
        phi = ms.catenoid().data.phi
        w = ms.WeierstrassData([conftest.scaled(phi[0], 1 + 1e-7), *phi[1:]])
        message = next(m for m in validate(w).messages if m.startswith("end 0j: leading"))
        defect = message.split(" = ")[1].split()[0]
        with pytest.raises(InternalConsistencyError,
                           match=re.escape(f"= {defect} |a_lead|^2 at end 0j: nullity violated")):
            analyze_end(w, 0j)

    @pytest.mark.parametrize("gap", [3e-3, 1e-3])
    def test_close_catenoid_ends_pass_the_bilinear_checks(self, catenoid, gap):
        # at two double poles delta apart |a_-1| ~ |a_-2| / delta; gated by
        # |a_-2|^2 alone these charts were refused at 24 (3e-3) and 30 (1e-3)
        # of the 31 positions
        for p in np.linspace(0.2, 0.5, 31):
            w = ms.mobius_precompose(catenoid.data, (1, -p, 1, -(p + gap)))
            assert len(w.punctures) == 2, p
            for q in w.punctures:
                assert analyze_end(w, q).classification is EndType.CATENOID_TYPE, p
            if gap == 3e-3:
                assert ms.run_analysis(w).curvature.d == 2, p

    def test_residue_vectors_close_globally(self, all_entries):
        # sum of the residue vectors over all ends vanishes on the sphere
        for entry in all_entries:
            windows = [entry.data._laurent.window(p) for p in entry.data.end_poles]
            total = sum(win.C[:, -1 - win.mu] for win in windows)
            assert np.max(np.abs(total)) < 1e-10, entry.name


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

    def test_certified_from_R0_on_and_refused_below(self, all_entries):
        # one regime for both witnesses: R = R0 is answered, |k - 1| and a
        # finite deviation, and the float just below it is refused, the
        # error naming that radius, R0 and the end
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                R0 = ends.certify_rotation_index(w, p, end=e).R0
                assert rotation_index_numeric(w, p, (R0,), end=e) == abs(e.k - 1)
                assert math.isfinite(limit_circle_deviation(w, p, [R0], end=e)[0]), (entry.name, p)
                below = float(np.nextafter(R0, 0.0))
                refused = re.escape(f" at R = {below:g}: below the end's certified radius")
                with pytest.raises(NumericInstabilityError, match="^rotation index" + refused) as err:
                    rotation_index_numeric(w, p, (R0, below) + R_LIST, end=e)
                assert err.value.diagnostics == {"R": [below], "R0": R0, "end": repr(p)}
                with pytest.raises(NumericInstabilityError,
                                   match="^limit-circle deviation" + refused) as err:
                    limit_circle_deviation(w, p, [below], end=e)
                assert err.value.diagnostics == {"R": [below], "R0": R0, "end": repr(p)}

    def test_an_end_without_a_certificate_is_refused(self):
        # the generalized Enneper end of k = 42 > TERMS: its table does not
        # reach the log term, so it has no certificate, and every radius is
        # refused with R0 None, by both witnesses, each naming itself
        w = generalized_enneper(20)
        (p,) = w.punctures
        e = analyze_end(w, p)
        assert e.k == 42 and ends.certify_rotation_index(w, p, end=e) is None
        with pytest.raises(NumericInstabilityError, match="^rotation index at R = 100, 1000, "
                           "10000: the end has no rotation certificate$") as err:
            rotation_index_numeric(w, p, R_LIST, end=e)
        assert err.value.diagnostics == {"R": list(R_LIST), "R0": None, "end": repr(p)}
        with pytest.raises(NumericInstabilityError, match="^limit-circle deviation at R = 100: "
                           "the end has no rotation certificate$") as err:
            limit_circle_deviation(w, p, [1e2], end=e)
        assert err.value.diagnostics == {"R": [1e2], "R0": None, "end": repr(p)}

    def test_an_end_of_order_TERMS_is_certified(self):
        # (z^39, i z^39, 1, i) / 2 has one end, at infinity, of order
        # k = 41 = TERMS: its table reaches the log term (zero here), so the
        # end is certified, index 40 on 0 < |t| <= 2^-0.25 from R0 = 25.66 on
        w = holomorphic_end(39)
        e = analyze_end(w, INF)
        cert = ends.certify_rotation_index(w, INF, end=e)
        assert e.k == 41 and cert.index == 40 and cert.r0 == 2.0**-0.25
        assert cert.R0 == pytest.approx(25.655, abs=1e-3)
        assert rotation_index_numeric(w, INF, (cert.R0,) + R_LIST, end=e) == 40
        assert math.isfinite(limit_circle_deviation(w, INF, [cert.R0], end=e)[0])

    def test_an_end_of_order_past_TERMS_with_a_later_term_is_refused(self):
        # at k = 43 the 1/2 and i/2 components leave a nonzero t^-2 term past
        # the window's last one, so the local immersion refuses the end
        w = holomorphic_end(41)
        assert analyze_end(w, INF).k == 43
        with pytest.raises(NumericInstabilityError,
                           match="order k = 43 has a nonzero term past the TERMS = 41") as err:
            LocalImmersion(w, INF)
        assert err.value.diagnostics == {"end": "inf", "k": 43, "TERMS": 41}

    @pytest.mark.filterwarnings("error")
    def test_order_four_ends_with_no_other_puncture_are_refused_below_R0(self, enneper):
        # the two conftest-rule Moebius charts of Enneper in the chart sweep
        # (UNSOLVED_CUTS) whose one end is finite, of order -4, with no other
        # puncture: R = 1e2 is below the end's certified radius, so both
        # witnesses refuse it, naming R0 (Newton on the deviation's cut ran
        # off to a non-finite cut there)
        runaway = [(mob, end) for name, mob, end in UNSOLVED_CUTS if name == "enneper"]
        assert len(runaway) == 2
        for mob, end in runaway:
            w = ms.mobius_precompose(enneper.data, mob)
            (p,) = w.punctures
            assert abs(p - end) < 1e-12
            e = analyze_end(w, p)
            assert e.k == 4
            _assert_refused_below_R0(w, p, e)

    @pytest.mark.filterwarnings("error")
    def test_order_three_ends_are_refused_below_R0(self, counterexample):
        # the four conftest-rule Moebius charts of the counterexample in the
        # chart sweep whose finite order -3 end has R0 above 1e2: both
        # witnesses refuse R = 1e2, naming R0 (Newton on the deviation's cut
        # stalled there)
        stalled = [(mob, end) for name, mob, end in UNSOLVED_CUTS if name != "enneper"]
        assert len(stalled) == 4
        for mob, end in stalled:
            w = ms.mobius_precompose(counterexample.data, mob)
            (p,) = [q for q in w.punctures if abs(q - end) < 1e-12]
            e = analyze_end(w, p)
            assert e.k == 3
            _assert_refused_below_R0(w, p, e)

    @pytest.mark.parametrize("m", [4, 8])
    def test_generalized_enneper_takes_its_angles_from_k(self, m):
        # the end of order k = 2m + 2 winds 2m + 1 times, certified below
        # R = 1e2; the sampled cut takes 16 angles per turn of that circle,
        # 16 (k - 1) in all, falls toward it, and stays within the bound
        w = generalized_enneper(m)
        (p,) = w.punctures
        e = analyze_end(w, p)
        assert e.k == 2 * m + 2
        assert ends.certify_rotation_index(w, p, end=e).R0 < 1e2
        assert rotation_index_numeric(w, p, R_LIST, end=e) == 2 * m + 1
        devs = [sampled_deviation(w, p, R, end=e) for R in R_LIST]
        assert devs[0] > devs[1] > devs[2], devs
        assert devs[2] < 0.03, devs
        for R, dev, bound in zip(R_LIST, devs, limit_circle_deviation(w, p, R_LIST, end=e)):
            assert dev <= bound + 1e-15, (R, dev)

    @pytest.mark.filterwarnings("error")
    def test_chart_sweep(self):
        # every end of the conftest-rule chart sweep (UNSOLVED_CUTS) has a
        # rotation certificate of index |k - 1| and a deviation bound at its
        # own R0; at 10 R0 and 1e4 R0 the bound is below 2, falls, and holds
        # the sampled cut; at R_LIST the witness answers the 865 ends
        # certified from R = 1e2 on and refuses the other 38, the six
        # UNSOLVED_CUTS among them, each error naming the radii below R0 and R0
        from conftest import well_conditioned_mobius

        rng = np.random.default_rng(2001)
        charts, answered, refused = 0, 0, []
        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            for _ in range(28):
                mob = well_conditioned_mobius(entry.data, rng)
                w = ms.mobius_precompose(entry.data, mob)
                if not w.validate().ok:
                    continue
                charts += 1
                for p in w.punctures:
                    e = analyze_end(w, p)
                    cert = ends.certify_rotation_index(w, p, end=e)
                    assert cert.index == abs(e.k - 1), (entry.name, mob, p)
                    radii = [10.0 * cert.R0, 1e4 * cert.R0]
                    at_R0, *bounds = limit_circle_deviation(w, p, [cert.R0] + radii, end=e)
                    assert at_R0 <= 2.0
                    assert 2.0 > bounds[0] > bounds[1], (entry.name, mob, p, bounds)
                    for R, bound in zip(radii, bounds):
                        sample = sampled_deviation(w, p, R, end=e)
                        assert sample <= bound + 1e-15, (entry.name, mob, p, R)
                    try:
                        idx = rotation_index_numeric(w, p, R_LIST, end=e)
                    except NumericInstabilityError as err:
                        assert err.diagnostics == {
                            "R": [R for R in R_LIST if R < cert.R0], "R0": cert.R0,
                            "end": repr(p)}, (entry.name, p)
                        refused.append((entry.name, mob, p))
                        continue
                    assert cert.R0 <= R_LIST[0] and idx == cert.index, (entry.name, mob, p)
                    answered += 1
        assert charts == 277 and answered == 865 and len(refused) == 38
        for want_name, want_mob, end in UNSOLVED_CUTS:
            assert any(name == want_name and mob == want_mob and abs(p - end) < 1e-12
                       for name, mob, p in refused), (want_name, want_mob)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radii", [(), (0.0,), (-1e2,), (math.nan,), (math.inf,),
                                       (1e2, 1e3, math.inf)])
    def test_bad_radii_are_refused_before_any_certificate(self, catenoid, radii, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("end certified")

        monkeypatch.setattr(ends, "certify_rotation_index", unreachable)
        with pytest.raises(ValueError, match="finite and positive"):
            rotation_index_numeric(catenoid.data, 0j, radii)
        with pytest.raises(ValueError, match="finite and positive"):
            limit_circle_deviation(catenoid.data, 0j, radii)

    def test_an_end_it_was_not_asked_about_is_refused(self, catenoid, enneper, monkeypatch):
        # the witness winds the end it is given, so an end of another datum
        # (Enneper's would give 3 here) or of another puncture is refused
        # before any certificate
        def unreachable(*args, **kwargs):
            raise AssertionError("end certified")

        w = catenoid.data
        other_datum = analyze_end(enneper.data, INF)
        other_puncture = analyze_end(w, INF)
        same_coefficients = analyze_end(ms.catenoid().data, 0j)
        monkeypatch.setattr(ends, "certify_rotation_index", unreachable)
        for e in (other_datum, other_puncture, same_coefficients):
            with pytest.raises(ValueError, match="is not the end 0j"):
                rotation_index_numeric(w, 0j, R_LIST, end=e)
            with pytest.raises(ValueError, match="is not the end 0j"):
                limit_circle_deviation(w, 0j, R_LIST, end=e)
        monkeypatch.undo()
        assert rotation_index_numeric(w, 0j, R_LIST, end=analyze_end(w, 0j)) == 1


def _assert_refused_below_R0(w, p, e):
    """Both witnesses refuse R = 1e2 at the end p, below its certified radius
    R0, naming R and R0; from R0 on the index is |k - 1| and the deviation
    is finite."""
    R0 = ends.certify_rotation_index(w, p, end=e).R0
    assert R0 > 1e2
    with pytest.raises(NumericInstabilityError, match=f"R0 = {R0:g}") as err:
        rotation_index_numeric(w, p, R_LIST, end=e)
    assert err.value.diagnostics == {"R": [R for R in R_LIST if R < R0], "R0": R0,
                                     "end": repr(p)}
    with pytest.raises(NumericInstabilityError, match=f"R0 = {R0:g}") as err:
        limit_circle_deviation(w, p, [1e2], end=e)
    assert err.value.diagnostics == {"R": [1e2], "R0": R0, "end": repr(p)}
    assert rotation_index_numeric(w, p, (R0,), end=e) == e.k - 1
    assert math.isfinite(limit_circle_deviation(w, p, [R0], end=e)[0])


class TestLimitCircle:
    """The sampled deviation (``conftest.sampled_deviation``), the reference
    the bound is checked against: its cut falls toward the circle it is
    read against, at the rate of the end's next terms."""

    def test_deviation_decreases_catenoid(self, catenoid):
        devs = [sampled_deviation(catenoid.data, 0j, R) for R in R_LIST]
        assert devs[0] > devs[1] > devs[2]

    def test_plane_deviation_floor(self, plane):
        devs = [sampled_deviation(plane.data, INF, R) for R in R_LIST]
        assert max(devs) < 1e-9

    def test_counterexample_double_cover_model(self, counterexample):
        devs = [sampled_deviation(counterexample.data, 0j, R) for R in R_LIST]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2

    def test_order_two_ends_fall_like_log_R_over_R(self, all_entries):
        # a catenoid-type end's cut leaves its circle by its log growth over
        # R, a planar one's by O(1/R) (the plane's cut is the circle): the
        # deviation is O(log R / R), at most 2.4 log R / R on the catalog
        for entry in all_entries:
            for p in entry.data.punctures:
                e = analyze_end(entry.data, p)
                if e.mu != -2:
                    continue
                devs = [sampled_deviation(entry.data, p, R, end=e) for R in R_LIST]
                assert devs[0] > devs[1] > devs[2] or max(devs) < 1e-9, (entry.name, p, devs)
                for R, dev in zip(R_LIST, devs):
                    assert dev < 4.0 * math.log(R) / R, (entry.name, p, R, dev)

    def test_double_cover_falls_like_one_over_R(self, counterexample):
        # the order -3 end has no log term: R times the deviation settles
        # (4.04, 4.03, 4.03 measured), each decade of R a tenth of it
        devs = [sampled_deviation(counterexample.data, 0j, R) for R in R_LIST]
        for a, b in zip(devs, devs[1:]):
            assert 9.0 < a / b < 11.0, devs

    @pytest.mark.parametrize("k", [2, 4])
    def test_wrong_cover_stays_off_its_circle(self, counterexample, k):
        # the double cover read as a single or a triple one: the cut's phase
        # runs against the model's, and the deviation stays near the
        # diameter 2 at every R (1.99999, 2.0000, 2.0000 measured)
        e = dataclasses.replace(analyze_end(counterexample.data, 0j), mu=-k)
        for R in R_LIST:
            assert sampled_deviation(counterexample.data, 0j, R, end=e) > 1.99, R


# the radii of the bound's checks, as multiples of each end's R0
R0_MULTIPLES = (1.0, 10.0, 100.0, 1e4, 1e8)


class TestDeviationBound:
    """``limit_circle_deviation``, the bound read off the rotation
    certificate, against the sampled cut."""

    def test_bound_holds_the_sampled_cut_and_falls(self):
        # the 33 ends of the catalog with Jorge-Meeks m = 1..6, at
        # R0 x R0_MULTIPLES: no sample exceeds the bound by more than the
        # rounding of the plane's cut (7.4e-16 measured), below 2 the bound
        # falls strictly, and at 10 R0 it is below 2
        cuts = 0
        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                R0 = ends.certify_rotation_index(w, p, end=e).R0
                radii = [R0 * c for c in R0_MULTIPLES]
                bounds = limit_circle_deviation(w, p, radii, end=e)
                for R, bound in zip(radii, bounds):
                    assert sampled_deviation(w, p, R, end=e) <= bound + 1e-15, (entry.name, p, R)
                    cuts += 1
                assert bounds[1] < 2.0, (entry.name, p, bounds)
                assert all(b < a for a, b in zip(bounds, bounds[1:]) if a < 2.0), bounds
        assert cuts == 33 * len(R0_MULTIPLES)

    def test_nu_is_the_sup_of_the_leading_terms_departure(self):
        # |L| / (2 r^-m) = |Re A cos a + Im A sin a|, a = m theta, and the
        # model is L / (2 |Re A| r^-m): on 4096 angles the sup of
        # |L/|L| - model| is within 3.1e-16 of nu (measured), though nu
        # reaches 3.7e-15 on the rounded Jorge-Meeks data; nu from s_max and
        # s_min themselves, which lose half their digits here, read 9.4e-9
        a = 2.0 * np.pi * np.arange(4096) / 4096
        largest = 0.0
        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                nu = ends.certify_rotation_index(w, p, end=e)._nu
                A = e._local._anti[:, 0] / w.unit
                lead = np.multiply.outer(A.real, np.cos(a)) + np.multiply.outer(A.imag, np.sin(a))
                model = lead / np.linalg.norm(A.real)
                sup = np.max(np.linalg.norm(lead / np.linalg.norm(lead, axis=0) - model, axis=0))
                assert abs(sup - nu) <= 5e-16, (entry.name, p, nu, sup)
                largest = max(largest, nu)
        assert largest > 3e-15

    def test_singular_values_match_a_50_digit_svd(self):
        # s_max and s_min of [Re A, Im A] over the unit, on the 33 catalog
        # ends, within 1e-15 relative of mpmath's SVD of the same floats
        # (2.2e-16 measured); from sqrt(frob^2 - 4 (ab)^2) they were up to
        # 9.4e-9 off, s_min often above its true value
        ends_seen = 0
        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            w = entry.data
            for p in w.punctures:
                loc = analyze_end(w, p)._local
                got = ends._lead_split(loc, w.unit)[:2]
                A = loc._anti[:, 0] / w.unit
                with mpmath.workdps(50):
                    M = mpmath.matrix([[float(x.real), float(x.imag)] for x in A])
                    want = sorted(mpmath.svd_r(M, compute_uv=False), reverse=True)
                    for s, t in zip(got, want):
                        assert abs(s - t) <= 1e-15 * t, (entry.name, p, s, float(t))
                ends_seen += 1
        assert ends_seen == 33

    def test_radii_are_read_off_one_certificate(self, monkeypatch):
        # one call certifies the end once, and its bound at each radius is
        # bitwise the bound of a call at that radius alone
        certificates = []
        certify = ends.certify_rotation_index

        def counted(*args, **kwargs):
            certificates.append(args[1])
            return certify(*args, **kwargs)

        for entry in ms.catalog.entries(jm_range=range(1, 7)):
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                radii = [certify(w, p, end=e).R0 * c for c in R0_MULTIPLES] + list(R_LIST)
                alone = [limit_circle_deviation(w, p, [R], end=e)[0] for R in radii]
                monkeypatch.setattr(ends, "certify_rotation_index", counted)
                certificates.clear()
                assert limit_circle_deviation(w, p, radii, end=e) == alone, (entry.name, p)
                assert certificates == [p], (entry.name, p)
                monkeypatch.undo()

    @pytest.mark.parametrize("name, p", [("catenoid", 0j), ("enneper", INF),
                                         ("holomorphic_counterexample", 0j)])
    def test_bound_reads_the_grid_radius_at_or_above_the_cut(self, name, p):
        # at R = R0 2^(m c / 4) the cut's radius r_R = r0 (R0 / R)^(1/m) is
        # r0 2^(-c/4), the grid's radius c steps below r0: just above that R
        # the bound reads delta and eps there, and just below it, where r_R
        # is above that radius, one step up
        w = getattr(ms, name)().data
        e = analyze_end(w, p)
        cert = ends.certify_rotation_index(w, p, end=e)
        m = cert.index

        def read(c):
            return min(2.0, 2.0 * math.hypot(cert._delta[c], cert._eps[c]) + cert._nu)

        assert limit_circle_deviation(w, p, [cert.R0], end=e) == [read(0)]
        for c in range(1, 24):
            R = cert.R0 * 2.0 ** (0.25 * m * c)
            assert limit_circle_deviation(w, p, [R * (1.0 + 1e-12), R * (1.0 - 1e-12)],
                                          end=e) == [read(c), read(c - 1)], c


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


GRID_THETAS = 2.0 * np.pi * np.arange(64) / 64


def _on_circle(loc, r):
    """The local immersion on the circle |t| = r at the 64 angles of
    GRID_THETAS, summed from its table (``conftest.polar``): shape (n, 64)."""
    return polar(loc, np.full(GRID_THETAS.size, np.log(r)), GRID_THETAS)


class TestLocalImmersion:
    def test_matches_path_integral(self, jm2):
        from conftest import path_integral

        w = jm2.data
        p = w.punctures[0]
        loc = LocalImmersion(w, p)
        r = 0.12
        local = _on_circle(loc, r)
        for j in (3, 21, 45):  # the grid angles nearest 0.3, 2.1 and 4.4
            z = p + r * np.exp(1j * GRID_THETAS[j])
            direct = path_integral(w, [w.basepoint, z])
            assert np.max(np.abs(direct - local[:, j])) < 1e-8

    def test_builds_where_the_anchor_path_passes_an_end(self, enneper):
        # an Enneper chart where a straight path from the basepoint to the
        # end's neighbourhood runs close past the order -4 end; the constant
        # is read off the closed form, so no path matters
        mob = (complex(0.04931968294274557, -1.1429566337463961),
               complex(-2.1666121593182464, 0.5995576979640092),
               complex(0.7238102522772645, -0.8764085171864693),
               complex(-1.0714959570851907, 0.8228349505059208))
        w = ms.mobius_precompose(enneper.data, mob)
        (p,) = w.punctures
        loc = LocalImmersion(w, p)
        assert loc.mu == -4
        r = 0.15  # the chart's one end has no other puncture near it
        local = _on_circle(loc, r)[:, 7]  # the grid angle nearest 0.7
        direct = ms.immersion_eval(w, p + r * np.exp(1j * GRID_THETAS[7]))
        assert np.max(np.abs(local - direct)) < 1e-8 * np.max(np.abs(direct))

    def test_builds_without_evaluating_the_immersion(self, all_entries, monkeypatch):
        # the constant is the closed form's regular part at the end, read
        # without evaluating the immersion at any point
        calls = []
        real = ms.weierstrass.immersion_eval

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ms.weierstrass, "immersion_eval", counted)
        monkeypatch.setattr(ends, "immersion_eval", counted, raising=False)
        built = 0
        for entry in all_entries:
            for p in entry.data.punctures:
                LocalImmersion(entry.data, p)
                built += 1
        assert built == 20 and calls == []

    def test_matches_mpmath(self, jm2):
        # the table's sum against the same 41 Laurent terms and constant
        # summed in 40 digits, at 64 angles on the circles r = 1e-1 .. 1e-4
        # about the first end of JM m = 2: the sup of the error is within
        # 1e-14 of the sup of |f| on each circle (at most 1.1e-15 measured)
        _assert_matches_mpmath(jm2.data, jm2.data.punctures[0])

    def test_matches_mpmath_at_an_order_three_end(self, counterexample):
        # the same check at the counterexample's order -3 end at 0, whose
        # leading term is t^-2 and whose window has no log term
        _assert_matches_mpmath(counterexample.data, 0j)

    @pytest.mark.parametrize("m, k", [(19, 40), (20, 42)])
    def test_an_end_the_window_covers_is_built(self, m, k):
        # the generalized Enneper end of order k reads TERMS = 41 terms:
        # at k = 40 they reach t^-1, and at k = 42 the one left out, t^-1, is
        # exactly 0, so the immersion is the closed form's on |w| = 0.9
        # (9.1e-15 and 9.1e-15 measured)
        w = generalized_enneper(m)
        (p,) = w.punctures
        loc = LocalImmersion(w, p)
        assert loc.mu == -k
        local = _on_circle(loc, 0.9)
        direct = np.array([ms.immersion_eval(w, 1.0 / (0.9 * np.exp(1j * t)))
                           for t in GRID_THETAS]).T
        scale = np.max(np.linalg.norm(direct, axis=0))
        assert np.max(np.linalg.norm(local - direct, axis=0)) <= 1e-13 * scale

    @pytest.mark.parametrize("m, k", [(21, 44), (22, 46)])
    def test_a_truncated_series_is_refused(self, m, k):
        # at k = 44 and 46 the series has nonzero terms between the window's
        # last and t^0 (their evaluator was 47 % and 30 % off the closed form
        # on |w| = 0.9): the local immersion, the certificate, the witness and
        # the deviation refuse the end, naming k and TERMS
        w = generalized_enneper(m)
        (p,) = w.punctures
        e = analyze_end(w, p)
        assert e.k == k
        for reader in (lambda: LocalImmersion(w, p),
                       lambda: ends.certify_rotation_index(w, p, end=e),
                       lambda: rotation_index_numeric(w, p, R_LIST, end=e),
                       lambda: limit_circle_deviation(w, p, R_LIST, end=e)):
            with pytest.raises(NumericInstabilityError,
                               match=f"order k = {k} has a nonzero term past the TERMS = 41") as err:
                reader()
            assert err.value.diagnostics == {"end": repr(p), "k": k, "TERMS": 41}


def _assert_matches_mpmath(w, p):
    """LocalImmersion about the end p of w against its 41 Laurent terms and
    constant summed in 40 digits, at 64 angles on r = 1e-1 .. 1e-4: the sup
    of the error within 1e-14 of the sup of |f| on each circle."""
    loc = LocalImmersion(w, p)
    win = w._laurent.window(p)
    mu, C = win.mu, win.C[:, :TERMS]
    thetas = GRID_THETAS
    with mpmath.workdps(40):
        terms = [[mpmath.mpc(c) / (mu + k + 1) for k, c in enumerate(row) if mu + k != -1]
                 for row in C]
        log_c = [mpmath.mpc(c) for c in C[:, -1 - mu]] if mu <= -1 else [0] * w.n
        for r in (1e-1, 1e-2, 1e-3, 1e-4):
            got = _on_circle(loc, r)
            err = scale = 0
            for i, theta in enumerate(thetas):
                t = mpmath.mpf(r) * mpmath.expj(mpmath.mpf(theta))
                log_t = mpmath.log(t)
                powers = [t ** (mu + 1 + k) for k in range(C.shape[1]) if mu + k != -1]
                want = [2 * mpmath.re(mpmath.fsum(c * tp for c, tp in zip(row, powers))
                                      + log_j * log_t) + loc.constant[j]
                        for j, (row, log_j) in enumerate(zip(terms, log_c))]
                err = max(err, mpmath.norm([g - f for g, f in zip(got[:, i], want)]))
                scale = max(scale, mpmath.norm(want))
            assert err <= 1e-14 * scale, (r, float(err / scale))


def _inside(f, R):
    """Whether each column of f lies strictly inside the sphere |f| = R, by
    the sphere cut's own test."""
    u = f / R
    return np.einsum("ij,ij->j", u, u) < 1.0


class TestSphereCut:
    """``conftest.sphere_cut``, the reference bisection of |f| = R in log r
    on the disc of the end's rotation certificate."""

    def test_cut_lies_on_the_sphere(self, all_entries):
        # at every radius of R_LIST at least the end's R0, each point of the
        # cut is on the inner side of the sphere, within 1e-14 of it
        # (2.1e-15 at most, measured)
        cuts = 0
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                cert = ends.certify_rotation_index(w, p, end=e)
                n = CUT_ANGLES * max(e.k - 1, 4)
                for R in (R for R in R_LIST if R >= cert.R0):
                    f = conftest.sphere_cut(e._local, n, R, cert.r0)
                    assert f.shape == (w.n, n)
                    rel = np.linalg.norm(f, axis=0) / R
                    assert np.max(np.abs(rel - 1.0)) <= 1e-14, (entry.name, p, R)
                    u = f / R
                    assert (np.einsum("ij,ij->j", u, u) <= 1.0).all(), (entry.name, p, R)
                    cuts += 1
        assert cuts == 3 * 20

    def _recorded_cut(self, loc, n, R, r0, monkeypatch):
        """The cut and every (x, f) at which it evaluated the series."""
        calls = []

        def recorded(loc, x, thetas):
            f = polar(loc, x, thetas)
            calls.append((np.array(x, dtype=float), f))
            return f

        monkeypatch.setattr(conftest, "polar", recorded)
        return conftest.sphere_cut(loc, n, R, r0), calls

    def test_lower_end_steps_down_by_log_two_until_every_ray_is_outside(self, enneper,
                                                                      monkeypatch):
        # Enneper's end at R = 1e4 lies a few halvings of r below r0: lo
        # starts one halving below log r0 and steps down by log 2 while any
        # ray is inside the sphere, and stops at the first lo outside on all
        n, R = 64, 1e4
        w = enneper.data
        e = analyze_end(w, INF)
        cert = ends.certify_rotation_index(w, INF, end=e)
        _cut, calls = self._recorded_cut(e._local, n, R, cert.r0, monkeypatch)
        lo = np.full(n, math.log(cert.r0)) - math.log(2.0)
        steps = 0
        for x, f in calls:
            assert np.array_equal(x, lo)
            steps += 1
            if not _inside(f, R).any():
                break
            lo = lo - math.log(2.0)
        assert steps >= 3
        assert _inside(calls[steps - 2][1], R).any()

    def test_bisection_stops_at_adjacent_floats(self, all_entries, monkeypatch):
        # after the lower end's steps each evaluation is at the midpoint of
        # its ray's bracket; the cut is read at hi, once no midpoint lies
        # strictly between lo and hi on any ray
        for entry in all_entries:
            w = entry.data
            for p in w.punctures:
                e = analyze_end(w, p)
                cert = ends.certify_rotation_index(w, p, end=e)
                n = CUT_ANGLES * max(e.k - 1, 4)
                with monkeypatch.context() as m:
                    cut, calls = self._recorded_cut(e._local, n, 1e4, cert.r0, m)
                first = next(i for i, (_x, f) in enumerate(calls) if not _inside(f, 1e4).any())
                lo, hi = calls[first][0], np.full(n, math.log(cert.r0))
                for x, f in calls[first + 1:-1]:
                    assert np.array_equal(x, 0.5 * (lo + hi))
                    inside = _inside(f, 1e4)
                    hi, lo = np.where(inside, x, hi), np.where(inside, lo, x)
                mid = 0.5 * (lo + hi)
                assert not ((lo < mid) & (mid < hi)).any(), (entry.name, p)
                assert np.array_equal(calls[-1][0], hi) and np.array_equal(calls[-1][1], cut)
                assert len(calls) - first - 2 <= 64, (entry.name, p)


# The six ends, of the 903 ends of 277 charts of the conftest-rule chart sweep
# (well_conditioned_mobius with default_rng(2001), 28 draws per surface of
# catalog.entries(jm_range=range(1, 7)), kept where validate passes) whose
# sphere cut at R = 1e2 a Newton solve did not reach, each certified only
# from an R0 above 1e2: (surface, Moebius map, end), in the order of the
# sweep.
UNSOLVED_CUTS = [
    ("enneper", (0.6596376373223017 - 1.5464481715995755j, 3.255730679617354 - 0.863398031940671j,
                 -0.9572716235291744 - 0.7695836956177559j,
                 -0.3008320905071768 - 0.34134954469810547j),
     -0.3650171270766681 - 0.06313601447397837j),
    ("enneper", (0.056420594180430196 + 1.2217554251111813j,
                 1.0993691813163615 - 0.8455729332061959j,
                 1.1385536131374523 - 0.21019177364589153j,
                 -0.01623564528147274 + 0.18872769952624713j),
     0.04338292955700604 - 0.15775187267797292j),
    ("holomorphic-counterexample",
     (-0.6719025523875212 + 0.1186735554560623j, -0.4291220310719605 + 0.5302393686313762j,
      2.317917057241831 - 0.7830796002328473j, 1.9772004198641138 - 1.0344899420782312j),
     -0.7545135876408711 + 0.6558965388361115j),
    ("holomorphic-counterexample",
     (-0.28663608896082154 - 0.2507845903587672j, -0.26134974458696786 - 0.2287934606514008j,
      -1.4698314544507738 - 0.503642061672631j, 0.26007238423608303 - 0.7806189904765913j),
     -0.9120114621145562 - 0.00026179439851233634j),
    ("holomorphic-counterexample",
     (0.017597901204335707 + 0.41178121535124956j, 0.017954755517779277 - 0.3738444535680834j,
      -1.3187348765032176 - 0.6102188664374776j, -0.6474658594879634 + 0.18511583661076217j),
     0.9043564636290858 + 0.0822512779980398j),
    ("holomorphic-counterexample",
     (-0.5792033278205588 - 0.2048919082405142j, -0.1111904381903719 + 0.9227214093801146j,
      -2.233490492324597 + 0.42068406377216067j, -0.26840279955670987 + 1.2282825491422626j),
     0.33025276017115013 + 1.4762610124571882j),
]


class TestScaleFreeEnds:
    """``analyze_end`` takes its norms of the coefficients divided by the
    datum's unit, a power of two, so data far below squaring's underflow
    analyse as the unscaled ones."""

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
            lead = scaled._laurent.window(g.puncture).C[:, 0]
            assert g.a == pytest.approx(1e-300 * u.a, rel=1e-14)
            assert g.b == pytest.approx(1e-300 * u.b, rel=1e-12, abs=1e-310)
            assert np.allclose(g.frame, u.frame, atol=1e-12)
            # squaring the tiny lead underflows; a is still nonzero, and
            # |Im a_lead| is within ~2e-9 a of it, both through the unit
            assert float(np.linalg.norm(lead.real)) == 0.0 < g.a
            im = scaled.unit * float(np.linalg.norm(lead.imag / scaled.unit))
            assert abs(im - g.a) <= 2.1e-9 * g.a

    def test_norms_are_bitwise_where_squaring_is_safe(self, all_entries):
        # a and b are the plain norms bitwise where squaring is safe, and
        # exactly 2^-900 times them on the data scaled by 2^-900 (~1e-271),
        # whose squares underflow
        s = 2.0**-900
        for entry in all_entries:
            w = entry.data
            tiny = ms.WeierstrassData([ms.RationalMap(r.num * s, r.den) for r in w.phi],
                                      punctures=w.punctures)
            for p in w.punctures:
                e, t = analyze_end(w, p), analyze_end(tiny, p)
                lead = w._laurent.window(e.pole).C[:, 0]
                assert e.a == float(np.linalg.norm(lead.real)), entry.name
                a1, e1, e2 = e.a_minus1, lead.real / e.a, lead.imag / e.a
                b_vec = a1 - (a1 @ e1) * e1 - (a1 @ e2) * e2
                if e.b:
                    assert e.b == float(np.linalg.norm(b_vec)), entry.name
                assert (t.a, t.b) == (s * e.a, s * e.b), entry.name
