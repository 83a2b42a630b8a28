"""Gauss map, total curvature, and the three curvature inequalities."""

import dataclasses
import math

import numpy as np
import pytest

import minsurf as ms
from minsurf import curvature
from minsurf.curvature import (
    chern_osserman,
    curvature_report,
    fullness_and_degeneracy,
    gackstatter_and_ejiri,
    gauss_map,
    total_curvature_numeric,
)
from minsurf.errors import ConvergenceFailureError, NumericInstabilityError
from minsurf.weierstrass import mobius_precompose


def projectively_equal(psi, reference, atol=1e-10):
    """[psi] == [reference] up to one overall complex scale."""
    psi_mat = np.zeros((len(psi), max(len(c) for c in reference)), dtype=complex)
    ref_mat = np.zeros_like(psi_mat)
    for i, p in enumerate(psi):
        psi_mat[i, : p.coeffs.size] = p.coeffs
    for i, c in enumerate(reference):
        ref_mat[i, : len(c)] = c
    idx = np.unravel_index(np.argmax(np.abs(ref_mat)), ref_mat.shape)
    if abs(psi_mat[idx]) < atol:
        return False
    scale = ref_mat[idx] / psi_mat[idx]
    return np.allclose(psi_mat * scale, ref_mat, atol=atol)


class TestGaussMap:
    def test_catenoid(self, catenoid):
        g = gauss_map(catenoid.data)
        assert g.degree == 2
        assert projectively_equal(g.psi, [[1, 0, -1], [1j, 0, 1j], [0, 2]])

    def test_counterexample(self, counterexample):
        g = gauss_map(counterexample.data)
        assert g.degree == 3
        assert projectively_equal(
            g.psi, [[0, 0, 0, 1], [0, 0, 0, -1j], [-2], [2j]]
        )

    def test_plane_constant_map(self, plane):
        g = gauss_map(plane.data)
        assert g.degree == 0
        assert projectively_equal(g.psi, [[1], [-1j], [0]])


class TestTotalCurvature:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_jorge_meeks_algebraic(self, m):
        w = ms.generalized_jorge_meeks(m).data
        g = gauss_map(w)
        assert g.degree == 2 * m
        rep = chern_osserman(w, g)
        assert rep.tc_pi == -4 * m
        assert rep.tc_algebraic == pytest.approx(-4 * m * math.pi)

    def test_catenoid_algebraic(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert rep.tc_pi == -4 and rep.tc_algebraic == pytest.approx(-4 * math.pi)

    def test_plane_zero(self, plane):
        rep = chern_osserman(plane.data)
        assert rep.tc_pi == 0 and rep.tc_algebraic == 0.0

    def test_catenoid_numeric(self, catenoid):
        tc = total_curvature_numeric(catenoid.data, tol=1e-3)
        assert abs(tc + 4 * math.pi) <= 1e-3 * 4 * math.pi

    def test_plane_numeric(self, plane):
        assert abs(total_curvature_numeric(plane.data, tol=1e-3)) <= 1e-3

    def test_jorge_meeks_m2_numeric(self, jm2):
        tc = total_curvature_numeric(jm2.data, tol=1e-3)
        assert abs(tc + 8 * math.pi) <= 1e-3 * 8 * math.pi

    def test_wrong_sign_numeric_refused(self, catenoid, monkeypatch):
        # a Green-identity value of the wrong sign must be refused, not reported
        monkeypatch.setattr(curvature, "total_curvature_numeric",
                            lambda w, tol: 4 * math.pi)
        with pytest.raises(NumericInstabilityError) as err:
            curvature_report(catenoid.data, tc_tol=1e-3)
        diag = err.value.diagnostics
        assert diag["tc_algebraic"] == pytest.approx(-4 * math.pi)
        assert diag["tc_numeric"] == pytest.approx(4 * math.pi, rel=1e-3)

    def test_finite_high_order_end_charts(self, catenoid, enneper):
        # an Enneper chart with a finite order -4 end, drawn as the benchmark
        # draws its Moebius charts (seed 2001, catenoid first), and the
        # catenoid with its ends at 0.25 and 0.26: a reduced rational
        # derivative phi' once gave +4 pi on both
        from conftest import well_conditioned_mobius

        rng = np.random.default_rng(2001)
        well_conditioned_mobius(catenoid.data, rng)
        charts = [mobius_precompose(enneper.data, well_conditioned_mobius(enneper.data, rng)),
                  mobius_precompose(catenoid.data, (1, -0.25, 1, -0.26))]
        for w in charts:
            rep = curvature_report(w, tc_tol=1e-3)
            assert rep.tc_pi == -4
            assert abs(rep.tc_numeric + 4 * math.pi) <= 1e-3 * 4 * math.pi


def _quotient_parts(phi):
    return [(r.num, r.den, r.num.derivative(), r.den.derivative()) for r in phi if not r.is_zero]


def _reference_circle_flux(parts, center, radius, n_theta):
    """One circle at a time: the Green-identity flux as first written, nudging
    the radius until no sample hits a zero of S."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    e = np.exp(1j * theta)
    rad = radius
    for _attempt in range(6):
        z = center + rad * e
        num = np.zeros_like(z)
        den = np.zeros(z.shape)
        for n, d, dn, dd in parts:
            dz = d(z)
            v = n(z) / dz
            num += (dn(z) - v * dd(z)) / dz * np.conj(v)
            den += np.abs(v) ** 2
        if np.min(den) > 1e-280:
            vals = np.real(e * num / den) * rad
            return float(np.mean(vals) * 2.0 * math.pi), rad
        rad *= 1.0017
    raise AssertionError("reference: no circle without a zero of S")


def _reference_estimates(w, rounds, n_theta=512):
    """tc_0 .. tc_{rounds-1}, one circle at a time from the unscaled, ungrouped
    components, with the radii of each round: the estimates the stop rules
    read."""
    parts = _quotient_parts(w.phi)
    fin = w.finite_punctures
    eps0 = 0.08 * w.min_separation
    r_out0 = 4.0 * (1.0 + max((abs(p) for p in fin), default=0.0))
    out = []
    for i in range(rounds):
        circles = [(p, eps0 * 0.6**i) for p in fin] + [(0j, r_out0 / 0.6**i)]
        fluxes = [_reference_circle_flux(parts, c, r, n_theta) for c, r in circles]
        tc = -(fluxes[-1][0] - sum(f for f, _r in fluxes[:-1]))
        out.append((tc, [r for _f, r in fluxes]))
    return out


def _reference_stop(tcs, tol=1e-3, aitken=True):
    """(value, rounds, rule) of the stop rules on the estimates ``tcs``, as
    stated: two successive estimates agree to 0.2 tol max(1, |tc|); or, from
    the third round on, Aitken values A_i, formed only where 0 < q < 1 for
    q = D_i / D_{i-1}, agree in two successive rounds.  None if neither fires."""
    def bound(a):
        return 0.2 * tol * max(1.0, abs(a))

    A = {}
    for i in range(1, len(tcs)):
        if abs(tcs[i] - tcs[i - 1]) <= bound(tcs[i]):
            return tcs[i], i + 1, "successive"
        if aitken and i >= 2:
            d, d0 = tcs[i] - tcs[i - 1], tcs[i - 1] - tcs[i - 2]
            if 0.0 < d / d0 < 1.0:
                A[i] = tcs[i] - d * d / (d - d0)
                if i - 1 in A and abs(A[i] - A[i - 1]) <= bound(A[i]):
                    return A[i], i + 1, "aitken"
    return None


def _recorded_rounds(monkeypatch):
    """Wrap ``_round_fluxes``; returns the list its (fluxes, radii) go to."""
    calls = []
    real_round = curvature._round_fluxes

    def recording_round(*args):
        out = real_round(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(curvature, "_round_fluxes", recording_round)
    return calls


def _checked_data(all_entries):
    from conftest import well_conditioned_mobius

    jm2 = next(e for e in all_entries if e.name == "generalized-jorge-meeks-m2").data
    chart = mobius_precompose(jm2, well_conditioned_mobius(jm2, np.random.default_rng(5)))
    assert len(chart.finite_punctures) >= 2
    return [(e.name, e.data) for e in all_entries] + [("jm2-chart", chart)]


class TestStackedRounds:
    """Each shrink round of the Green-identity check evaluates its circles in
    one stacked call, each distinct denominator once; its estimate is the
    per-circle one."""

    def test_rounds_match_per_circle_reference(self, all_entries, monkeypatch):
        calls = _recorded_rounds(monkeypatch)
        for name, w in _checked_data(all_entries):
            calls.clear()
            total_curvature_numeric(w)
            reference = _reference_estimates(w, len(calls))
            for (flux, radii), (tc_ref, radii_ref) in zip(calls, reference):
                tc = -(flux[-1] - sum(flux[:-1].tolist()))
                assert radii.tolist() == radii_ref, name
                assert abs(tc - tc_ref) <= 1e-13 * max(1.0, abs(tc_ref)), name

    def test_only_the_circle_on_a_zero_of_s_is_nudged(self, enneper):
        # Enneper times (z - 1)^2: a branch point at z = 1, where every
        # component vanishes exactly; the theta = 0 sample of the unit circle
        # about 0 is exactly 1.  One denominator, so the component order and
        # the fluxes are the per-circle ones bitwise.
        square = ms.rational.RationalMap([1.0, -2.0, 1.0])
        phi = [r * square for r in enneper.data.phi]
        groups = curvature._flux_groups(ms.WeierstrassData(phi))
        assert len(groups) == 1
        centers, radii = [0j, 0j, 2 + 0j], [1.0, 0.5, 0.3]
        flux, used = curvature._round_fluxes(groups, centers, radii, 512)
        assert used.tolist() == [1.0 * 1.0017, 0.5, 0.3]
        parts = _quotient_parts(phi)
        for i, (c, r) in enumerate(zip(centers, radii)):
            assert (flux[i], used[i]) == _reference_circle_flux(parts, c, r, 512)

    @pytest.mark.parametrize("m", [3, 6])
    def test_evaluations_per_denominator_and_component(self, m, monkeypatch):
        w = ms.generalized_jorge_meeks(m).data
        shapes = []
        real_call = ms.rational.ComplexPoly.__call__

        def counting_call(self, z):
            shapes.append(np.shape(z))
            return real_call(self, z)

        calls = _recorded_rounds(monkeypatch)
        monkeypatch.setattr(ms.rational.ComplexPoly, "__call__", counting_call)
        total_curvature_numeric(w)
        # den and den' once per distinct denominator, num and num' once per
        # component, a round on the stacked circles about the m + 1 finite
        # ends and the outer one
        comps = [r for r in w.phi if not r.is_zero]
        dens = {r.den.coeffs.tobytes() for r in comps}
        assert len(dens) < len(comps)
        assert len(calls) >= 2
        assert len(shapes) == (2 * len(dens) + 2 * len(comps)) * len(calls)
        assert set(shapes) == {(m + 2, 512)}

    @pytest.mark.parametrize("s", [2.0**-600, 2.0**-3, 2.0**5, 2.0**600])
    def test_power_of_two_scale_is_bitwise_invisible(self, s, catenoid, monkeypatch):
        # d/dr log lambda is invariant under phi -> s phi and the numerators are
        # brought to order one by a power of two, so every round is bitwise
        # the unscaled one -- also where S itself would under- or overflow
        w = catenoid.data
        scaled = ms.WeierstrassData([ms.RationalMap(r.num * s, r.den) for r in w.phi])
        calls = _recorded_rounds(monkeypatch)
        tc = total_curvature_numeric(w)
        plain = [(f.tolist(), r.tolist()) for f, r in calls]
        calls.clear()
        assert total_curvature_numeric(scaled) == tc
        assert [(f.tolist(), r.tolist()) for f, r in calls] == plain


class TestStopRules:
    """Today's successive-difference rule, and Aitken extrapolation of the
    geometric tail where the differences shrink without changing sign."""

    def test_returns_the_aitken_value_of_the_reference_rounds(self, all_entries, monkeypatch):
        calls = _recorded_rounds(monkeypatch)
        rules = {}
        for name, w in _checked_data(all_entries):
            calls.clear()
            tc = total_curvature_numeric(w)
            tcs = [t for t, _r in _reference_estimates(w, 12)]
            value, rounds, rules[name] = _reference_stop(tcs)
            assert len(calls) == rounds, name
            assert abs(tc - value) <= 1e-13 * max(1.0, abs(value)), name
            # never more rounds than the successive-difference rule alone
            assert rounds <= _reference_stop(tcs, aitken=False)[1], name
        assert {n for n, r in rules.items() if r == "successive"} == {
            "plane", "holomorphic-counterexample"}

    def _run(self, plane, tcs, monkeypatch, tol=1e-3):
        """total_curvature_numeric on rounds whose estimates are ``tcs``."""
        rounds = []

        def fake_round(groups, centers, radii, n_theta):
            assert len(centers) == 1  # the plane has no finite puncture
            rounds.append(radii)
            return np.array([-tcs[len(rounds) - 1]]), np.asarray(radii)

        monkeypatch.setattr(curvature, "_round_fluxes", fake_round)
        value = total_curvature_numeric(plane.data, tol=tol, max_iter=len(tcs))
        return value, len(rounds)

    def test_geometric_tail_stops_on_the_fourth_round(self, plane, monkeypatch):
        limit = -4 * math.pi
        tcs = [limit + 0.36**i for i in range(20)]
        value, rounds = self._run(plane, tcs, monkeypatch)
        assert rounds == 4
        assert value == _reference_stop(tcs)[0]
        assert abs(value - limit) <= 1e-14 * abs(limit)

    def test_sign_changes_fall_back_to_successive_differences(self, plane, monkeypatch):
        # q = -1/2 every round: no Aitken value is formed
        tcs = [1.0 + (-0.5) ** i for i in range(40)]
        value, rounds = self._run(plane, tcs, monkeypatch)
        assert _reference_stop(tcs) == (value, rounds, "successive")
        assert (value, rounds) == (tcs[14], 15)

    def test_aitken_pairs_are_successive(self, plane, monkeypatch):
        # A_2 = 1 from a geometric start; q = 3/2 and then q < 0 leave rounds
        # 4 and 5 without one; A_5 = 1 again, but it pairs only with A_6
        tcs = [0.0, 0.5, 0.75, 1.125, 1.0625, 1.03125, 1.015625, 1.0078125]
        value, rounds = self._run(plane, tcs, monkeypatch)
        assert (value, rounds) == (1.0, 7)
        assert _reference_stop(tcs) == (1.0, 7, "aitken")

    @pytest.mark.parametrize("tcs", [[10.0 + 0.01 * i for i in range(30)],
                                     [2.0**i for i in range(30)]])
    def test_no_extrapolation_for_q_at_least_one(self, plane, tcs, monkeypatch):
        # q = 1 (no division by zero) and q = 2: neither rule fires
        with pytest.raises(ConvergenceFailureError):
            self._run(plane, tcs, monkeypatch)

    def test_failure_carries_the_last_two_estimates(self, plane, monkeypatch):
        tcs = [2.0**i for i in range(30)]
        with pytest.raises(ConvergenceFailureError) as failure:
            self._run(plane, tcs, monkeypatch)
        assert failure.value.estimates == (tcs[-2], tcs[-1])

    def test_close_catenoid_ends_run_out_of_rounds(self, catenoid, monkeypatch):
        # the catenoid with ends 1e-3 apart at 0.21: the circles about the
        # ends shrink from 8e-5 by 0.6 a round and the estimates never settle;
        # the error reports the last two rounds' estimates, not one twice
        p = np.linspace(0.2, 0.5, 31)[1]
        w = mobius_precompose(catenoid.data, (1, -p, 1, -(p + 1e-3)))
        calls = _recorded_rounds(monkeypatch)
        with pytest.raises(ConvergenceFailureError) as failure:
            total_curvature_numeric(w)
        assert len(calls) == 48
        last = tuple(-(flux[-1] - sum(flux[:-1].tolist())) for flux, _r in calls[-2:])
        assert failure.value.estimates == last and last[0] != last[1]

    def test_plane_stops_after_two_rounds(self, plane, monkeypatch):
        calls = _recorded_rounds(monkeypatch)
        assert total_curvature_numeric(plane.data) == 0.0
        assert len(calls) == 2


class TestChernOsserman:
    def test_catenoid_equality(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert (rep.chi, rep.m) == (0, 2)
        assert rep.co_rhs == pytest.approx(-4 * math.pi)
        assert rep.co_equality

    def test_counterexample_strict(self, counterexample):
        rep = chern_osserman(counterexample.data)
        assert rep.co_rhs == pytest.approx(-4 * math.pi)
        assert rep.tc_algebraic == pytest.approx(-6 * math.pi)
        assert not rep.co_equality

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jorge_meeks_equality(self, m):
        rep = chern_osserman(ms.generalized_jorge_meeks(m).data)
        assert rep.chi == 1 - m and rep.m == m + 1
        assert rep.co_rhs == pytest.approx(-4 * m * math.pi)
        assert rep.co_equality

    def test_enneper_strict(self, enneper):
        rep = chern_osserman(enneper.data)
        assert rep.co_rhs == 0.0
        assert rep.tc_algebraic < rep.co_rhs


class TestFullness:
    def test_jorge_meeks_full_nondegenerate(self, jm2):
        full, l = fullness_and_degeneracy(jm2.data)
        assert full and l == 0

    def test_plane_not_full(self, plane):
        full, l = fullness_and_degeneracy(plane.data)
        assert not full and l == 2

    def test_catenoid_rank_oracle(self, catenoid):
        # coefficient matrix of (1-z^2, i(1+z^2), 2z) has complex rank 3
        M = np.array([[1, 0, -1], [1j, 0, 1j], [0, 2, 0]], dtype=complex)
        assert np.linalg.matrix_rank(M) == 3
        full, l = fullness_and_degeneracy(catenoid.data)
        assert full and l == 0


class TestGackstatterEjiri:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jorge_meeks(self, m):
        w = ms.generalized_jorge_meeks(m).data
        res = gackstatter_and_ejiri(w)
        assert res.applicable
        assert res.ejiri_equality
        assert (res.gackstatter_pi, res.ejiri_pi) == (1 - 3 * m, -4 * m)
        assert -2 * gauss_map(w).degree <= res.gackstatter_pi

    def test_catenoid(self, catenoid):
        res = gackstatter_and_ejiri(catenoid.data)
        assert res.gackstatter_pi == -2
        assert -2 * gauss_map(catenoid.data).degree <= res.gackstatter_pi

    def test_plane_flagged_not_applicable(self, plane):
        res = gackstatter_and_ejiri(plane.data)
        assert not res.applicable
        assert res.ejiri_pi == 0


class TestCrossCutting:
    def test_report_is_frozen_with_integer_bounds(self, catenoid):
        rep = curvature_report(catenoid.data, numeric=False)
        assert (rep.gackstatter_pi, rep.ejiri_pi) == (-2, -4)
        assert rep.gackstatter_rhs == -2 * math.pi and rep.ejiri_rhs == -4 * math.pi
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.full = False

    def test_all_inequalities_hold_on_catalog(self, all_entries):
        for entry in all_entries:
            rep = curvature_report(entry.data, numeric=False)
            assert rep.tc_algebraic <= rep.co_rhs + 1e-9, entry.name
            assert rep.tc_algebraic <= rep.ejiri_rhs + 1e-9, entry.name
            if rep.gackstatter_applicable:
                assert rep.tc_algebraic <= rep.gackstatter_rhs + 1e-9, entry.name

    def test_numeric_matches_algebraic_on_catalog(self, all_entries):
        for entry in all_entries:
            rep = curvature_report(entry.data, tc_tol=1e-3)
            assert abs(rep.tc_numeric - rep.tc_algebraic) <= 1e-3 * max(
                1.0, abs(rep.tc_algebraic)
            ), entry.name

    def test_equality_iff_all_orders_minus_two(self, all_entries):
        from minsurf.weierstrass import metric_order_at

        for entry in all_entries:
            rep = chern_osserman(entry.data)
            orders_flat = all(
                metric_order_at(entry.data, p) == -2 for p in entry.data.punctures
            )
            assert rep.co_equality == orders_flat, entry.name

    def test_mobius_invariance_of_degree(self, all_entries):
        from conftest import well_conditioned_mobius

        rng = np.random.default_rng(53)
        for entry in all_entries[:5]:
            d0 = gauss_map(entry.data).degree
            mob = well_conditioned_mobius(entry.data, rng)
            assert gauss_map(mobius_precompose(entry.data, mob)).degree == d0
