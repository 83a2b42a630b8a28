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
from minsurf.errors import NumericInstabilityError
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


def _reference_total_curvature(w, tol=1e-3, n_theta=512, max_iter=48):
    parts = _quotient_parts(w.phi)
    fin = w.finite_punctures
    eps0 = 0.08 * w.min_separation
    r_out0 = 4.0 * (1.0 + max((abs(p) for p in fin), default=0.0))
    prev = None
    for i in range(max_iter):
        eps = eps0 * 0.6**i
        r_out = r_out0 / 0.6**i
        inner = sum(_reference_circle_flux(parts, p, eps, n_theta)[0] for p in fin)
        tc = -(_reference_circle_flux(parts, 0j, r_out, n_theta)[0] - inner)
        if prev is not None and abs(tc - prev) <= 0.2 * tol * max(1.0, abs(tc)):
            return tc
        prev = tc
    raise AssertionError("reference: boundary terms did not stabilize")


class TestStackedRounds:
    """Each shrink round of the Green-identity check evaluates its circles in
    one stacked call; the value is bitwise the per-circle one."""

    def test_bitwise_equal_to_per_circle(self, all_entries):
        from conftest import well_conditioned_mobius

        jm2 = next(e for e in all_entries if e.name == "generalized-jorge-meeks-m2").data
        chart = mobius_precompose(jm2, well_conditioned_mobius(jm2, np.random.default_rng(5)))
        assert len(chart.finite_punctures) >= 2
        for w in [e.data for e in all_entries] + [chart]:
            assert total_curvature_numeric(w) == _reference_total_curvature(w), w.label

    def test_only_the_circle_on_a_zero_of_s_is_nudged(self, enneper):
        # Enneper times (z - 1)^2: a branch point at z = 1, where every
        # component vanishes exactly; the theta = 0 sample of the unit circle
        # about 0 is exactly 1
        square = ms.rational.RationalMap([1.0, -2.0, 1.0])
        parts = _quotient_parts([r * square for r in enneper.data.phi])
        centers, radii = [0j, 0j, 2 + 0j], [1.0, 0.5, 0.3]
        flux, used = curvature._round_fluxes(parts, centers, radii, 512)
        assert used.tolist() == [1.0 * 1.0017, 0.5, 0.3]
        for i, (c, r) in enumerate(zip(centers, radii)):
            assert (flux[i], used[i]) == _reference_circle_flux(parts, c, r, 512)

    def test_one_evaluation_per_component_and_round(self, monkeypatch):
        w = ms.generalized_jorge_meeks(3).data
        shapes = []
        real_call = ms.rational.ComplexPoly.__call__

        def counting_call(self, z):
            shapes.append(np.shape(z))
            return real_call(self, z)

        rounds = []
        real_round = curvature._round_fluxes

        def counting_round(*args):
            rounds.append(args)
            return real_round(*args)

        monkeypatch.setattr(ms.rational.ComplexPoly, "__call__", counting_call)
        monkeypatch.setattr(curvature, "_round_fluxes", counting_round)
        total_curvature_numeric(w)
        # num, den, num', den' of 7 components, once a round on the stacked
        # circles about the 4 finite ends and the outer one
        assert w.n == 7 and len(w.finite_punctures) == 4
        assert len(rounds) >= 2
        assert len(shapes) == 4 * 7 * len(rounds)
        assert set(shapes) == {(5, 512)}


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
