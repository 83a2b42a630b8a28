"""Gauss map, total curvature, and the three curvature inequalities."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

import minsurf as ms
from minsurf import curvature
from minsurf.curvature import (
    chern_osserman,
    curvature_report,
    fullness_and_degeneracy,
    gauss_map,
    total_curvature_numeric,
)
from minsurf.errors import (
    ConvergenceFailureError,
    InternalConsistencyError,
    NumericInstabilityError,
)
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
    # the degree, and the map in cleared form [psi_1 : ... : psi_n], psi the
    # datum's cleared numerators
    def test_catenoid(self, catenoid):
        w = catenoid.data
        assert gauss_map(w) == 2
        assert projectively_equal(w.cleared, [[1, 0, -1], [1j, 0, 1j], [0, 2]])

    def test_counterexample(self, counterexample):
        w = counterexample.data
        assert gauss_map(w) == 3
        assert projectively_equal(
            w.cleared, [[0, 0, 0, 1], [0, 0, 0, -1j], [-2], [2j]]
        )

    def test_plane_constant_map(self, plane):
        w = plane.data
        assert gauss_map(w) == 0
        assert projectively_equal(w.cleared, [[1], [-1j], [0]])


class TestTotalCurvature:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_jorge_meeks_algebraic(self, m):
        w = ms.generalized_jorge_meeks(m).data
        assert gauss_map(w) == 2 * m
        rep = chern_osserman(w)
        assert rep.tc_pi == -4 * m
        assert rep.tc_algebraic == pytest.approx(-4 * m * math.pi)

    def test_catenoid_algebraic(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert rep.tc_pi == -4 and rep.tc_algebraic == pytest.approx(-4 * math.pi)

    def test_plane_zero(self, plane):
        rep = chern_osserman(plane.data)
        assert rep.tc_pi == 0 and rep.tc_algebraic == 0.0

    def test_catenoid_numeric(self, catenoid):
        tc = total_curvature_numeric(catenoid.data)
        assert abs(tc + 4 * math.pi) <= 1e-3 * 4 * math.pi

    def test_plane_numeric(self, plane):
        assert abs(total_curvature_numeric(plane.data)) <= 1e-3

    def test_jorge_meeks_m2_numeric(self, jm2):
        tc = total_curvature_numeric(jm2.data)
        assert abs(tc + 8 * math.pi) <= 1e-3 * 8 * math.pi

    def test_wrong_sign_numeric_refused(self, catenoid, monkeypatch):
        # a Green-identity value of the wrong sign must be refused, not reported
        monkeypatch.setattr(curvature, "total_curvature_numeric",
                            lambda w: 4 * math.pi)
        with pytest.raises(NumericInstabilityError) as err:
            curvature_report(catenoid.data)
        diag = err.value.diagnostics
        assert diag["tc_algebraic"] == pytest.approx(-4 * math.pi)
        assert diag["tc_numeric"] == pytest.approx(4 * math.pi, rel=1e-3)
        assert diag["tc_tol"] == curvature.TC_TOL == 1e-3

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
            rep = curvature_report(w)
            assert rep.tc_pi == -4
            assert abs(rep.tc_numeric + 4 * math.pi) <= 1e-3 * 4 * math.pi


def _close_catenoid(catenoid, p=None):
    """The catenoid with its ends 1e-3 apart at p, by default p = 0.21, the
    second position of the sweep ``np.linspace(0.2, 0.5, 31)``."""
    p = np.linspace(0.2, 0.5, 31)[1] if p is None else p
    return mobius_precompose(catenoid.data, (1, -p, 1, -(p + 1e-3)))


def _mp_circle_flux(phi, center, radius):
    """One circle's Green-identity flux at 40 digits, on the check's own
    ``TC_SAMPLES`` angles: num by its coefficients, den as lead prod (z -
    z_j)^m_j over its ``den_roots``, the function the check evaluates."""
    n = curvature.TC_SAMPLES
    with mpmath.workdps(40):
        parts = [([mpmath.mpc(c) for c in r.num.coeffs[::-1]], mpmath.mpc(r.den.coeffs[-1]),
                  [(mpmath.mpc(z), m) for z, m in r.den_roots]) for r in phi if not r.is_zero]
        total = mpmath.mpf(0)
        for k in range(n):
            e = mpmath.expjpi(mpmath.mpf(2 * k) / n)
            z = mpmath.mpc(center) + radius * e
            num = S = 0
            for coeffs, lead, den_roots in parts:
                v, dv = mpmath.polyval(coeffs, z, derivative=True)
                den = lead * mpmath.fprod((z - r) ** m for r, m in den_roots)
                v, dv = v / den, dv / den - v / den * mpmath.fsum(m / (z - r) for r, m in den_roots)
                num += dv * mpmath.conj(v)
                S += abs(v) ** 2
            total += mpmath.re(e * num / S) * radius
        return float(total * 2 * mpmath.pi / n)


def _horner_circle_flux(phi, center, radius):
    """The same flux with den and den' by Horner's rule on their coefficients."""
    e = np.exp(2j * math.pi * np.arange(curvature.TC_SAMPLES) / curvature.TC_SAMPLES)
    z = center + radius * e
    num = S = 0
    for r in phi:
        v = r.num(z) / r.den(z)
        num = num + (r.num.derivative()(z) - v * r.den.derivative()(z)) / r.den(z) * np.conj(v)
        S = S + np.abs(v) ** 2
    return float(np.mean(np.real(e * num / S) * radius) * 2.0 * math.pi)


def _unscaled_round_fluxes(groups, centers, radii):
    """``_round_fluxes`` without its per-sample scaling: phi_j' conj(phi_j)
    and |phi_j|^2 summed as they are, one component at a time."""
    e = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, curvature.TC_SAMPLES, endpoint=False))
    c = np.asarray(centers, dtype=complex)[:, None]
    rad = np.array(radii, dtype=float)
    t = rad[:, None] * e
    z = c + t
    num = np.zeros_like(z)
    S = np.zeros(z.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lead, den_roots, members in groups:
            den = np.full(z.shape, lead, dtype=complex)
            log_slope = np.zeros_like(z)
            for root, m in den_roots:
                factor = t + (c - root)
                den *= factor**m
                log_slope += m / factor
            for n, dn in members:
                v = curvature.horner(z, n) / den
                num += (curvature.horner(z, dn) / den - v * log_slope) * np.conj(v)
                S += np.abs(v) ** 2
        vals = np.real(e * num / np.where((S > 1e-280) & (S < np.inf), S, np.nan)) * rad[:, None]
    return np.mean(vals, axis=1) * 2.0 * math.pi


def _round_circles(w):
    """The one round's circles as stated: ``TC_RADIUS`` times the minimum
    separation about each finite puncture, and 1 + max |p| over
    ``TC_RADIUS`` about 0."""
    fin = w.finite_punctures
    rho = 1.0 + max((abs(p) for p in fin), default=0.0)
    return [*fin, 0j], [curvature.TC_RADIUS * w.min_separation] * len(fin) \
        + [rho / curvature.TC_RADIUS]


def _recorded_rounds(monkeypatch):
    """Wrap ``_round_fluxes``; returns the list its (fluxes, centers, radii) go to."""
    calls = []
    real_round = curvature._round_fluxes

    def recording_round(groups, centers, radii):
        out = real_round(groups, centers, radii)
        calls.append((out, list(centers), list(radii)))
        return out

    monkeypatch.setattr(curvature, "_round_fluxes", recording_round)
    return calls


class TestStackedRounds:
    """The one round of the Green-identity check evaluates its circles in one
    stacked call, each numerator once and each denominator from its roots;
    its fluxes are the per-circle ones."""

    def test_rounds_match_per_circle_reference(self, jm2, catenoid, monkeypatch):
        # against a 40-digit evaluation of the same num/den, on the one round
        # the check takes: JM m = 3, a JM m = 2 chart, and the catenoid with
        # ends 1e-3 apart, where Horner's rule on den's coefficients is off by
        # more than 0.1 (it loses the double roots)
        from conftest import well_conditioned_mobius

        chart = mobius_precompose(jm2.data,
                                  well_conditioned_mobius(jm2.data, np.random.default_rng(5)))
        assert len(chart.finite_punctures) >= 2
        calls = _recorded_rounds(monkeypatch)
        horner_worst = 0.0
        for name, w in (("generalized-jorge-meeks-m3", ms.generalized_jorge_meeks(3).data),
                        ("jm2-chart", chart), ("close-catenoid", _close_catenoid(catenoid))):
            calls.clear()
            total_curvature_numeric(w)
            ((flux, centers, radii),) = calls
            assert (centers, radii) == _round_circles(w), name
            for c, r, f in zip(centers, radii, flux):
                ref = _mp_circle_flux(w.phi, c, r)
                assert abs(f - ref) <= 1e-13 * max(1.0, abs(ref)), (name, c)
                if name == "close-catenoid":
                    horner_worst = max(horner_worst,
                                       abs(_horner_circle_flux(w.phi, c, r) - ref))
        assert horner_worst > 0.1

    def test_only_the_circle_through_a_zero_of_s_has_no_flux(self, enneper):
        # Enneper times (z - 1)^2: a branch point at z = 1, where every
        # component vanishes exactly; the theta = 0 sample of the unit circle
        # about 0 is exactly 1, so that circle's flux is NaN, with no warning,
        # and the other two are the ones they have alone
        square = ms.ComplexPoly([1.0, -2.0, 1.0])
        phi = [ms.RationalMap(r.num * square, r.den) for r in enneper.data.phi]
        groups = curvature._flux_groups(ms.WeierstrassData(phi))
        assert len(groups) == 1
        centers, radii = [0j, 0j, 2 + 0j], [1.0, 0.5, 0.3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux = curvature._round_fluxes(groups, centers, radii)
        assert math.isnan(flux[0])
        for f, c, r in zip(flux[1:], centers[1:], radii[1:]):
            assert abs(f - _mp_circle_flux(phi, c, r)) <= 1e-10 * max(1.0, abs(f))

    def test_a_circle_left_on_a_zero_of_s_has_no_flux(self, enneper):
        # a circle of radius 0 about the branch point z = 1 is the zero of S:
        # its flux is NaN, left to the caller, with no error and no warning;
        # the other circle's is the one it has alone
        square = ms.ComplexPoly([1.0, -2.0, 1.0])
        groups = curvature._flux_groups(ms.WeierstrassData(
            [ms.RationalMap(r.num * square, r.den) for r in enneper.data.phi]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux = curvature._round_fluxes(groups, [1 + 0j, 0j], [0.0, 0.5])
        assert math.isnan(flux[0])
        assert flux[1] == curvature._round_fluxes(groups, [0j], [0.5])[0]

    @pytest.mark.parametrize("m", [3, 6])
    def test_evaluations_per_denominator_and_component(self, m, monkeypatch):
        w = ms.generalized_jorge_meeks(m).data
        # the datum's unit is read off its Laurent table, whose orders test
        # the numerators at the ends; build it first, so that only the
        # witness's own evaluations are counted
        w.unit
        shapes = []
        real_horner = curvature.horner

        def counting_horner(z, coeffs):
            shapes.append(np.shape(z))
            return real_horner(z, coeffs)

        calls = _recorded_rounds(monkeypatch)
        monkeypatch.setattr(curvature, "horner", counting_horner)
        total_curvature_numeric(w)
        # num and num' once per component, in the one call, on the stacked
        # circles about the m + 1 finite ends and the outer one; the
        # denominators are products over their roots, with no polynomial
        # evaluation
        comps = [r for r in w.phi if not r.is_zero]
        assert len({r.den.coeffs.tobytes() for r in comps}) < len(comps)
        assert len(calls) == 1
        assert len(shapes) == 2 * len(comps)
        assert set(shapes) == {(m + 2, curvature.TC_SAMPLES)}

    @pytest.mark.parametrize("family", ["catalog", "charts"])
    def test_sample_scaling_is_bitwise_invisible(self, family):
        # each sample's phi_j and phi_j' are divided by a power of two
        # before they are squared and summed: exact, so wherever the
        # unscaled sums stay in the float range the fluxes are theirs
        for w in _sweep(family):
            groups, (centers, radii) = curvature._flux_groups(w), _round_circles(w)
            got = curvature._round_fluxes(groups, centers, radii)
            assert got.tobytes() == _unscaled_round_fluxes(groups, centers, radii).tobytes()

    @pytest.mark.parametrize("s", [2.0**-600, 2.0**-3, 2.0**5, 2.0**600])
    def test_power_of_two_scale_is_bitwise_invisible(self, s, catenoid, monkeypatch):
        # d/dr log lambda is invariant under phi -> s phi and the numerators are
        # brought to order one by a power of two, so the round is bitwise
        # the unscaled one -- also where S itself would under- or overflow
        w = catenoid.data
        scaled = ms.WeierstrassData([ms.RationalMap(r.num * s, r.den) for r in w.phi])
        calls = _recorded_rounds(monkeypatch)
        tc = total_curvature_numeric(w)
        plain = [(f.tolist(), r) for f, _c, r in calls]
        calls.clear()
        assert total_curvature_numeric(scaled) == tc
        assert [(f.tolist(), r) for f, _c, r in calls] == plain


def generalized_enneper(a):
    """Enneper's forms with g = z^a, f = 1: one end, at infinity, of order
    -(2a + 2), with leading coefficients of modulus 1/2 and 1, so unit 1."""
    zeros = [0.0] * (2 * a - 1)
    return ms.WeierstrassData([ms.RationalMap([0.5, *zeros, -0.5]),
                               ms.RationalMap([0.5j, *zeros, 0.5j]),
                               ms.RationalMap([0.0] * a + [1.0])])


def _sweep(family):
    """The data of one family of the one-round sweep."""
    if family == "catalog":
        return [e.data for e in ms.catalog.entries(jm_range=range(1, 7))]
    if family == "charts":
        # the conftest-rule chart sweep: 28 draws per catalog surface
        from conftest import well_conditioned_mobius

        rng = np.random.default_rng(2001)
        return [mobius_precompose(e.data, well_conditioned_mobius(e.data, rng))
                for e in ms.catalog.entries(jm_range=range(1, 7)) for _ in range(28)]
    if family.startswith("close-"):
        gap = float(family[len("close-"):])
        return [mobius_precompose(ms.catenoid().data, (1, -p, 1, -(p + gap)))
                for p in np.linspace(0.2, 0.5, 31)]
    from strategies import null_curve

    rng = np.random.default_rng(11)
    return [null_curve(rng, int(family[-1])).data for _ in range(200)]


class TestOneRound:
    """One round of circles, at radii whose flux errors, quadratic in the
    radius ratios, are far below the comparison's ``TC_TOL``."""

    @pytest.mark.parametrize("family, analysed, refused", [
        ("catalog", 10, 0), ("charts", 277, 3), ("close-1e-2", 31, 0),
        ("close-1e-3", 22, 9), ("null-k2", 198, 2), ("null-k3", 197, 3)])
    def test_within_1e_minus_7_of_minus_two_pi_d(self, family, analysed, refused):
        # the round is within 1e-7 of -2 pi d (relative to max(1, 2 pi |d|))
        # on every datum that analyses; the counts of analysed and refused
        # data are pinned, every refusal coming from validation
        counts = [0, 0]
        for w in _sweep(family):
            rep = ms.run_analysis(w)
            counts[rep.curvature is None] += 1
            if rep.curvature is not None:
                exact = rep.curvature.tc_algebraic
                assert abs(rep.curvature.tc_numeric - exact) <= 1e-7 * max(1.0, abs(exact))
        assert counts == [analysed, refused]

    def test_plane_has_no_inner_circle(self, plane, monkeypatch):
        calls = _recorded_rounds(monkeypatch)
        assert total_curvature_numeric(plane.data) == 0.0
        ((_flux, centers, radii),) = calls
        assert (centers, radii) == ([0j], [1.0 / curvature.TC_RADIUS])

    @pytest.mark.parametrize("circle", [0, 2, 3])
    def test_a_circle_without_a_finite_flux_is_refused(self, jm2, circle, monkeypatch):
        # the error names the circle: of JM m = 2's three finite ends, the
        # first and the last, and the outer circle
        real_round = curvature._round_fluxes

        def one_nan(groups, centers, radii):
            flux = real_round(groups, centers, radii)
            flux[circle] = math.nan
            return flux

        monkeypatch.setattr(curvature, "_round_fluxes", one_nan)
        centers, radii = _round_circles(jm2.data)
        assert len(centers) == 4
        named = re.escape(f"on the circle of radius {radii[circle]:.6g} about {centers[circle]}")
        with pytest.raises(ConvergenceFailureError, match=named):
            total_curvature_numeric(jm2.data)

    def test_outer_circle_at_the_edge_of_the_float_range(self):
        # |phi_1| on the outer circle R = 1e5 is about R^(2a) / 2 for g = z^a,
        # and each sample is scaled by a power of two before it is squared:
        # 5e299 at a = 30, which analyses to d = 60, and 5e309 at a = 31,
        # past the float range, which is refused with the circle named
        rep = ms.run_analysis(generalized_enneper(30))
        assert rep.curvature.d == 60
        assert abs(rep.curvature.tc_numeric + 120 * math.pi) <= 1e-7 * 120 * math.pi
        with pytest.raises(ConvergenceFailureError,
                           match=re.escape("on the circle of radius 100000 about 0j")):
            ms.run_analysis(generalized_enneper(31))


class TestCloseEnds:
    """The catenoid with its ends 1e-3 apart, at 31 positions from 0.2 to
    0.5: double poles whose Horner evaluation loses the digits the witness
    needs."""

    def test_close_catenoid_ends_analyse_to_minus_four_pi(self, catenoid):
        rep = ms.run_analysis(_close_catenoid(catenoid))
        assert rep.curvature.d == 2
        assert abs(rep.curvature.tc_numeric + 4 * math.pi) <= 1e-3 * 4 * math.pi

    def test_sweep_analyses_or_rejects_a_non_real_residue(self, catenoid):
        analysed = 0
        for p in np.linspace(0.2, 0.5, 31):
            rep = ms.run_analysis(_close_catenoid(catenoid, p))
            if rep.curvature is None:
                assert [m for m in rep.validation.messages if "non-real residue" in m], p
            else:
                assert rep.curvature.d == 2, p
                analysed += 1
        assert analysed >= 22

    def test_a_moved_denominator_root_is_refused(self, catenoid, monkeypatch):
        # negative control: the witness reads den_roots, and one of them 1e-3
        # off (the double pole at 0.21 moved to 0.21 + 1e-3 i) gives a value
        # the comparison with -2 pi d refuses
        real_groups = curvature._flux_groups

        def moved(w):
            groups = real_groups(w)
            lead, ((z, m), *rest), members = groups[0]
            groups[0] = (lead, ((z + 1e-3j, m), *rest), members)
            return groups

        monkeypatch.setattr(curvature, "_flux_groups", moved)
        with pytest.raises(NumericInstabilityError):
            ms.run_analysis(_close_catenoid(catenoid))


class TestChernOsserman:
    def test_catenoid_equality(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert (rep.chi, rep.m) == (0, 2)
        assert rep.co_rhs_pi == -4
        assert rep.co_equality

    def test_counterexample_strict(self, counterexample):
        rep = chern_osserman(counterexample.data)
        assert rep.co_rhs_pi == -4
        assert rep.tc_pi == -6
        assert not rep.co_equality

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jorge_meeks_equality(self, m):
        rep = chern_osserman(ms.generalized_jorge_meeks(m).data)
        assert rep.chi == 1 - m and rep.m == m + 1
        assert rep.co_rhs_pi == -4 * m
        assert rep.co_equality

    def test_enneper_strict(self, enneper):
        rep = chern_osserman(enneper.data)
        assert rep.co_rhs_pi == 0
        assert rep.tc_pi < rep.co_rhs_pi

    def test_unlisted_end_disagrees_with_end_orders(self, counterexample):
        # the planar end at infinity is left out of the punctures: d = 3, but
        # the one listed end (k = 3) gives sum_j k_j - 2 - beta = 1
        w = ms.WeierstrassData(counterexample.data.phi, punctures=(0j,))
        with pytest.raises(InternalConsistencyError, match="disagrees with end orders"):
            chern_osserman(w)


def tiny_top_term(name, eps):
    """Enneper with eps z^4 added to the numerator of phi_1, or the catenoid
    with eps z^3: a top coefficient eps times the largest one (0.5 and 1)."""
    if name == "enneper":
        phi = [ms.RationalMap([0.5, 0.0, -0.5, 0.0, eps]), ms.RationalMap([0.5j, 0.0, 0.5j]),
               ms.RationalMap([0.0, 1.0])]
        return ms.WeierstrassData(phi, punctures=(ms.INF,)), 0.5
    phi = [ms.RationalMap([1.0, 0.0, -1.0, eps], [0.0, 0.0, 2.0]),
           ms.RationalMap([1j, 0.0, 1j], [0.0, 0.0, 2.0]), ms.RationalMap([1.0], [0.0, 1.0])]
    return ms.WeierstrassData(phi, punctures=(0j, ms.INF)), 1.0


TINY_TOP_TERMS = [1e-14, 1e-13, 2e-13, 1e-12, 3e-12, 1e-11, 2e-11]


class TestOneVanishingRule:
    """The Gauss-map degree and the end orders read one set of integers: a
    top coefficient is a degree and an order at infinity alike, or neither
    when the trim drops it, so a datum that validates never fails the
    Jorge-Meeks identity with an ``InternalConsistencyError``."""

    @pytest.mark.parametrize("eps", TINY_TOP_TERMS)
    @pytest.mark.parametrize("name", ["enneper", "catenoid"])
    def test_a_tiny_top_term_is_an_order_or_is_trimmed(self, name, eps):
        w, top = tiny_top_term(name, eps)
        trimmed = eps <= ms.rational.TRIM_TOL * top
        assert w.phi[0].num.degree() == (2 if trimmed else 4 if name == "enneper" else 3)
        rep = ms.run_analysis(w)
        assert rep.valid == trimmed
        if trimmed:
            assert rep.curvature.d == 2
        else:
            # the kept term is the end's order: -6 (Enneper) or -3 (catenoid),
            # with the leading vector (eps, 0, 0), which is not null
            assert dict(rep.validation.end_orders)[ms.INF] == (-6 if name == "enneper" else -3)
            assert any("leading Laurent vector not null" in m for m in rep.validation.messages)


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
        rep = chern_osserman(ms.generalized_jorge_meeks(m).data)
        assert rep.gackstatter_applicable
        assert rep.ejiri_equality
        assert (rep.gackstatter_pi, rep.ejiri_pi) == (1 - 3 * m, -4 * m)
        assert rep.tc_pi <= rep.gackstatter_pi

    def test_catenoid(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert rep.gackstatter_pi == -2
        assert rep.tc_pi <= rep.gackstatter_pi

    def test_plane_flagged_not_applicable(self, plane):
        rep = chern_osserman(plane.data)
        assert not rep.gackstatter_applicable
        assert rep.ejiri_pi == 0


class TestCrossCutting:
    def test_report_is_frozen_with_integer_bounds(self, catenoid):
        rep = chern_osserman(catenoid.data)
        assert (rep.gackstatter_pi, rep.ejiri_pi) == (-2, -4)
        with pytest.raises(AttributeError):
            rep.full = False

    def test_all_inequalities_hold_on_catalog(self, all_entries):
        for entry in all_entries:
            rep = chern_osserman(entry.data)
            assert rep.tc_pi <= rep.co_rhs_pi, entry.name
            assert rep.tc_pi <= rep.ejiri_pi, entry.name
            if rep.gackstatter_applicable:
                assert rep.tc_pi <= rep.gackstatter_pi, entry.name

    def test_numeric_matches_algebraic_on_catalog(self, all_entries):
        for entry in all_entries:
            rep = curvature_report(entry.data)
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
            d0 = gauss_map(entry.data)
            mob = well_conditioned_mobius(entry.data, rng)
            assert gauss_map(mobius_precompose(entry.data, mob)) == d0
