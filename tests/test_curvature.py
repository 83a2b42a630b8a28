"""Gauss map, total curvature, and the three curvature inequalities."""

import dataclasses
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
        assert gauss_map(w).degree == 2 * m
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


def _round_radii(w, i):
    fin = w.finite_punctures
    eps0 = 0.08 * w.min_separation
    r_out0 = 4.0 * (1.0 + max((abs(p) for p in fin), default=0.0))
    return [*fin, 0j], [eps0 * 0.6**i] * len(fin) + [r_out0 / 0.6**i]


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


def _rounds(calls):
    """The rounds of the recorded calls, ``TC_BLOCK`` to a call, as (fluxes, radii)."""
    block = curvature.TC_BLOCK
    return [(f, r) for flux, radii in calls
            for f, r in zip(np.split(flux, block), np.split(radii, block))]


def _counted_tableau_rounds(monkeypatch):
    """Wrap ``_romberg_step``; returns the list that gets one entry a round
    the tableau reads."""
    read = []
    real_step = curvature._romberg_step

    def counting_step(*args):
        read.append(1)
        return real_step(*args)

    monkeypatch.setattr(curvature, "_romberg_step", counting_step)
    return read


def _checked_data(all_entries):
    from conftest import well_conditioned_mobius

    jm2 = next(e for e in all_entries if e.name == "generalized-jorge-meeks-m2").data
    chart = mobius_precompose(jm2, well_conditioned_mobius(jm2, np.random.default_rng(5)))
    assert len(chart.finite_punctures) >= 2
    return [(e.name, e.data) for e in all_entries] + [("jm2-chart", chart)]


class TestStackedRounds:
    """Each block of ``TC_BLOCK`` shrink rounds of the Green-identity check
    evaluates its circles in one stacked call, each numerator once and each denominator
    from its roots; its fluxes are the per-circle ones."""

    def test_rounds_match_per_circle_reference(self, all_entries, catenoid, monkeypatch):
        # against a 40-digit evaluation of the same num/den, on the rounds the
        # check takes (JM m = 3, a JM m = 2 chart) and on rounds 0..10 of the
        # catenoid with ends 1e-3 apart, where Horner's rule on den's
        # coefficients is off by more than 0.1 (it loses the double roots)
        calls = _recorded_rounds(monkeypatch)
        checked = dict(_checked_data(all_entries))
        for name in ("generalized-jorge-meeks-m3", "jm2-chart"):
            w = checked[name]
            calls.clear()
            total_curvature_numeric(w)
            assert all(radii.size == curvature.TC_BLOCK * (len(w.finite_punctures) + 1)
                       for _f, radii in calls)
            for i, (flux, radii) in enumerate(_rounds(calls)):
                centers, radii_ref = _round_radii(w, i)
                assert radii.tolist() == radii_ref, name
                for c, r, f in zip(centers, radii, flux):
                    assert abs(f - _mp_circle_flux(w.phi, c, r)) <= 1e-13 * max(1.0, abs(f)), name
        w = _close_catenoid(catenoid)
        groups = curvature._flux_groups(w)
        horner_worst = 0.0
        for i in range(11):
            centers, radii = _round_radii(w, i)
            flux, used = curvature._round_fluxes(groups, centers, radii)
            for c, r, f in zip(centers, used, flux):
                ref = _mp_circle_flux(w.phi, c, r)
                assert abs(f - ref) <= 1e-11 * abs(ref), (i, c)
                horner_worst = max(horner_worst, abs(_horner_circle_flux(w.phi, c, r) - ref))
        assert horner_worst > 0.1

    def test_only_the_circle_through_a_zero_of_s_has_no_flux(self, enneper):
        # Enneper times (z - 1)^2: a branch point at z = 1, where every
        # component vanishes exactly; the theta = 0 sample of the unit circle
        # about 0 is exactly 1, so that circle's flux is NaN, with no warning,
        # and the other two are the ones they have alone
        square = ms.rational.RationalMap([1.0, -2.0, 1.0])
        phi = [r * square for r in enneper.data.phi]
        groups = curvature._flux_groups(ms.WeierstrassData(phi))
        assert len(groups) == 1
        centers, radii = [0j, 0j, 2 + 0j], [1.0, 0.5, 0.3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux, used = curvature._round_fluxes(groups, centers, radii)
        assert used.tolist() == radii
        assert math.isnan(flux[0])
        for f, c, r in zip(flux[1:], centers[1:], used[1:]):
            assert abs(f - _mp_circle_flux(phi, c, r)) <= 1e-10 * max(1.0, abs(f))

    def test_a_circle_left_on_a_zero_of_s_has_no_flux(self, enneper):
        # a circle of radius 0 about the branch point z = 1 is the zero of S:
        # its flux is NaN, left to the caller, with no error and no warning;
        # the other circle's is the one it has alone
        square = ms.rational.RationalMap([1.0, -2.0, 1.0])
        groups = curvature._flux_groups(ms.WeierstrassData([r * square for r in enneper.data.phi]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flux, used = curvature._round_fluxes(groups, [1 + 0j, 0j], [0.0, 0.5])
        assert math.isnan(flux[0]) and used.tolist() == [0.0, 0.5]
        assert flux[1] == curvature._round_fluxes(groups, [0j], [0.5])[0][0]

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
        # num and num' once per component and call, on the stacked circles of
        # TC_BLOCK rounds about the m + 1 finite ends and the outer one; the
        # denominators are products over their roots, with no polynomial
        # evaluation
        comps = [r for r in w.phi if not r.is_zero]
        assert len({r.den.coeffs.tobytes() for r in comps}) < len(comps)
        assert len(_rounds(calls)) >= 2
        assert len(shapes) == 2 * len(comps) * len(calls)
        assert set(shapes) == {(curvature.TC_BLOCK * (m + 2), curvature.TC_SAMPLES)}

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


def _romberg_stop(tcs):
    """(value, rounds) of the stop rule on the estimates ``tcs``, as stated:
    T_{i,0} = tc_i, T_{i,j} = (T_{i,j-1} - q^j T_{i-1,j-1}) / (1 - q^j) with
    q = 0.36, and T_{i,i} is returned once within 0.2 tol max(1, |T_{i,i}|)
    of T_{i-1,i-1}, tol = TC_TOL = 1e-3.  None if it never is."""
    q, tol = 0.36, 1e-3
    T = {}
    for i, tc in enumerate(tcs):
        T[i, 0] = tc
        for j in range(1, i + 1):
            T[i, j] = (T[i, j - 1] - q**j * T[i - 1, j - 1]) / (1 - q**j)
        if i and abs(T[i, i] - T[i - 1, i - 1]) <= 0.2 * tol * max(1.0, abs(T[i, i])):
            return T[i, i], i + 1
    return None


class TestStopRules:
    """The one stop rule: the diagonal of a Romberg tableau in the error
    ratios 0.36^j of the rounds (the radii shrink by 0.6, and the boundary
    terms are even power series in them)."""

    def test_returns_the_romberg_diagonal_of_the_recorded_rounds(self, all_entries,
                                                                monkeypatch):
        # the rounds are evaluated in blocks of TC_BLOCK, so the rounds past
        # the stop up to the end of its block are evaluated, and not read
        calls = _recorded_rounds(monkeypatch)
        read = _counted_tableau_rounds(monkeypatch)
        for name, w in _checked_data(all_entries):
            calls.clear()
            read.clear()
            tc = total_curvature_numeric(w)
            evaluated = _rounds(calls)
            value, rounds = _romberg_stop([-(f[-1] - sum(f[:-1].tolist())) for f, _r in evaluated])
            assert len(read) == rounds, name
            assert len(evaluated) == rounds + -rounds % curvature.TC_BLOCK, name
            assert abs(tc - value) <= 1e-14 * max(1.0, abs(value)), name
            exact = -2 * math.pi * gauss_map(w).degree
            assert abs(tc - exact) <= 1e-6 * max(1.0, abs(exact)), name

    def _run(self, plane, tcs, monkeypatch):
        """total_curvature_numeric on rounds whose estimates are ``tcs``:
        (value, rounds evaluated, rounds the tableau read)."""
        rounds = []

        def fake_round(groups, centers, radii):
            # TC_BLOCK rounds; the plane has no finite puncture
            assert len(centers) == curvature.TC_BLOCK
            i = len(rounds)
            rounds.extend(radii)
            return -np.array(tcs[i:i + curvature.TC_BLOCK]), np.asarray(radii)

        monkeypatch.setattr(curvature, "_round_fluxes", fake_round)
        read = _counted_tableau_rounds(monkeypatch)
        value = total_curvature_numeric(plane.data)
        return value, len(rounds), len(read)

    def test_geometric_tail_stops_on_the_fourth_round(self, plane, monkeypatch):
        # the first two columns remove c1 q^i and c2 q^2i exactly, so T_{2,2}
        # and T_{3,3} are the limit
        limit = -4 * math.pi
        tcs = [limit + 0.7 * 0.36**i - 0.3 * 0.36 ** (2 * i) for i in range(curvature.TC_ROUNDS)]
        value, evaluated, rounds = self._run(plane, tcs, monkeypatch)
        assert rounds == evaluated == 4
        assert value == _romberg_stop(tcs)[0]
        assert abs(value - limit) <= 1e-14 * abs(limit)

    @pytest.mark.parametrize("tcs", [[10.0 + 0.01 * i for i in range(48)],
                                     [2.0**i for i in range(48)]])
    def test_no_extrapolation_for_q_at_least_one(self, plane, tcs, monkeypatch):
        # q = 1 and q = 2: the diagonal never settles, so nothing is returned
        assert len(tcs) == curvature.TC_ROUNDS and _romberg_stop(tcs) is None
        with pytest.raises(ConvergenceFailureError):
            self._run(plane, tcs, monkeypatch)

    def test_failure_carries_the_last_two_estimates(self, plane, monkeypatch):
        tcs = [2.0**i for i in range(curvature.TC_ROUNDS)]
        with pytest.raises(ConvergenceFailureError) as failure:
            self._run(plane, tcs, monkeypatch)
        assert failure.value.estimates == (tcs[-2], tcs[-1])

    def test_unread_round_past_the_stop_raises_nothing(self, plane, monkeypatch):
        # geometric columns c_j 0.36^(j i): with j columns T_{j,j} and
        # T_{j+1,j+1} are the limit, so the tableau stops on round j + 1; the
        # rest of its block (2, 1 and 3 rounds here) is evaluated with it,
        # has no finite flux and is not read
        limit = -4 * math.pi
        block = curvature.TC_BLOCK
        for columns, read in (((), 2), ((0.7,), 3), ((0.7, -0.3, 0.5), 5)):
            tcs = [limit + sum(c * 0.36 ** ((j + 1) * i) for j, c in enumerate(columns))
                   for i in range(curvature.TC_ROUNDS)]
            assert _romberg_stop(tcs)[1] == read
            unread = range(read, read + -read % block)
            assert 1 <= len(unread) <= block - 1
            for i in unread:
                tcs[i] = math.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value, evaluated, rounds = self._run(plane, tcs, monkeypatch)
            assert (evaluated, rounds) == (read + len(unread), read)
            assert (value, rounds) == _romberg_stop(tcs)
            # a round the tableau reads without a finite flux is refused, and
            # the error names the round and its circle (the plane's outer one)
            for i in (1, read - 1):
                bad = list(tcs)
                bad[i] = math.nan
                circle = re.escape(f"on round {i}'s circle of radius {4.0 / 0.6**i:.6g} about 0j")
                with pytest.raises(ConvergenceFailureError, match=circle):
                    self._run(plane, bad, monkeypatch)

    def test_zero_of_s_past_the_stop_is_not_read(self, monkeypatch):
        # JM m = 1 times (z - z0)^2, z0 where the outer circle of round 3
        # meets the real axis: the tableau stops on round 2, and round 3,
        # evaluated with it in one call, has no flux on its outer circle,
        # which meets the zero of S; it is not read, and the value is that of
        # the rounds taken singly, with no error and no warning
        base = ms.generalized_jorge_meeks(1).data
        z0 = _round_radii(base, 3)[1][-1]
        square = ms.rational.ComplexPoly([z0 * z0, -2 * z0, 1])
        w = ms.WeierstrassData([ms.RationalMap(r.num * square, r.den) for r in base.phi])
        calls = _recorded_rounds(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tc = total_curvature_numeric(w)
        rounds = _rounds(calls)
        assert len(rounds) == 4
        assert [r.tolist() for _f, r in rounds[:3]] == [_round_radii(w, i)[1] for i in range(3)]
        assert rounds[3][1].tolist() == _round_radii(w, 3)[1]
        assert math.isnan(rounds[3][0][-1]) and np.isfinite(rounds[3][0][:-1]).all()
        singly = []
        for i in range(3):
            flux = curvature._round_fluxes(curvature._flux_groups(w), *_round_radii(w, i))[0]
            singly.append(-(flux[-1] - sum(flux[:-1].tolist())))
        assert _romberg_stop(singly) == (tc, 3)

    def test_plane_stops_after_two_rounds(self, plane, monkeypatch):
        # two rounds read, of the one block evaluated
        calls = _recorded_rounds(monkeypatch)
        read = _counted_tableau_rounds(monkeypatch)
        assert total_curvature_numeric(plane.data) == 0.0
        assert len(read) == 2
        assert len(_rounds(calls)) == curvature.TC_BLOCK
        assert len(calls) == 1


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
        with pytest.raises(dataclasses.FrozenInstanceError):
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
            d0 = gauss_map(entry.data).degree
            mob = well_conditioned_mobius(entry.data, rng)
            assert gauss_map(mobius_precompose(entry.data, mob)).degree == d0
