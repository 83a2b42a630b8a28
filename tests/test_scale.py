"""One unit of magnitude per datum.

Scaling every component by s > 0 scales the surface by s, so no verdict or
integer may depend on s.  Every gate reads magnitude from one place,
``WeierstrassData.unit``; scaling by a power of two scales the unit by it
exactly, so the whole report is bitwise the unscaled one apart from the
fields that carry length, which are exactly 2^j times the unscaled ones.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import null_curve, null_curves

import minsurf as ms
from minsurf.ends import LocalImmersion
from minsurf.errors import DegenerateInputError, MinsurfError, NumericInstabilityError
from minsurf.weierstrass import form_coefficient_window, validate

EXPONENTS = (1, -1, 7, 60, -60, 400, -400, 900, -900)
NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")
CATALOG = ms.catalog.entries(jm_range=range(1, 7))


def scaled(w, s):
    return ms.WeierstrassData([ms.RationalMap(r.num * s, r.den) for r in w.phi],
                              punctures=w.punctures, label=w.label)


def report(w):
    """The JSON report as a dict, or the typed refusal."""
    try:
        return json.loads(ms.report_to_json(ms.run_analysis(w)))
    except MinsurfError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def half_unit(text):
    """Half a unit in the last digit of a printed number such as 1.019e-09."""
    mantissa, exponent = text.split("e")
    return 0.5 * 10.0 ** (int(exponent) - len(mantissa.split(".")[1]))


def assert_same_message(got, want, s):
    # a printed number is the unscaled one, or s times it; both are rounded
    # prints of values exactly s apart, so they differ by at most half a unit
    # of the scaled print plus s times half a unit of the unscaled one
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
    for g, u in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert g == u or abs(float(g) - s * float(u)) <= half_unit(g) + s * half_unit(u), \
            (got, want)


def assert_scaled_report(got, want, s):
    """``got`` is ``want`` bitwise, except the length-carrying fields, which
    are exactly s times the unscaled ones."""
    assert ("error" in got) == ("error" in want), (got, want)
    if "error" in want:
        assert got["error"] == want["error"]
        assert_same_message(got["message"], want["message"], s)
        return
    got, want = json.loads(json.dumps(got)), json.loads(json.dumps(want))
    gv, wv = got["validation"], want["validation"]
    assert gv.pop("residue_worst_imag") == s * wv.pop("residue_worst_imag")
    messages = gv.pop("messages"), wv.pop("messages")
    assert len(messages[0]) == len(messages[1])
    for g, u in zip(*messages):
        assert_same_message(g, u, s)
    for ge, we in zip(got.get("ends", []), want.get("ends", [])):
        assert (ge.pop("a"), ge.pop("b")) == (s * we.pop("a"), s * we.pop("b"))
        assert ge.pop("a_minus1") == [s * x for x in we.pop("a_minus1")]
        assert ge.pop("a_minus2") == [[s * x for x in c] for c in we.pop("a_minus2")]
    assert got == want


class TestUnit:
    def test_unit_is_the_binade_of_the_largest_lead(self):
        for entry in CATALOG:
            w = entry.data
            lead = max(float(np.max(np.abs(form_coefficient_window(w, p, 0)[1][:, 0])))
                       for p in w.punctures)
            k = math.frexp(w.unit)[1] - 1
            assert w.unit == 2.0**k and 2.0 ** (k - 1) <= lead < 2.0**k, entry.name
            for j in (-900, 3, 900):
                assert scaled(w, 2.0**j).unit == 2.0**j * w.unit, entry.name

    def test_unit_is_one_without_ends(self, catenoid):
        assert ms.WeierstrassData(catenoid.data.phi, punctures=()).unit == 1.0


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
    def test_catalog_reports_scale_exactly(self, entry):
        want = report(entry.data)
        assert want["validation"]["ok"] and "ends" in want
        for j in EXPONENTS:
            assert_scaled_report(report(scaled(entry.data, 2.0**j)), want, 2.0**j)

    def test_null_curve_reports_scale_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            curve = null_curve(rng)
            w = curve.data
            want = report(w)
            # the draws carry their answer: d and the end orders
            assert want["curvature"]["d"] == curve.d
            assert tuple(sorted(e["mu"] for e in want["ends"])) == curve.orders
            for j in EXPONENTS:
                assert_scaled_report(report(scaled(w, 2.0**j)), want, 2.0**j)

    def test_a_message_rounded_twice(self):
        # hypothesis found this draw: its residue message prints 1.019e-09,
        # and 1.174e+09 at s = 2^60, 6.9e-4 below s * 1.019e-09 relative
        w = null_curve(np.random.default_rng(164)).data
        want, got = report(w), report(scaled(w, 2.0**60))
        assert want["validation"]["messages"] == [
            "non-real residue: worst imaginary part 1.019e-09"]
        assert got["validation"]["messages"] == [
            "non-real residue: worst imaginary part 1.174e+09"]
        assert_scaled_report(got, want, 2.0**60)

    @pytest.mark.filterwarnings("error")
    def test_a_laurent_tail_past_the_float_range(self):
        # hypothesis found this draw: at s = 2^900 the deep coefficients of
        # its Laurent table overflow (they were inf - inf, with
        # RuntimeWarnings); they are NaN now, unread, and the residue
        # refusal is exactly s times the unscaled one
        w = null_curve(np.random.default_rng(249)).data
        want = report(w)
        assert want["validation"]["messages"] == [
            "non-real residue: worst imaginary part 1.966e-09"]
        for j in EXPONENTS:
            assert_scaled_report(report(scaled(w, 2.0**j)), want, 2.0**j)

    @pytest.mark.filterwarnings("error")
    def test_close_ends_past_the_float_range_are_refused(self, catenoid):
        # the catenoid with its ends 0.01 apart: at s = 2^900 its Laurent
        # coefficients at each end leave the float range from t^18 on, whose
        # term bound at the reference radius is still ~1e-14 of the leading
        # one; the local immersion refuses them rather than truncate there
        w = ms.mobius_precompose(catenoid.data, (1, -0.25, 1, -0.26))
        big = scaled(w, 2.0**900)
        want = report(w)
        assert want["validation"]["ok"] and len(want["ends"]) == 2
        assert_scaled_report(report(big), want, 2.0**900)
        for p in w.punctures:
            LocalImmersion(w, p)
            LocalImmersion(scaled(w, 2.0**400), p)
            with pytest.raises(NumericInstabilityError, match="t\\^18 at the end leaves"):
                LocalImmersion(big, p)

    @pytest.mark.parametrize("j", (-900, -500, 0, 500, 900))
    def test_sphere_cuts_at_any_scale(self, catenoid, j):
        # the cuts |f| = R are solved on f / R: |f|^2 underflowed at 2^-900
        # and overflowed at 2^500 and 2^900 ("stalled at residual inf")
        s = 2.0**j
        w = scaled(catenoid.data, s)
        for p in w.punctures:
            assert ms.rotation_index_numeric(w, p, [s * R for R in (1e2, 1e3, 1e4)]) == 1

    @settings(max_examples=15, deadline=None)
    @given(null_curves(), st.sampled_from(EXPONENTS))
    def test_any_null_curve_scales_exactly(self, curve, j):
        assert_scaled_report(report(scaled(curve.data, 2.0**j)), report(curve.data), 2.0**j)


class TestProjectiveMoebius:
    """Moebius coefficients are projective: lambda M is the map M for every
    lambda that keeps the coefficients in the float range."""

    M = (1, 0.25, 0.5, 1.5)

    @staticmethod
    def chart(w):
        return ([(r.num.coeffs.tobytes(), r.den.coeffs.tobytes()) for r in w.phi],
                repr(w.punctures))

    @pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
    def test_scaled_coefficients_give_the_same_chart(self, entry):
        # the determinant is taken of the normalized coefficients, so it
        # neither overflows at 2^600 nor reads as singular at 2^-600
        want = self.chart(ms.mobius_precompose(entry.data, self.M))
        for j in (-600, -520, 0, 520, 600):
            got = ms.mobius_precompose(entry.data, [2.0**j * x for x in self.M])
            assert self.chart(got) == want, j

    @pytest.mark.parametrize("j", (-600, 0, 600))
    def test_a_singular_map_is_refused_at_any_scale(self, catenoid, j):
        with pytest.raises(DegenerateInputError, match="singular"):
            ms.mobius_precompose(catenoid.data, [2.0**j * x for x in (1, 2, 2, 4)])

    @pytest.mark.parametrize("bad", (np.inf, np.nan))
    def test_a_coefficient_that_is_not_finite_is_refused(self, catenoid, bad):
        with pytest.raises(DegenerateInputError, match="not finite"):
            ms.mobius_precompose(catenoid.data, (bad, 0, 0, 1))


class TestDecimalScaling:
    def test_rejections_do_not_grow_with_scale(self):
        # before the unit, the residue rule's absolute floor rejected nearly
        # every draw from 1e6 up, and the null defect was NaN from ~1e160 up
        rng = np.random.default_rng(11)
        draws = [null_curve(rng).data for _ in range(30)]
        counts = {}
        for e in (-150, -20, -3, 0, 3, 6, 10, 20, 150, 160):
            counts[e] = sum(not validate(scaled(w, 10.0**e)).ok for w in draws)
        assert all(abs(c - counts[0]) <= 1 for c in counts.values()), counts
