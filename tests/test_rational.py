"""Polynomial / rational-map layer: arithmetic, roots, Laurent data, residues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minsurf as ms
from conftest import laurent_coefficient, poly_sum, value
from minsurf.errors import DegenerateInputError, ZeroFunctionError
from minsurf.rational import (
    INF,
    STRUCTURE_TOL,
    ComplexPoly,
    RationalMap,
    _vanishing_order,
    horner,
    is_infinity,
    laurent_expand,
    roots,
    shared_roots,
)


def coeffs(p):
    return p.coeffs.tolist()


def sylvester_resultant(a, b):
    """Independent no-common-root oracle: |det Sylvester| > 0."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    m, n = a.size - 1, b.size - 1
    S = np.zeros((m + n, m + n), dtype=complex)
    for i in range(n):
        S[i, i: i + m + 1] = a[::-1]
    for i in range(m):
        S[n + i, i: i + n + 1] = b[::-1]
    return np.linalg.det(S)


class TestPolyArith:
    def test_difference_of_squares(self):
        out = ComplexPoly([1, 1]) * ComplexPoly([-1, 1])
        assert coeffs(out) == [-1, 0, 1]

    def test_exact_on_integer_coefficients(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.integers(-9, 10, size=5) + 1j * rng.integers(-9, 10, size=5)
            b = rng.integers(-9, 10, size=4) + 1j * rng.integers(-9, 10, size=4)
            pa, pb = ComplexPoly(a), ComplexPoly(b)
            prod = (pa * pb).coeffs
            ref = np.convolve(a, b)
            assert np.array_equal(prod, ref[: prod.size])
            assert np.array_equal((pa * pb).coeffs, (pb * pa).coeffs)


def _normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and \
        np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestInHouseHorner:
    """``horner`` replaces ``numpy.polynomial``'s ``polyval`` in minsurf, so
    it must be bitwise it."""

    def test_horner_is_polyval_bitwise(self):
        from numpy.polynomial.polynomial import polyval

        rng = np.random.default_rng(26)
        special = [0j, -0.0 + 0j, 1e3 * np.exp(0.7j), -1e3 + 0j, complex(np.inf, 0.0),
                   complex(0.0, -np.inf), complex(np.nan, 0.0), complex(np.inf, np.nan)]
        for degree in range(21):
            c = _normal(rng, degree + 1)
            for padded in (c, np.concatenate([c, np.zeros(3, dtype=complex)])):
                grid = _normal(rng, (3, 4)) * 10.0 ** rng.uniform(-3, 3, (3, 4))
                grid.flat[:len(special)] = special
                for z in [complex(grid[0, 1]), *special, 2.5, np.asarray(grid[1, 2]),
                          np.asarray(complex(np.inf, 0.0)), grid]:
                    with np.errstate(invalid="ignore", over="ignore"):
                        assert _same_bits(horner(z, padded), polyval(z, padded)), (degree, z)
        with pytest.raises(IndexError):
            polyval(0.5j, np.zeros(0, dtype=complex))
        with pytest.raises(IndexError):
            horner(0.5j, np.zeros(0, dtype=complex))

    def test_complex_poly_evaluates_by_horner(self):
        rng = np.random.default_rng(27)
        z = _normal(rng, (2, 3))
        p = ComplexPoly(_normal(rng, 7))
        assert _same_bits(p(z), horner(z, p.coeffs))
        assert _same_bits(p(0.25 - 1j), horner(np.asarray(0.25 - 1j), p.coeffs))


def common_factor(base, *others):
    """The common factor of polynomials by the shared-root rule, rooting base."""
    return shared_roots(roots(ComplexPoly(base)), [ComplexPoly(p) for p in others])


class TestGcd:
    """Common factors by ``shared_roots``, whichever polynomial is rooted."""

    def test_linear_factor(self):
        for base, other in (([-1, 0, 1], [-1, 1]), ([-1, 1], [-1, 0, 1])):
            (z, m), = common_factor(base, other)
            assert abs(z - 1) < 1e-12 and m == 1

    def test_power_overlap(self):
        for base, other in (([0, 0, 0, 1], [0, 0, 1]), ([0, 0, 1], [0, 0, 0, 1])):
            (z, m), = common_factor(base, other)
            assert abs(z) < 1e-10 and m == 2

    def test_catenoid_components_coprime(self):
        # cleared catenoid components; oracle: pairwise Sylvester resultants
        comps = [[1, 0, -1], [1j, 0, 1j], [0, 2]]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(sylvester_resultant(comps[i], comps[j])) > 1e-9
        for i in range(3):
            assert common_factor(comps[i], *(c for k, c in enumerate(comps) if k != i)) == []

    def test_both_zero_rejected(self):
        # 0/0 has no reduced form; a zero polynomial shares every root
        with pytest.raises(DegenerateInputError):
            RationalMap(ComplexPoly(), ComplexPoly())
        (z, m), = common_factor([-1, 1], [], [-1, 0, 1])
        assert abs(z - 1) < 1e-12 and m == 1

    @pytest.mark.parametrize("factor, shared", [(0.9, True), (1.1, False)])
    def test_tolerance_edge(self, factor, shared):
        # num = z - delta against den = z (z - 2): num is monic with a_0 =
        # -delta, so at the root 0 its backward error is |num(0)| / max(1,
        # delta) = delta, and the root is shared iff delta <= STRUCTURE_TOL.
        # The cancellation decides the ends too: 0 is one exactly when the
        # map keeps it, [2, inf] at 0.9 and [0, 2, inf] at 1.1
        delta = factor * STRUCTURE_TOL
        r = RationalMap([-delta, 1], [0, -2, 1])
        assert (r.den.degree() == 1) == shared
        assert r.num.degree() == (0 if shared else 1)
        *finite, last = ms.detect_punctures([r])
        assert is_infinity(last)
        assert [round(z.real, 12) for z in finite] == ([2.0] if shared else [0.0, 2.0])
        assert all(z.imag == 0 for z in finite)

    @pytest.mark.parametrize("root", [0.0, 1e-17])
    def test_common_root_at_zero(self, root):
        # the weights max(1, |a_l|) pass a root at 0: the purely relative
        # sum |a_l| |z|^l would need num(0) to be exactly 0
        r = RationalMap([-root, 1], [0, -2, 1])
        assert r.den.degree() == 1 and r.num.degree() == 0
        assert abs(r.den_roots[0][0] - 2) < 1e-12

    def test_close_zeros_are_no_common_factor(self):
        # the catenoid's second component pulled back to ends 3e-4 apart: its
        # numerator has both zeros 3e-4 / sqrt(2) from each double pole, a
        # backward error of 3.6e-8 there, so the degree-4 denominator stays
        w = ms.mobius_precompose(ms.catenoid().data, (1, -0.2, 1, -(0.2 + 3e-4)))
        assert [r.den.degree() for r in w.phi] == [4, 4, 2]
        assert [m for _z, m in w.phi[1].den_roots] == [2, 2]

    def test_rule_does_not_depend_on_the_origin(self):
        # a pole 1e-3 relative from the numerator root 10: |num(10.01)| = 8e5
        # against 1e-10 sum max(1, |a_l|) 10.01^l = 1.1e-2, so it stays
        r = RationalMap([-1e8, 0, 0, 0, 0, 0, 0, 0, 1], [-10.01, 1])
        assert r.den.degree() == 1 and r.num.degree() == 8
        # the close catenoid moved from 0.2 to 10 keeps its poles too
        w = ms.mobius_precompose(ms.catenoid().data, (1, -10, 1, -(10 + 3e-4)))
        assert [r.den.degree() for r in w.phi] == [4, 4, 2]


# Roots |z| <= 4 at least 0.5 apart: lattice points a + bi (|a + bi| <= 3.6)
# jittered by at most 0.25 in each part.
_LATTICE = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4) if abs(complex(a, b)) <= 3.6]
_JITTER = st.floats(-0.25, 0.25)


@st.composite
def separated_roots(draw, count):
    cells = draw(st.lists(st.sampled_from(_LATTICE), min_size=count, max_size=count, unique=True))
    return [c + complex(draw(_JITTER), draw(_JITTER)) for c in cells]


@st.composite
def leading(draw):
    return draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))


@st.composite
def planted_pairs(draw):
    """(num roots, den roots, planted (root, multiplicity) pairs, two leads)."""
    n_num, n_den, n_common = (draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                              draw(st.integers(1, 2)))
    pts = draw(separated_roots(n_num + n_den + n_common))
    mults = draw(st.lists(st.integers(1, 2), min_size=n_common, max_size=n_common))
    common = list(zip(pts[n_num + n_den:], mults))
    return pts[:n_num], pts[n_num:n_num + n_den], common, draw(leading()), draw(leading())


def _from_roots(pts, lead):
    return ComplexPoly.from_roots([(z, 1) for z in pts], lead)


class TestSharedRootReduction:
    """RationalMap construction cancels exactly the planted common factor."""

    @settings(max_examples=150, deadline=None)
    @given(planted_pairs())
    def test_planted_common_factor_cancels(self, case):
        num_pts, den_pts, common, lead_n, lead_d = case
        factor = ComplexPoly.from_roots(common)
        num, den = _from_roots(num_pts, lead_n), _from_roots(den_pts, lead_d)
        r = RationalMap(num * factor, den * factor)
        for got, want in ((r.num, num), (r.den, den)):
            assert got.degree() == want.degree()
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8 * max(1.0, np.max(np.abs(want.coeffs)))
        assert r.den_roots == (tuple(roots(r.den)) if den_pts else ())

    @settings(max_examples=150, deadline=None)
    @given(planted_pairs())
    def test_coprime_pair_unchanged(self, case):
        num_pts, den_pts, common, lead_n, lead_d = case
        num = _from_roots(num_pts + [z for z, _m in common], lead_n)
        den = _from_roots(den_pts, lead_d)
        r = RationalMap(num, den)
        assert r.num.coeffs.tobytes() == num.coeffs.tobytes()
        assert r.den.coeffs.tobytes() == den.coeffs.tobytes()
        assert r.den_roots == (tuple(roots(den)) if den_pts else ())


class TestDenominatorRoots:
    """Construction roots the denominator and cancels until num and den share
    no root, so reading ``den_roots`` afterwards roots nothing."""

    @pytest.mark.parametrize("num, den", [
        ([1.0], [0.0, 1.0]),                      # 1/z
        ([-1.0], [0.0, 0.0, 0.0, 1.0]),           # the counterexample's -1/z^3
        # a planted double common factor (z - 1)^2
        (ComplexPoly.from_roots([(1.0, 2), (-3.0, 1)]).coeffs,
         ComplexPoly.from_roots([(1.0, 2), (2.0, 1), (-0.5j, 1)]).coeffs),
    ], ids=["one-over-z", "counterexample", "planted-double"])
    def test_reading_den_roots_roots_nothing(self, num, den, monkeypatch):
        calls = []
        real = ms.rational.roots
        monkeypatch.setattr(ms.rational, "roots", lambda p: calls.append(p) or real(p))
        r = RationalMap(num, den)
        assert calls
        calls.clear()
        found = r.den_roots
        assert calls == []
        assert found == tuple(real(r.den))
        assert shared_roots(found, [r.num]) == []


class TestRoots:
    def test_quadratic(self):
        out = sorted(roots(ComplexPoly([-1, 0, 1])), key=lambda t: t[0].real)
        assert [m for _, m in out] == [1, 1]
        assert abs(out[0][0] + 1) < 1e-12 and abs(out[1][0] - 1) < 1e-12

    def test_imaginary_pair(self):
        out = sorted(roots(ComplexPoly([1, 0, 1])), key=lambda t: t[0].imag)
        assert abs(out[0][0] + 1j) < 1e-12 and abs(out[1][0] - 1j) < 1e-12

    def test_squared_jorge_meeks_denominator(self):
        # (z^3 - 1)^2: three double roots at the cube roots of unity
        p = ComplexPoly(np.convolve([-1, 0, 0, 1], [-1, 0, 0, 1]))
        out = roots(p)
        assert sorted(m for _, m in out) == [2, 2, 2]
        expected = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        for z, _ in out:
            assert min(abs(z - e) for e in expected) < 1e-10
        for z, _ in out:
            assert abs(p(z)) <= 1e-10 * np.max(np.abs(p.coeffs)) * (1 + abs(z)) ** p.degree()

    def test_multiplicities_sum_to_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.normal(size=7) + 1j * rng.normal(size=7)
            p = ComplexPoly(c)
            assert sum(m for _, m in roots(p)) == p.degree()

    def test_derivative_gcd_detects_multiple_roots(self):
        p = ComplexPoly(np.convolve(np.convolve([-1, 1], [-1, 1]), [2j, 1]))
        multiple = [z for z, m in roots(p) if m > 1]
        (z, m), = shared_roots(roots(p), [p.derivative()])
        assert len(multiple) == 1 and m == 1
        assert abs(z - multiple[0]) < 1e-12 and abs(z - 1) < 1e-8

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            roots(ComplexPoly())
        with pytest.raises(DegenerateInputError):
            roots(ComplexPoly([3.0]))

    @pytest.mark.parametrize("c", [np.inf, complex(0.0, -np.inf), np.nan])
    def test_a_coefficient_that_is_not_finite_is_named(self, c):
        # the trim would read its neighbours as noise, and report a constant
        with pytest.raises(DegenerateInputError, match=r"coefficient of z\^0 is not finite"):
            roots(ComplexPoly([c, 1]))

    @pytest.mark.filterwarnings("error")
    def test_a_subnormal_lead_is_scaled_before_the_monic_division(self):
        # (z^2 - 1)^2 times 2^-1024, a branch-point polynomial of a datum with
        # a denominator coefficient at the top of the float range: numpy
        # divides by the reciprocal of the subnormal lead, which overflows,
        # so the monic coefficients were not finite and it was refused; the
        # exact power-of-two scaling of its parts roots it, with no warning
        lead = 2.0**-1024
        got = roots(ComplexPoly([lead, 0.0, -2.0 * lead, 0.0, lead]))
        assert [m for _z, m in got] == [2, 2]
        assert np.allclose([z for z, _m in got], [-1.0, 1.0], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("j", [-1000, -60, 1, 60, 1000])
    def test_a_power_of_two_scaling_leaves_the_roots_bitwise(self, j):
        # the parts are scaled exactly to a lead in [1/2, 1) before the monic
        # division, so p and 2^j p, all of whose parts are normal, have the
        # same roots to the bit
        rng = np.random.default_rng(7)
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert roots(ComplexPoly(np.ldexp(c.view(float), j).view(complex))) == \
            roots(ComplexPoly(c))

    @pytest.mark.filterwarnings("error")
    def test_a_subnormal_lead_whose_imaginary_part_is_largest_is_scaled(self):
        # i (z^2 + 1) 2^-1070: the lead's only part is imaginary and
        # subnormal; the scaling reads the largest of its parts, and the
        # roots are those of i (z^2 + 1), to the bit, with no warning
        tiny = ComplexPoly(np.array([1j, 0.0, 1j]) * 2.0**-1070)
        got = roots(tiny)
        assert got == roots(ComplexPoly([1j, 0.0, 1j]))
        assert [m for _z, m in got] == [1, 1]
        assert np.allclose(sorted((z for z, _m in got), key=lambda z: z.imag), [-1j, 1j],
                           rtol=0.0, atol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_a_coefficient_past_the_float_range_over_the_lead_is_refused(self):
        # 1.7e308 over a lead of 0.5 would leave the float range in the
        # monic division; relative to it the lead is noise, so the trim
        # leaves a constant, which is refused, with no warning
        with pytest.raises(DegenerateInputError, match="zero/constant polynomial"):
            roots(ComplexPoly([1.7e308, 0.5]))

    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(1.0, -np.inf)])
    def test_a_point_that_is_not_finite_is_no_root(self, z):
        # its residual is not finite, which fails the root test, with no
        # warning; only the zero polynomial vanishes to every order
        assert _vanishing_order(ComplexPoly([1, 1]), z, 5) == 0
        assert _vanishing_order(ComplexPoly([0, 0, 1]), 0j, 5) == 2
        assert _vanishing_order(ComplexPoly(), z, 5) == 5


class TestMultiplicityStructure:
    """``roots`` keeps the structure with the fewest distinct roots whose
    backward error is within ``STRUCTURE_TOL``; of two with the same count,
    the one with the smaller backward error."""

    @staticmethod
    def _two_doubles(delta):
        return ComplexPoly.from_roots([(1.0, 2), (1.0 + delta, 2)])

    @pytest.mark.parametrize("delta, structure", [(1e-7, [4]), (1e-4, [2, 2])])
    def test_flip_with_separation(self, delta, structure):
        # (z - 1)^2 (z - 1 - delta)^2 is one 4-fold root within the flip
        # separation (about 2e-5 here) and two double roots beyond it
        got = roots(self._two_doubles(delta))
        assert [m for _z, m in got] == structure
        if structure == [2, 2]:
            assert abs(got[0][0] - 1) < 1e-11 and abs(got[1][0] - 1 - delta) < 1e-11

    def test_never_three_and_one(self):
        # eigenvalues smeared across both double roots group as 3 + 1 for
        # some separations; (3, 1) then fits too, but (2, 2) fits better
        for delta in np.logspace(-8, -2, 61):
            got = sorted(m for _z, m in roots(self._two_doubles(delta)))
            assert got in ([4], [2, 2]), (delta, got)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda count: st.tuples(
        separated_roots(count),
        st.lists(st.integers(1, 3), min_size=count, max_size=count), leading())))
    def test_planted_structures(self, case):
        # 1-4 distinct roots, |z| <= 4, at least 0.5 apart, multiplicities 1-3
        pts, mults, lead = case
        got = roots(ComplexPoly.from_roots(zip(pts, mults), lead))
        assert len(got) == len(pts)
        for z, m in zip(pts, mults):
            (k,) = [k for w, k in got if abs(w - z) <= 1e-12 * (1 + abs(z))]
            assert k == m


class TestLaurent:
    def test_pure_double_pole(self):
        s = laurent_expand(RationalMap([1], [0, 0, 1]), 0j, depth=3)
        assert s.order == -2
        assert np.allclose(s.coeffs, [1, 0, 0, 0])

    def test_catenoid_component_hand_division(self):
        # (1 - z^2)/(2 z^2) = z^-2/2 - 1/2 by long division
        s = laurent_expand(RationalMap([1, 0, -1], [0, 0, 2]), 0j, depth=2)
        assert s.order == -2
        assert np.allclose(s.coeffs, [0.5, 0, -0.5])

    def test_cubic_at_infinity(self):
        s = laurent_expand(RationalMap([0, 0, 0, 1], [1]), INF, depth=2)
        assert s.order == -3
        assert np.allclose(s.coeffs, [1, 0, 0])

    def test_regular_point(self):
        s = laurent_expand(RationalMap([0, 1], [1, 1]), 1.0 + 0j, depth=4)
        assert s.order == 0
        # z/(1+z) at 1+t: value 1/2, derivative 1/4
        assert abs(s.coeffs[0] - 0.5) < 1e-14
        assert abs(s.coeffs[1] - 0.25) < 1e-14

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            laurent_expand(RationalMap(ComplexPoly()), 0j)

    def test_centre_off_a_simple_pole_is_the_pole(self):
        # 3 / (z - 0.3) asked 1e-9 off its root, within roots_coincide: the
        # expansion is made at the root, with the pole's order and residue
        r = RationalMap([3.0], [-0.3, 1.0])
        ((root, _m),) = r.den_roots
        s = laurent_expand(r, root + 1e-9, depth=2)
        assert (s.center, s.order) == (root, -1)
        assert abs(s.coeffs[0] - 3.0) <= 1e-14
        assert laurent_coefficient(r, root + 1e-9, -1) == laurent_coefficient(r, root, -1)

    def test_centre_off_a_double_pole_is_the_pole(self, jm2):
        # JM m = 2's double pole at 1, asked 1e-7 off, within roots_coincide
        # for a double root: h_0 = i (1 + z^4) / (2 (z^3 - 1)^2) has order -2
        # there, leading coefficient i / 9 (1 + z^4 = 2 over (z^2 + z + 1)^2 = 9)
        # and residue (N' Q - 2 N Q') / Q^3 = 0, N = i (1 + z^4) / 2,
        # Q = z^2 + z + 1
        r = jm2.data.phi[1]
        ((root, mult),) = [(z, m) for z, m in r.den_roots if abs(z - 1.0) < 1e-6]
        assert mult == 2
        for c in (1.0 + 1e-7, 1.0 - 1e-7j):
            s = laurent_expand(r, c, depth=3)
            assert (s.center, s.order) == (root, -2)
            assert s.coeffs.tolist() == laurent_expand(r, root, depth=3).coeffs.tolist()
            assert abs(s.coeffs[0] - 1j / 9.0) < 1e-12
            assert abs(laurent_coefficient(r, c, -1)) < 1e-12

    def test_top_coefficients_are_trimmed_at_construction(self):
        # a polynomial component and a constant numerator are trimmed as a
        # reduced map is, so the order at infinity is deg den - deg num
        poly = RationalMap([0.5, 0.0, -0.5, 0.0, 1e-14])
        assert poly.num.degree() == 2
        assert laurent_expand(poly, INF, 0).order == -2
        const = RationalMap([1.0], [0.0, 1.0, 1e-15])
        assert const.den.degree() == 1
        assert laurent_expand(const, INF, 0).order == 1
        kept = RationalMap([0.5, 0.0, -0.5, 0.0, 1e-12])
        assert kept.num.degree() == 4 and laurent_expand(kept, INF, 0).order == -4

    @pytest.mark.filterwarnings("error")
    def test_a_modulus_past_the_float_range_is_kept(self):
        # |1.7e308 - 1.7e308 i| is past the float range though both parts are
        # finite: the trim keeps it and drops only the leading noise above it;
        # as a denominator's leading coefficient it has no reciprocal, and the
        # map is refused
        big = 1.7e308 - 1.7e308j
        assert ComplexPoly([1.0, big, 1e-300]).trimmed().coeffs.tolist() == [1.0, big]
        with pytest.raises(DegenerateInputError, match="has no reciprocal in the float range"):
            RationalMap([1.0], [1.0, big])

    @pytest.mark.parametrize("num, den", [([np.inf, 1.0], [1.0]), ([np.nan, 1.0], [0.0, 1.0]),
                                          ([1.0], [np.inf, 1.0])])
    def test_a_coefficient_that_is_not_finite_is_refused(self, num, den):
        # relative to it every other coefficient would be trimmed as noise,
        # leaving a zero map or a wrong degree
        with pytest.raises(DegenerateInputError, match="not finite"):
            RationalMap(num, den)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("num, den, refused", [([1e308], [1e-308], True),
                                                   ([1e308, 1.0], [0.0, 0.5], True),
                                                   ([1e308, 1.0], [0.0, 1.0], False)])
    def test_a_numerator_past_the_float_range_over_the_leading_denominator_coefficient(
            self, num, den, refused):
        # the datum's common denominator divides each numerator by its
        # denominator's leading coefficient: 1e308 / 0.5 leaves the float
        # range and is refused here, with no warning; 1e308 / 1 does not
        if refused:
            with pytest.raises(DegenerateInputError, match="leading one is not finite"):
                RationalMap(num, den)
        else:
            assert RationalMap(num, den).num.coeffs[0] == 1e308

    @pytest.mark.filterwarnings("error")
    def test_coefficients_past_the_float_range_are_nan(self):
        # 2^1000 / (z - 1/100) at 0: |s_k| = 2^1000 100^(k+1) leaves the float
        # range at k = 3; the coefficients before are exactly 2^1000 times the
        # unscaled ones, and that one and every later one are NaN
        want = laurent_expand(RationalMap([1.0], [-0.01, 1.0]), 0j, 8).coeffs
        got = laurent_expand(RationalMap([2.0**1000], [-0.01, 1.0]), 0j, 8).coeffs
        assert got[:3].tolist() == (2.0**1000 * want[:3]).tolist()
        assert np.isnan(got[3:]).all() and np.isfinite(want).all()

    def test_truncation_error_scaling(self):
        # the scaled remainder must stay bounded as h -> 0 over 3 decades;
        # depth kept low so truncation stays above the double-precision floor
        rng = np.random.default_rng(5)
        for _ in range(10):
            num = rng.normal(size=4) + 1j * rng.normal(size=4)
            den = rng.normal(size=3) + 1j * rng.normal(size=3)
            r = RationalMap(num, den)
            c = complex(rng.normal(), rng.normal())
            if min(abs(c - z) for z, _ in roots(r.den)) < 0.5:
                continue
            depth = 3
            s = laurent_expand(r, c, depth=depth)
            ratios = []
            for h in (1e-1, 1e-2, 1e-3):
                err = abs(value(r, c + h) - h**s.order * horner(complex(h), s.coeffs))
                ratios.append(err / h ** (s.order + depth + 1))
            assert ratios[-1] <= 10.0 * ratios[0] + 1e-6


def real_residue_rational(rng):
    """r = q + sum over poles p of sum_l c[l-1] (z - p)^-l with real residues
    c[0]: (r, [(p, c), ...]), one to three poles at least 0.5 apart, each of
    order one to three, and q of degree up to 2 (or zero)."""
    while True:
        points = _normal(rng, int(rng.integers(1, 4)))
        if all(abs(a - b) >= 0.5 for i, a in enumerate(points) for b in points[i + 1:]):
            break
    parts = []
    for p in points:
        c = _normal(rng, int(rng.integers(1, 4)))
        c[0] = c[0].real
        parts.append((complex(p), c))
    den = ComplexPoly.from_roots([(p, c.size) for p, c in parts])
    num = ComplexPoly(_normal(rng, int(rng.integers(0, 4)))) * den
    for p, c in parts:
        rest = ComplexPoly.from_roots([(o, d.size) for o, d in parts if o != p])
        for order, cl in enumerate(c, 1):
            num = poly_sum(num, ComplexPoly.from_roots([(p, c.size - order)], cl) * rest)
    return RationalMap(num, den), parts


def closed_form_of(r):
    """The closed form's (antiderivative of q, integrated principal parts) of
    r, taken as a component of a datum, all three of whose components are r."""
    return ms.WeierstrassData([r, r, r])._closed_form.components[0]


class TestPartialFractions:
    """The closed form (``weierstrass._ClosedForm``) takes every principal
    part from the datum's Laurent table, the polynomial part too: it is the
    principal part at infinity."""

    def test_reconstructs_random_rationals(self):
        # Q' plus each pole's residue / (z - p) and the derivative of its
        # integrated principal part is r, and the parts are the planted ones
        rng = np.random.default_rng(61)
        for _ in range(30):
            r, parts = real_residue_rational(rng)
            anti, terms = closed_form_of(r)
            assert len(terms) == len(parts)
            for (p, res, powers), (want_p, c) in zip(terms, sorted(
                    parts, key=lambda pc: (pc[0].real, pc[0].imag))):
                assert abs(p - want_p) <= 1e-8 and abs(res - c[0].real) <= 1e-8
                assert np.allclose(-powers * np.arange(1, powers.size + 1), c[1:], atol=1e-8)
            for z in _normal(rng, 4) * 3:
                val = sum(k * a * z ** (k - 1) for k, a in enumerate(anti) if k) + sum(
                    res / (z - p) - sum((i + 1) * c * (z - p) ** -(i + 2)
                                        for i, c in enumerate(powers))
                    for p, res, powers in terms)
                assert abs(val - value(r, z)) <= 1e-9 * (1 + abs(value(r, z)))

    def test_catenoid_components_by_hand(self):
        # (1 - z^2)/(2 z^2) = -1/2 + (1/2) z^-2: Q = -z/2, and the integrated
        # part -(1/2) z^-1 with no log term; 1/z is log|z| alone
        (anti, terms), _, (anti2, terms2) = ms.catenoid().data._closed_form.components
        assert np.allclose(anti, [0, -0.5])
        (p, res, powers), = terms
        assert abs(p) < 1e-12 and abs(res) < 1e-15 and np.allclose(powers, [-0.5])
        (p, res, powers), = terms2
        assert abs(p) < 1e-12 and res == pytest.approx(1.0)
        assert anti2.size == 0 and powers.size == 0

    def test_one_roots_call(self, monkeypatch):
        # construction roots the denominator; the closed form reads the
        # series at those roots and roots nothing
        calls = []
        real_roots = ms.rational.roots
        monkeypatch.setattr(ms.rational, "roots", lambda p: calls.append(p) or real_roots(p))
        r, parts = real_residue_rational(np.random.default_rng(62))
        assert len(closed_form_of(r)[1]) == len(parts)
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", [ms.catenoid, ms.enneper, ms.holomorphic_counterexample],
                             ids=["catenoid", "enneper", "counterexample"])
    def test_expansions_are_required(self, entry, monkeypatch):
        # no partial-fraction layer is left: every principal part, the
        # polynomial part (infinity's) included, is the trimmed principal
        # columns of the record of one of the table's punctures, and building
        # the closed form expands each nonzero component once per record
        for name in ("partial_fractions", "PartialFractions", "poly_quotient"):
            assert not hasattr(ms.rational, name), name
        assert not hasattr(RationalMap, "derivative") and not hasattr(ms.rational, "residue")
        calls = []
        real = ms.weierstrass.laurent_expand
        monkeypatch.setattr(ms.weierstrass, "laurent_expand",
                            lambda r, c, depth: calls.append((r, c)) or real(r, c, depth))
        w = entry().data
        components = w._closed_form.components
        records = {id(win) for win in w._laurent._windows.values()}
        assert len(calls) == len(records) * sum(not r.is_zero for r in w.phi)
        want = [(np.zeros(0, dtype=complex), []) for _ in components]
        for p in w._laurent.punctures:
            win = w._laurent.window(p)
            for j, row in enumerate(win.C[:, :-win.mu]):
                c = np.trim_zeros(row, "f")[::-1]
                powers = -c[1:] / np.arange(1, c.size)
                if is_infinity(p) and c.size > 1:
                    want[j] = (np.concatenate([[0j], powers]), want[j][1])
                elif not is_infinity(p) and c.size:
                    want[j][1].append((win.centres[j], c[0].real, powers.tobytes()))
        for (anti, terms), (want_anti, want_terms) in zip(components, want):
            assert anti.tobytes() == want_anti.tobytes()
            assert [(p, res, powers.tobytes()) for p, res, powers in terms] == sorted(
                want_terms, key=lambda t: (t[0].real, t[0].imag))


class TestResidue:
    def test_residue_sum_zero_random(self):
        # residues over all poles plus the 1/z-chart residue at infinity, read
        # off the Laurent expansions: -[w^1 coefficient] there
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            num = rng.normal(size=rng.integers(1, 5)) + 1j * rng.normal(size=1)
            den = rng.normal(size=rng.integers(2, 6)) + 1j * rng.normal(size=1)
            r = RationalMap(num, den)
            if r.is_zero or r.den.degree() < 1:
                continue
            total = sum(laurent_coefficient(r, z, -1) for z, _ in roots(r.den))
            total -= laurent_coefficient(r, INF, 1)
            assert abs(total) < 1e-9
            checked += 1
