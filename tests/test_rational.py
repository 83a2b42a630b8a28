"""Polynomial / rational-map layer: arithmetic, roots, Laurent data, residues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf.errors import DegenerateInputError, ZeroFunctionError
from minsurf.rational import (
    INF,
    SHARED_TOL,
    ComplexPoly,
    RationalMap,
    laurent_expand,
    partial_fractions,
    residue,
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

    def test_add_zero_identity(self):
        p = ComplexPoly([2, 0, 3j])
        out = p + ComplexPoly()
        assert coeffs(out) == coeffs(p)

    def test_jorge_meeks_numerator_m2_j0(self):
        # 1 - z^(2m-2j) for m=2, j=0 assembled from monomials
        one = ComplexPoly([1])
        z4 = ComplexPoly([0, 0, 0, 0, 1])
        out = one - z4
        assert coeffs(out) == [1, 0, 0, 0, -1]

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

    @pytest.mark.parametrize("delta, shared", [(0.9 * SHARED_TOL, True),
                                               (1.1 * SHARED_TOL, False)])
    def test_tolerance_edge(self, delta, shared):
        # num = z - delta against den = z (z - 2): the Taylor coefficients of
        # num at 0 are (-delta, 1), so the root 0 is shared iff delta <= SHARED_TOL
        r = RationalMap([-delta, 1], [0, -2, 1])
        assert (r.den.degree() == 1) == shared
        assert r.num.degree() == (0 if shared else 1)


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
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-8 * max(1.0, want.norm())
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
            assert abs(p(z)) <= 1e-10 * p.norm() * (1 + abs(z)) ** p.degree()

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
                err = abs(r(c + h) - s(h))
                ratios.append(err / h ** (s.order + depth + 1))
            assert ratios[-1] <= 10.0 * ratios[0] + 1e-6


class TestPartialFractions:
    def test_reconstructs_random_rationals(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            num = rng.normal(size=rng.integers(1, 7)) + 1j * rng.normal(size=1)
            den = rng.normal(size=rng.integers(2, 6)) + 1j * rng.normal(size=1)
            r = RationalMap(num, den)
            pf = partial_fractions(r)
            for z in rng.normal(size=4) * 3 + 1j * rng.normal(size=4) * 3:
                val = pf.poly(z) + sum(
                    np.polyval(c[::-1], 1 / (z - p)) / (z - p) for p, c in pf.poles
                )
                assert abs(val - r(z)) <= 1e-9 * (1 + abs(r(z)))

    def test_catenoid_components_by_hand(self, catenoid):
        # (1 - z^2)/(2 z^2) = -1/2 + (1/2) z^-2; 1/z has residue 1
        pf = partial_fractions(catenoid.data.phi[0])
        assert np.allclose(pf.poly.coeffs, [-0.5])
        (p, c), = pf.poles
        assert abs(p) < 1e-12 and np.allclose(c, [0, 0.5])
        (p, c), = partial_fractions(catenoid.data.phi[2]).poles
        assert abs(p) < 1e-12 and np.allclose(c, [1])

    def test_one_roots_call(self, monkeypatch):
        # construction roots the denominator; the partial fractions reuse it
        import minsurf.rational as rat

        calls = []
        real_roots = rat.roots
        monkeypatch.setattr(rat, "roots", lambda p: calls.append(p) or real_roots(p))
        r = RationalMap([1, 2, 3, 4, 5, 6], [0, 0, -1, 0, 0, 1])
        assert len(partial_fractions(r).poles) == 4
        assert len(calls) == 1


class TestResidue:
    def test_simple_pole(self):
        assert abs(residue(RationalMap([1], [0, 1]), 0j) - 1) < 1e-14

    def test_double_pole_no_residue(self):
        assert abs(residue(RationalMap([1], [0, 0, 1]), 0j)) < 1e-14

    def test_catenoid_third_component(self):
        s = laurent_expand(RationalMap([1], [0, 1]), 0j, depth=1)
        assert s.order == -1 and abs(s.coeffs[0] - 1) < 1e-14  # oracle
        assert abs(residue(RationalMap([1], [0, 1]), 0j) - 1) < 1e-14

    def test_regular_point_gives_zero(self):
        assert residue(RationalMap([1], [0, 1]), 2.0 + 0j) == 0

    def test_residue_sum_zero_random(self):
        # residues over all poles plus the 1/z-chart residue at infinity
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            num = rng.normal(size=rng.integers(1, 5)) + 1j * rng.normal(size=1)
            den = rng.normal(size=rng.integers(2, 6)) + 1j * rng.normal(size=1)
            r = RationalMap(num, den)
            if r.is_zero or r.den.degree() < 1:
                continue
            total = sum(residue(r, z) for z, _ in roots(r.den))
            total += residue(r, INF)
            assert abs(total) < 1e-9
            checked += 1
