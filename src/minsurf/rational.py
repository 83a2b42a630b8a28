"""Complex-coefficient polynomials, rational maps, and local Laurent expansions.

Everything downstream (Weierstrass validation, end analysis, curvature) reduces
to arithmetic on small-degree complex polynomials: products, roots with their
multiplicity structure, common factors, and sharp-order Laurent expansions of
rational functions at finite centers and at infinity (w = 1/z chart).

Each polynomial whose roots are needed is rooted once, by one factorization
(``roots``, after Zeng, Math. Comp. 74, 2005): the multiplicity structure is
chosen by its backward error and its roots are refined jointly.  Whether z is
a root of p is decided by one rule, a backward error within
``STRUCTURE_TOL``: ``roots`` accepts a structure by it, and common factors
(``shared_roots``, after the approximate GCD of Zeng and Dayton, ISSAC 2004)
keep a root of one polynomial where the others and their derivatives pass
it, never by rooting them too.  A rational map trims its numerator and
denominator once, and at construction roots its denominator and cancels the
numerator at the roots they share until they share none; the roots it keeps
(``RationalMap.den_roots``) are each a pole of the map, and the only
description of the denominator that a finite Laurent expansion reads.  So
every Laurent order is one of these integers: a multiplicity among the
denominator roots, an order of vanishing of the numerator, or a difference
of trimmed degrees at infinity.  The expansions at the denominator roots
and at infinity hold every principal part of the map, its polynomial part
too (infinity's), so no partial-fraction split is made here: a datum's
closed-form immersion reads them off its Laurent table.

Coefficients are double-precision complex pairs, ascending powers.
Multiplication is an exact floating-point operation (bitwise reproducible
for integer-valued inputs); tolerances enter only through the module
constants below.  Polynomials are evaluated by one Horner
(``horner``), in the operations of ``numpy.polynomial``'s ``polyval``, so
bitwise its value without its generic wrapper; minsurf imports no
``numpy.polynomial``.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, ZeroFunctionError

__all__ = [
    "INF",
    "is_infinity",
    "roots_coincide",
    "ComplexPoly",
    "RationalMap",
    "LaurentSeries",
    "roots",
    "shared_roots",
    "horner",
    "laurent_expand",
]

# Shared tolerance constants.  CLUSTER_RADIUS is the radius (scaled by
# 1 + |root|) within which two roots are one point (``roots_coincide``);
# STRUCTURE_TOL is the backward error up to which z is a root of p: of a
# multiplicity structure (``roots``), of a common factor and of a Laurent
# order (``_vanishing_order``); TRIM_TOL is the relative size below which a
# leading coefficient is noise (``trimmed``), so it decides every degree, and
# with it every order at infinity.
CLUSTER_RADIUS = 1e-8
STRUCTURE_TOL = 1e-10
TRIM_TOL = 1e-13


class _Infinity:
    """The point at infinity on the Riemann sphere (w = 1/z chart)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()


def is_infinity(p) -> bool:
    return isinstance(p, _Infinity)


def horner(z, coeffs: np.ndarray):
    """The polynomial with ascending ``coeffs`` (1-D, nonempty) at z, by
    Horner's rule in the operations of ``numpy.polynomial``'s ``polyval``:
    ``coeffs[-1] + z*0``, then ``c + acc*z`` down to the constant.  So it is
    bitwise that value, z*0 making a non-finite z give NaN, without the
    generic wrapper's cost: the steps update one array in place (addition
    commutes bitwise) and add the coefficients as Python numbers, which
    convert to the same doubles.  Empty ``coeffs`` raise ``IndexError`` as
    there.
    """
    acc = coeffs[-1] + z * 0
    for c in coeffs[-2::-1].tolist():
        acc *= z
        acc += c
    return acc


class ComplexPoly:
    """Polynomial with complex coefficients, ascending powers.

    The zero polynomial is the empty coefficient list.  Construction strips
    exactly-zero leading coefficients only, so integer-coefficient arithmetic
    stays bitwise exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            self.coeffs = np.zeros(0, dtype=complex)
        else:
            self.coeffs = np.array(c[: nz[-1] + 1], dtype=complex)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.coeffs.size - 1

    def __call__(self, z):
        if self.is_zero:
            z = np.asarray(z)
            return np.zeros(z.shape, dtype=complex) if z.ndim else 0j
        return horner(np.asarray(z, dtype=complex), self.coeffs)

    def __repr__(self):
        return f"ComplexPoly({self.coeffs.tolist()!r})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexPoly(self.coeffs * other)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return ComplexPoly()
        return ComplexPoly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "ComplexPoly":
        if self.coeffs.size <= 1:
            return ComplexPoly()
        k = np.arange(1, self.coeffs.size)
        return ComplexPoly(self.coeffs[1:] * k)

    def shift(self, c: complex) -> "ComplexPoly":
        """Taylor coefficients of p(c + t): repeated synthetic division; one
        past the float range is inf or NaN, where ``laurent_expand`` stops."""
        if self.is_zero:
            return ComplexPoly()
        work = list(self.coeffs[::-1])  # descending
        taylor = []
        with np.errstate(over="ignore", invalid="ignore"):
            while work:
                q = [work[0]]
                for a in work[1:]:
                    q.append(a + c * q[-1])
                taylor.append(q[-1])
                work = q[:-1]
        return ComplexPoly(taylor)

    def deflate(self, root: complex, mult: int = 1) -> "ComplexPoly":
        """Divide by (z - root)^mult via synthetic division, dropping remainders.

        Forward division is stable for |root| <= 1; otherwise the reversed
        polynomial is divided at 1/root (backward deflation), which avoids
        the ~|root|^degree error growth of the forward recurrence.
        """
        if abs(root) <= 1.0:
            work = list(self.coeffs[::-1])
            for _ in range(mult):
                if len(work) <= 1:
                    return ComplexPoly()
                q = [work[0]]
                for a in work[1:-1]:
                    q.append(a + root * q[-1])
                work = q
            return ComplexPoly(work[::-1])
        s = 1.0 / root
        work = list(self.coeffs)  # ascending = descending of the reversal
        for _ in range(mult):
            if len(work) <= 1:
                return ComplexPoly()
            q = [work[0]]
            for a in work[1:-1]:
                q.append(a + s * q[-1])
            work = [x / (-root) for x in q]
        return ComplexPoly(work)

    def trimmed(self) -> "ComplexPoly":
        """Strip leading coefficients below ``TRIM_TOL`` times the largest
        modulus (noise control).

        The moduli are compared after an exact scaling of every real and
        imaginary part by the power of two that brings the largest of them
        below 1, so none overflows; the parts are scaled one by one
        (``np.ldexp``), as the factor itself is past the float range when
        the coefficients are subnormal.
        """
        if self.is_zero:
            return self
        parts = self.coeffs.view(float)
        exponent = -math.frexp(float(np.max(np.abs(parts))))[1]
        mags = np.abs(np.ldexp(parts, exponent).view(complex))
        keep = np.nonzero(mags > TRIM_TOL * np.max(mags))[0]
        if keep.size == 0:
            return ComplexPoly()
        return ComplexPoly(self.coeffs[: keep[-1] + 1])

    @staticmethod
    def from_roots(root_mults, lead: complex = 1.0) -> "ComplexPoly":
        """lead * prod (z - r)^m for (r, m) pairs; empty product gives lead."""
        c = np.array([lead], dtype=complex)
        for r, m in root_mults:
            for _ in range(int(m)):
                c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return ComplexPoly(c)


def _as_poly(p) -> ComplexPoly:
    return p if isinstance(p, ComplexPoly) else ComplexPoly(p)


def _linkage_levels(raw: np.ndarray):
    """Single-linkage partitions of the eigenvalues ``raw``, coarse to fine, as
    lists of index tuples: pairs are merged in order of distance unless the
    merged cluster would reach farther than 0.1 (1 + |centroid|) from its
    centroid."""
    parts = [(i,) for i in range(raw.size)]
    levels = [parts]
    gap = np.abs(raw[:, None] - raw)
    # a cluster holding two points D apart reaches D/2 from its centroid
    i, j = np.nonzero(np.triu(gap <= 0.2 * (1.0 + np.abs(raw).max()), 1))
    for k in np.argsort(gap[i, j], kind="stable"):
        a, b = (next(p for p in parts if x in p) for x in (i[k], j[k]))
        if a is b:
            continue
        pts = raw[list(a + b)]
        c = pts.mean()
        if np.abs(pts - c).max() > 0.1 * (1.0 + abs(c)):
            continue
        parts = [p for p in parts if p is not a and p is not b] + [a + b]
        levels.append(parts)
    return levels[::-1]


def _refine(a: np.ndarray, z: np.ndarray, m: np.ndarray):
    """Gauss-Newton for the roots z, multiplicities m, of the monic polynomial
    whose lower coefficients are ``a`` (ascending): the residual of
    prod (x - z_j)^m_j against ``a`` is weighted by min(1, 1/|a_k|).  Returns
    (backward error, roots, m): the weighted residual's 2-norm, at the
    iterate where it stopped decreasing or the step fell to rounding level."""
    n, k = a.size, z.size
    weight = 1.0 / np.maximum(1.0, np.abs(a))
    rep = np.repeat(np.arange(k), m)
    # row j: the root list less one copy of z_j
    drop = np.searchsorted(rep, np.arange(k))
    others = np.broadcast_to(rep, (k, n))[np.arange(n) != drop[:, None]].reshape(k, n - 1)
    best = (np.inf, z, m)
    for _ in range(50):
        roots_less = z[others]
        q = np.zeros((k, n), dtype=complex)
        q[:, 0] = 1.0
        for s in range(n - 1):
            q[:, 1:] = q[:, :-1] - roots_less[:, s, None] * q[:, 1:]
            q[:, 0] *= -roots_less[:, s]
        res = weight * (np.append(0.0, q[0, :-1]) - z[0] * q[0] - a)
        err = float(np.linalg.norm(res))
        if not (err < best[0] and np.isfinite(q).all()):
            break
        best = (err, z, m)
        step = np.linalg.lstsq(weight[:, None] * (-m[None, :] * q.T), res, rcond=None)[0]
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            break
        z = z - step
    return best


def roots(p: ComplexPoly):
    """All complex roots with multiplicities: the multiplicity structure with
    the fewest distinct roots whose backward error is within ``STRUCTURE_TOL``.

    Candidate structures are the single-linkage levels of the
    companion-matrix eigenvalues (``_linkage_levels``), coarse to fine; each
    is refined jointly by Gauss-Newton on its monic coefficients
    (``_refine``).  At each level the structures one unit of multiplicity
    away between two close roots are refined too, and of the structures with
    the same count the one with the smallest backward error is kept.  When
    none is within the tolerance, the smallest backward error wins.
    Multiplicities sum to the degree; roots are sorted by real, then
    imaginary part.  A non-finite coefficient is refused: the trim would
    read its neighbours as noise.  Before the monic division every real and
    imaginary part is scaled (``np.ldexp``) by the power of two that brings
    the leading coefficient's largest part into [1/2, 1), as numpy's complex
    division of a subnormal lead would overflow its reciprocal; the scaling
    is exact, and leaves the monic coefficients bitwise, wherever they are
    normal.
    After the trim no coefficient exceeds 1/``TRIM_TOL`` times the lead, so
    the monic coefficients and the companion matrix are finite.
    """
    p = _as_poly(p)
    if not np.isfinite(p.coeffs).all():
        k = int(np.argmin(np.isfinite(p.coeffs)))
        raise DegenerateInputError(f"roots undefined: the coefficient of z^{k} is not finite")
    p = p.trimmed()
    if p.is_zero or p.degree() == 0:
        raise DegenerateInputError("roots undefined for zero/constant polynomial")
    lead = p.coeffs[-1]
    exponent = -math.frexp(max(abs(lead.real), abs(lead.imag)))[1]
    coeffs = np.ldexp(p.coeffs.view(float), exponent).view(complex)
    a = coeffs[:-1] / coeffs[-1]
    raw = np.roots(coeffs[::-1])
    fits = []
    for parts in _linkage_levels(raw):
        fit = _refine(a, np.array([raw[list(c)].mean() for c in parts]),
                      np.array([len(c) for c in parts]))
        # eigenvalues smeared across close multiple roots can be grouped
        # wrongly: also move one unit of multiplicity between two close roots
        _err, z, m = fit
        unit = np.eye(z.size, dtype=int)
        close = np.abs(z[:, None] - z) <= 0.2 * (1.0 + np.abs(z[:, None]))
        err, z, m = min([fit] + [_refine(a, z, m - unit[i] + unit[j]) for i, j in
                                 zip(*np.nonzero(close & (m[:, None] > 1) & (unit == 0)))],
                        key=lambda c: c[0])
        if err <= STRUCTURE_TOL:
            break
        fits.append((err, z, m))
    else:
        err, z, m = min(fits, key=lambda c: c[0])
    return sorted(((complex(x), int(k)) for x, k in zip(z, m)),
                  key=lambda t: (t[0].real, t[0].imag))


def roots_coincide(z: complex, m: int, ref: complex, mref: int) -> bool:
    """Whether a root z of multiplicity m is the same point as a root ref of
    multiplicity mref, of the same or another polynomial.

    The distance must be within ``CLUSTER_RADIUS * (1 + |ref|)``.  Roots from
    ``roots`` agree to ~1e-12, but a multiple root moves by ~(eps cond)^(1/m)
    when its coefficients are perturbed, so a match involving one (a listed
    puncture, or another component's root) uses the radius widened to 1e-5.
    This is the one rule by which the denominator roots of a datum are
    merged into poles.
    """
    radius = CLUSTER_RADIUS if max(m, mref) == 1 else 1e-5
    return abs(z - ref) <= radius * (1.0 + abs(ref))


def _vanishing_order(p: ComplexPoly, z: complex, cap: int) -> int:
    """Order to which p vanishes at z, counted up to cap: the number of p, p',
    p'', ... that pass z as a root by the backward error ``roots`` accepts a
    structure by.  With a the lower monic coefficients of p^(i), z passes when
    |p^(i)(z) / lead| <= ``STRUCTURE_TOL`` sum_l max(1, |a_l|) |z|^l: z is a
    root of p^(i) after moving each a_l by at most that relative amount,
    weighted as ``_refine`` weights it (absolutely below 1, so a root at 0
    passes).  A z that is not finite has a NaN residual and passes for no
    root, and numpy warns of none.  The zero polynomial vanishes to every
    order."""
    with np.errstate(invalid="ignore", over="ignore"):
        powers = np.abs(z) ** np.arange(max(p.degree(), 0))
        for k in range(cap):
            if p.is_zero:
                break
            lead = p.coeffs[-1]
            weights = np.maximum(1.0, np.abs(p.coeffs[:-1] / lead))
            if not abs(p(z) / lead) <= STRUCTURE_TOL * np.dot(weights, powers[:weights.size]):
                return k
            p = p.derivative()
    return cap


def shared_roots(base_roots, others):
    """The roots of a base polynomial that every polynomial in ``others``
    shares: each root (z, m) of ``base_roots`` at which every other vanishes,
    with multiplicity min(m, order of vanishing there).

    This is the one rule for common factors: reducing num/den (rooting den)
    and the branch points of a datum (rooting one cleared numerator).  Only
    the base is rooted; the others and their derivatives are tested at its
    roots by their backward error, the rule by which ``roots`` accepts a
    multiplicity structure (``_vanishing_order``).
    """
    out = []
    for z, m in base_roots:
        k = m
        for p in others:
            k = _vanishing_order(p, z, k)
            if not k:
                break
        if k:
            out.append((z, k))
    return out


class RootTable:
    """``roots`` of each distinct polynomial of one datum build, found once.

    The rational maps of one build (a ``.wd`` file, a catalog datum, a Moebius
    chart) share one table, keyed by coefficient bytes: components with one
    denominator root it once, and so do the datum's own later calls
    (``compose_mobius`` rooting a numerator, the branch points rooting a
    cleared one).  ``roots`` is deterministic, so a hit is bitwise the call it
    replaces.  A table lives as long as the maps that hold it.
    """

    __slots__ = ("_found",)

    def __init__(self):
        self._found = {}

    def roots(self, p: ComplexPoly) -> tuple:
        key = p.coeffs.tobytes()
        found = self._found.get(key)
        if found is None:
            found = self._found[key] = tuple(roots(p))
        return found

    def rational_map(self, num, den=(1.0,)) -> "RationalMap":
        """``RationalMap(num, den)``, its denominators rooted by this table."""
        r = RationalMap.__new__(RationalMap)
        r._reduce(_as_poly(num), _as_poly(den), self)
        return r

    def compose_mobius(self, r: "RationalMap", mobius) -> "RationalMap":
        """The 1-form r dz pulled back under T(z) = (a z + b)/(c z + d): the
        reduced rational map r(T) T', rooted by this table.

        The denominator is factored at ``r.den_roots``; the numerator at its
        roots by r's own table.  T' = det / td^2 enters the balance of the td
        powers, so the result is built, and its denominator rooted, once.
        The coefficients are projective: they are divided by the largest
        before the determinant is tested, so any finite multiple is T.  It
        must not be 0 (singular) nor at most 1e-12 (ill-conditioned).
        """
        a, b, c, d = (complex(x) for x in mobius)
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise DegenerateInputError("a Moebius coefficient is not finite")
        top = max(abs(a), abs(b), abs(c), abs(d), 1e-300)
        a, b, c, d = a / top, b / top, c / top, d / top
        det = a * d - b * c
        if abs(det) <= 1e-12:
            why = f"ill-conditioned: normalized determinant {abs(det):.3g} <= 1e-12"
            raise DegenerateInputError(f"Moebius map is {'singular' if det == 0 else why}")
        if r.is_zero:
            return self.rational_map(ComplexPoly())
        td = ComplexPoly([d, c])
        pn, kn = _compose_factored(r.num, a, b, c, d,
                                   r._table.roots(r.num) if r.num.degree() >= 1 else ())
        pd, kd = _compose_factored(r.den, a, b, c, d, r.den_roots)
        # r(T) T' = (Pn / td^kn) / (Pd / td^kd) * det / td^2: balance the td powers.
        pn = pn * det
        for _ in range(kd - kn - 2):
            pn = pn * td
        for _ in range(kn + 2 - kd):
            pd = pd * td
        return self.rational_map(pn, pd)


class RationalMap:
    """Ratio of complex polynomials, kept in reduced form.

    Construction trims ``num`` and ``den`` (``trimmed``), so each degree is
    decided once, then roots ``den`` and cancels ``num`` at the roots it
    shares (``shared_roots``), re-rooting the deflated ``den``, until it shares
    none.  ``den_roots`` are the roots of ``den`` with multiplicities (empty
    for a constant one), found there through the map's ``RootTable``, its own
    or the one of the build it belongs to.  The numerator vanishes at none of
    them, by the rule ``_vanishing_order``, so each is a pole of the map of
    order its multiplicity: this is the one decision of which denominator
    roots are poles, and ``laurent_expand`` reads it without a second test.
    """

    __slots__ = ("num", "den", "den_roots", "_table")

    def __init__(self, num, den=(1.0,)):
        self._reduce(_as_poly(num), _as_poly(den), RootTable())

    def _reduce(self, num: ComplexPoly, den: ComplexPoly, table: RootTable) -> None:
        if den.is_zero:
            raise DegenerateInputError("denominator is the zero polynomial")
        if not (np.isfinite(num.coeffs).all() and np.isfinite(den.coeffs).all()):
            # the trim would read such a coefficient's neighbours as noise
            raise DegenerateInputError("a coefficient is not finite")
        num, den = num.trimmed(), den.trimmed()
        with np.errstate(over="ignore", invalid="ignore"):
            inv = 1.0 / den.coeffs[-1]
            over_lead = num.coeffs * inv
        if inv == 0:
            # complex division by it overflows, and every quotient by it reads 0
            raise DegenerateInputError(
                "the denominator's leading coefficient has no reciprocal in the float range")
        if not np.isfinite(over_lead).all():
            # the datum's common denominator divides by it, and would overflow
            raise DegenerateInputError(
                "a numerator coefficient over the denominator's leading one is not finite")
        if num.is_zero:
            num, den = ComplexPoly(), ComplexPoly([1.0])
        den_roots = table.roots(den) if den.degree() >= 1 else ()
        common = shared_roots(den_roots, [num])
        while common:
            for r, m in common:
                num = num.deflate(r, m)
                den = den.deflate(r, m)
            num, den = num.trimmed(), den.trimmed()
            den_roots = table.roots(den) if den.degree() >= 1 else ()
            common = shared_roots(den_roots, [num])
        self.num = num
        self.den = den
        self.den_roots = den_roots
        self._table = table

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __repr__(self):
        return f"RationalMap({self.num.coeffs.tolist()!r}, {self.den.coeffs.tolist()!r})"

    def degree_at_infinity(self) -> int:
        """deg num - deg den: growth exponent of the function at infinity."""
        return self.num.degree() - self.den.degree()


class LaurentSeries(NamedTuple):
    """Truncated Laurent expansion at a sphere point.

    ``coeffs[k]`` is the coefficient of the local coordinate to the power
    ``order + k``; the local coordinate is (z - center) at finite centers and
    w = 1/z at infinity.  ``coeffs[0]`` is nonzero (the order is sharp).
    """

    center: object
    order: int
    coeffs: np.ndarray


def _series_quotient(at: np.ndarray, bt: np.ndarray, depth: int) -> np.ndarray:
    """The first depth+1 Taylor coefficients at 0 of a/b, from the ascending
    coefficients ``at`` and ``bt`` of a and b, bt[0] != 0.

    The recurrence stops at the first coefficient that leaves the float
    range (deep terms of a datum scaled near the top of it): that one and
    every later one are NaN, never a value.  ``LocalImmersion`` refuses a
    window with a NaN term.
    """
    s = np.full(depth + 1, np.nan, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(depth + 1):
            acc = at[k] if k < at.size else 0j
            for j in range(1, min(k, bt.size - 1) + 1):
                acc -= bt[j] * s[k - j]
            acc = acc / bt[0]
            if not cmath.isfinite(acc):
                break
            s[k] = acc
    return s


def laurent_expand(r: RationalMap, center, depth: int = 8) -> LaurentSeries:
    """Laurent expansion of a rational function at a sphere point.

    The order is decided where the roots are, never read off coefficients.
    A finite centre c within ``roots_coincide`` of a root of ``r.den_roots``
    is that root, and the pole's order is its multiplicity; the
    denominator's Taylor coefficients come from its factors, lead *
    prod (t + c - z_j)^m_j, so the ones below that order are exactly zero.
    There the numerator's order is 0, as the reduction decided
    (``RationalMap``); at any other centre it is the order
    ``_vanishing_order`` gives.  At infinity the expansion is in
    w = 1/z, and its order is deg den - deg num, of the polynomials trimmed
    at construction; it describes function values only, and the 1-form
    Jacobian dz = -dw/w^2 is applied by the caller.
    """
    if r.is_zero:
        raise ZeroFunctionError("Laurent order undefined for the zero function")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if is_infinity(center):
        coeffs = _series_quotient(ComplexPoly(r.num.coeffs[::-1]).coeffs,
                                  ComplexPoly(r.den.coeffs[::-1]).coeffs, depth)
        return LaurentSeries(INF, r.den.degree() - r.num.degree(), coeffs)
    c = complex(center)
    c, pole = next(((z, m) for z, m in r.den_roots if roots_coincide(c, 1, z, m)), (c, 0))
    zero = 0 if pole else _vanishing_order(r.num, c, r.num.degree())
    den = ComplexPoly.from_roots([(z - c, m) for z, m in r.den_roots], r.den.coeffs[-1])
    coeffs = _series_quotient(r.num.shift(c).coeffs[zero:], den.coeffs[pole:], depth)
    return LaurentSeries(c, zero - pole, coeffs)


def _compose_factored(p: ComplexPoly, a, b, c, d, p_roots):
    """p(T) cleared over td^deg(p), built from the root factorization
    ``p_roots`` of p.

    Each root rho of p contributes the exact linear factor
    (a - rho c) z + (b - rho d), so composed multiplicities stay exact --
    monomial-wise expansion of p(T) suffers catastrophic cancellation that
    smears multiple roots far beyond any clustering tolerance.
    """
    k = p.degree()
    acc = ComplexPoly([p.coeffs[-1]])
    if k >= 1:
        for rho, m in p_roots:
            lin = ComplexPoly([b - rho * d, a - rho * c])
            for _ in range(m):
                acc = acc * lin
    return acc, k
