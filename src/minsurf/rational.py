"""Complex-coefficient polynomials, rational maps, and local Laurent expansions.

Everything downstream (Weierstrass validation, end analysis, curvature) reduces
to arithmetic on small-degree complex polynomials: products, roots with their
multiplicity structure, common factors, and sharp-order Laurent expansions of
rational functions at finite centers and at infinity (w = 1/z chart).

Each polynomial whose roots are needed is rooted once, by one factorization
(``roots``, after Zeng, Math. Comp. 74, 2005): the multiplicity structure is
chosen by its backward error and its roots are refined jointly.  Common
factors are found by one rule, ``shared_roots``: the roots of one polynomial
are kept where the others vanish, tested by their Taylor coefficients there
and never by rooting them too.  A rational map roots its denominator once,
cancels the numerator at those roots and keeps them (``RationalMap.den_roots``);
they are the only description of the denominator that a finite Laurent
expansion reads.

Coefficients are double-precision complex pairs, ascending powers.  Addition,
subtraction and multiplication are exact floating-point operations (bitwise
reproducible for integer-valued inputs); tolerances enter only through the
multiplicity structure, common factors and order detection, which all share
the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

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
    "laurent_expand",
    "PartialFractions",
    "partial_fractions",
    "residue",
    "compose_mobius",
]

# Shared tolerance constants.  CLUSTER_RADIUS is the radius (scaled by
# 1 + |root|) within which two roots are one point (``roots_coincide``);
# STRUCTURE_TOL is the weighted backward error up to which a multiplicity
# structure is accepted (``roots``); SHARED_TOL is the
# relative size below which a Taylor coefficient at a root of another
# polynomial counts as zero (``shared_roots``); ORDER_TOL is the relative
# cutoff deciding that a shifted coefficient is zero when reading off a
# Laurent order.
CLUSTER_RADIUS = 1e-8
STRUCTURE_TOL = 1e-10
SHARED_TOL = 1e-7
ORDER_TOL = 1e-11


class _Infinity:
    """The point at infinity on the Riemann sphere (w = 1/z chart)."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinity()


def is_infinity(p) -> bool:
    return isinstance(p, _Infinity)


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

    def norm(self) -> float:
        """Max coefficient magnitude (0 for the zero polynomial)."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __call__(self, z):
        if self.is_zero:
            z = np.asarray(z)
            return np.zeros(z.shape, dtype=complex) if z.ndim else 0j
        return npoly.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def __repr__(self):
        return f"ComplexPoly({self.coeffs.tolist()!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n, dtype=complex)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return ComplexPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

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
        """Taylor coefficients of p(c + t): repeated synthetic division."""
        if self.is_zero:
            return ComplexPoly()
        work = list(self.coeffs[::-1])  # descending
        taylor = []
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

    def trimmed(self, rel_tol: float = 1e-13) -> "ComplexPoly":
        """Strip leading coefficients below rel_tol * norm (noise control)."""
        if self.is_zero:
            return self
        cutoff = rel_tol * self.norm()
        keep = np.nonzero(np.abs(self.coeffs) > cutoff)[0]
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
    imaginary part.
    """
    p = _as_poly(p).trimmed(1e-12)
    if p.is_zero or p.degree() == 0:
        raise DegenerateInputError("roots undefined for zero/constant polynomial")
    a = p.coeffs[:-1] / p.coeffs[-1]
    raw = np.roots(p.coeffs[::-1])
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


def roots_coincide(z: complex, m: int, ref: complex, mref: int,
                   radius: float = CLUSTER_RADIUS) -> bool:
    """Whether a root z of multiplicity m is the same point as a root ref of
    multiplicity mref, of the same or another polynomial.

    The distance must be within ``radius * (1 + |ref|)``.  Roots from
    ``roots`` agree to ~1e-12, but a multiple root moves by ~(eps cond)^(1/m)
    when its coefficients are perturbed, so a match involving one (a listed
    puncture, or another component's root) uses the radius widened to 1e-5.
    This is the one rule by which the pole table merges the denominator roots
    of a datum into poles.
    """
    tol = radius if max(m, mref) == 1 else max(radius, 1e-5)
    return abs(z - ref) <= tol * (1.0 + abs(ref))


def _vanishing_order(p: ComplexPoly, z: complex, cap: int) -> int:
    """Order to which p vanishes at z, counted up to cap: the number of its
    leading Taylor coefficients at z within ``SHARED_TOL`` of the largest.
    The zero polynomial vanishes to every order."""
    if p.is_zero:
        return cap
    taylor = np.abs(p.shift(z).coeffs)
    small = taylor[:cap] <= SHARED_TOL * taylor.max()
    return int(small.size if small.all() else np.argmin(small))


def shared_roots(base_roots, others):
    """The roots of a base polynomial that every polynomial in ``others``
    shares: each root (z, m) of ``base_roots`` at which every other vanishes,
    with multiplicity min(m, order of vanishing there).

    This is the one rule for common factors: reducing num/den (rooting den)
    and the branch points of a datum (rooting one cleared numerator).  Only
    the base is rooted; the others are tested by their Taylor coefficients at
    its roots, so the regime is that of ``_vanishing_order``.
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


class RationalMap:
    """Ratio of complex polynomials, kept in reduced form.

    Construction roots ``den`` once and cancels ``num`` at the roots it shares
    (``shared_roots``), so poles of ``den`` are genuine poles of the map.
    ``den_roots`` are the roots of ``den`` with multiplicities, found at most
    once: at construction, or on first use when nothing needed reducing or a
    cancellation changed ``den``.
    """

    __slots__ = ("num", "den", "_den_roots")

    def __init__(self, num, den=(1.0,)):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise DegenerateInputError("denominator is the zero polynomial")
        den_roots = None
        if num.is_zero:
            num, den = ComplexPoly(), ComplexPoly([1.0])
        elif num.degree() >= 1 and den.degree() >= 1:
            num, den = num.trimmed(), den.trimmed()
            den_roots = tuple(roots(den)) if den.degree() >= 1 else ()
            common = shared_roots(den_roots, [num])
            for r, m in common:
                num = num.deflate(r, m)
                den = den.deflate(r, m)
            if common:
                num, den, den_roots = num.trimmed(), den.trimmed(), None
        self.num = num
        self.den = den
        self._den_roots = den_roots

    @property
    def den_roots(self) -> tuple:
        """``roots(den)`` as a tuple of (root, multiplicity); empty for a
        constant denominator."""
        if self._den_roots is None:
            self._den_roots = tuple(roots(self.den)) if self.den.degree() >= 1 else ()
        return self._den_roots

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def __repr__(self):
        return f"RationalMap({self.num.coeffs.tolist()!r}, {self.den.coeffs.tolist()!r})"

    def derivative(self) -> "RationalMap":
        n, d = self.num, self.den
        return RationalMap(n.derivative() * d - n * d.derivative(), d * d)

    def __mul__(self, other):
        other = _as_rational(other)
        return RationalMap(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def degree_at_infinity(self) -> int:
        """deg num - deg den: growth exponent of the function at infinity."""
        return self.num.degree() - self.den.degree()


def _as_rational(r) -> RationalMap:
    if isinstance(r, RationalMap):
        return r
    if isinstance(r, ComplexPoly):
        return RationalMap(r)
    return RationalMap(ComplexPoly([complex(r)]))


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Truncated Laurent expansion at a sphere point.

    ``coeffs[k]`` is the coefficient of the local coordinate to the power
    ``order + k``; the local coordinate is (z - center) at finite centers and
    w = 1/z at infinity.  ``coeffs[0]`` is nonzero (the order is sharp).
    """

    center: object
    order: int
    coeffs: np.ndarray = field(repr=False)

    def coefficient(self, exponent: int) -> complex:
        """Coefficient at an exponent, zero outside the stored window."""
        k = exponent - self.order
        if 0 <= k < self.coeffs.size:
            return complex(self.coeffs[k])
        return 0j

    def __call__(self, t):
        """Evaluate the truncated series at local coordinate t (t != 0)."""
        t = np.asarray(t, dtype=complex)
        return t**self.order * npoly.polyval(t, self.coeffs)


def _series_order(coeffs: np.ndarray) -> int:
    mags = np.abs(coeffs)
    top = mags.max()
    idx = np.nonzero(mags > ORDER_TOL * top)[0]
    return int(idx[0])


def _series_quotient(p: ComplexPoly, q: ComplexPoly, depth: int):
    """Order and depth+1 coefficients of p/q as a Laurent series at 0."""
    a = p.coeffs
    b = q.coeffs
    alpha = _series_order(a)
    beta = _series_order(b)
    at = a[alpha:]
    bt = b[beta:]
    s = np.zeros(depth + 1, dtype=complex)
    s[0] = at[0] / bt[0]
    for k in range(1, depth + 1):
        acc = at[k] if k < at.size else 0j
        jmax = min(k, bt.size - 1)
        for j in range(1, jmax + 1):
            acc -= bt[j] * s[k - j]
        s[k] = acc / bt[0]
    return alpha - beta, s


def laurent_expand(r: RationalMap, center, depth: int = 8) -> LaurentSeries:
    """Laurent expansion of a rational function at a sphere point.

    At a finite centre c the denominator's Taylor coefficients come from its
    factors, lead * prod (t + c - z_j)^m_j over ``r.den_roots``, so at one of
    those roots the coefficients below the pole's order are exactly zero and
    the order never rests on rounding noise clearing ``ORDER_TOL``.  That
    holds at the root itself only, so ``weierstrass`` expands each component
    at its own denominator root, from the datum's pole table.  At infinity
    the expansion is in w = 1/z and describes function values only; the
    1-form Jacobian dz = -dw/w^2 is applied by the caller.
    """
    r = _as_rational(r)
    if r.is_zero:
        raise ZeroFunctionError("Laurent order undefined for the zero function")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if is_infinity(center):
        pn = ComplexPoly(r.num.coeffs[::-1])
        pd = ComplexPoly(r.den.coeffs[::-1])
        base = r.den.degree() - r.num.degree()
        rel, coeffs = _series_quotient(pn, pd, depth)
        return LaurentSeries(INF, base + rel, coeffs)
    c = complex(center)
    lead = r.den.coeffs[sum(m for _z, m in r.den_roots)]
    den = ComplexPoly.from_roots([(z - c, m) for z, m in r.den_roots], lead)
    rel, coeffs = _series_quotient(r.num.shift(c), den, depth)
    return LaurentSeries(c, rel, coeffs)


@dataclass(frozen=True, eq=False)
class PartialFractions:
    """r(z) = poly(z) + sum over poles p of sum_l principal[l-1] (z - p)^(-l).

    ``poles`` holds (p, principal) pairs; ``principal[0]`` is the residue.
    """

    poly: ComplexPoly
    poles: tuple


def partial_fractions(r: RationalMap, expansions=None) -> PartialFractions:
    """Polynomial part and principal parts at every finite pole.

    The principal part at each root of ``r.den`` is read off the Laurent
    series of r there: ``expansions``, (root, series) pairs, when the caller
    has them (a datum's Laurent table does), else expanded to depth
    ``deg den`` at ``r.den_roots``.
    """
    r = _as_rational(r)
    if r.is_zero:
        return PartialFractions(ComplexPoly(), ())
    if r.den.degree() < 1:
        return PartialFractions(r.num * (1.0 / r.den.coeffs[0]), ())
    quo, _rem = npoly.polydiv(r.num.coeffs, r.den.coeffs)
    if expansions is None:
        expansions = [(p, laurent_expand(r, p, r.den.degree())) for p, _m in r.den_roots]
    poles = tuple((p, s.coeffs[-s.order - 1::-1].copy()) for p, s in expansions if s.order < 0)
    return PartialFractions(ComplexPoly(quo), poles)


def residue(r: RationalMap, pole) -> complex:
    """Residue of r at a finite point, or of the 1-form r dz at infinity.

    Finite points: the coefficient of (z - pole)^(-1); regular points give 0.
    At infinity the standard 1-form convention in the w = 1/z chart applies:
    res_inf(r dz) = -[w^1 coefficient of r(1/w)].
    """
    r = _as_rational(r)
    if r.is_zero:
        return 0j
    probe = laurent_expand(r, pole, 0)
    if is_infinity(pole):
        target = 1
        if probe.order > target:
            return 0j
        s = laurent_expand(r, pole, target - probe.order)
        return -s.coefficient(target)
    if probe.order > -1:
        return 0j
    s = laurent_expand(r, pole, -1 - probe.order)
    return s.coefficient(-1)


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


def compose_mobius(r: RationalMap, mobius) -> RationalMap:
    """The 1-form r dz pulled back under T(z) = (a z + b)/(c z + d): the
    reduced rational map r(T) T'.

    The denominator is factored at ``r.den_roots``; the numerator is rooted
    here.  T' = det / td^2 enters the balance of the td powers, so the
    result is built, and its denominator rooted, once.
    """
    a, b, c, d = (complex(x) for x in mobius)
    top = max(abs(a), abs(b), abs(c), abs(d), 1e-300)
    if abs(a * d - b * c) <= 1e-12 * top**2:
        raise DegenerateInputError("Moebius map is singular")
    a, b, c, d = a / top, b / top, c / top, d / top
    r = _as_rational(r)
    if r.is_zero:
        return RationalMap(ComplexPoly())
    td = ComplexPoly([d, c])
    pn, kn = _compose_factored(r.num, a, b, c, d, roots(r.num) if r.num.degree() >= 1 else ())
    pd, kd = _compose_factored(r.den, a, b, c, d, r.den_roots)
    # r(T) T' = (Pn / td^kn) / (Pd / td^kd) * det / td^2: balance the td powers.
    pn = pn * (a * d - b * c)
    for _ in range(kd - kn - 2):
        pn = pn * td
    for _ in range(kn + 2 - kd):
        pd = pd * td
    return RationalMap(pn, pd)
