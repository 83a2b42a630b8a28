"""Weierstrass data of genus-zero minimal immersions: validation and evaluation.

A datum is an n-tuple of rational maps phi_j with d f_j = 2 Re(phi_j dz),
together with the puncture set (the ends) on the Riemann sphere.  This module
checks the structural requirements -- the null (conformality) identity
sum phi_j^2 = 0, reality of all residues, and complete finite-total-curvature
end orders mu <= -2 -- and evaluates the immersion.

The immersion is evaluated in closed form, not by path integration.  Split
each component into partial fractions, phi_j = q_j + sum_p sum_l c_{p,l}
(z - p)^(-l); with real residues c_{p,1} (genus zero, closed periods)

    f_j(z) = 2 Re[Q_j(z) + sum_p sum_{l>=2} c_{p,l} (z - p)^(1-l) / (1-l)]
             + 2 sum_p c_{p,1} log|z - p|  + const,    Q_j' = q_j,

the classical explicit form (Osserman, Ann. Math. 80, 1964; Jorge-Meeks,
Topology 22, 1983).  The partial-fraction table is built once per datum.

Every stage that needs the poles -- puncture detection, the common
denominator, the Laurent expansions at the ends, the partial fractions --
reads them from one pole table per datum (``_PoleTable``): each component's
denominator is rooted once, when the component is reduced
(``RationalMap.den_roots``), and the roots of all components are merged into
poles by one rule, ``rational.roots_coincide``; any other point is matched
to its pole once.  Each expansion is made once per datum too
(``_LaurentTable``), and every reader takes a prefix of it; the series of
all forms at a point are gathered once.

A branch point is a zero of every form phi_j dz: the metric vanishes there
and the datum is no immersion, which ``validate`` refuses.  The finite ones
are the common roots of the cleared numerators (``rational.shared_roots`` of
the lowest-degree one against the rest, rooted once by the components'
``rational.RootTable``), by the backward-error rule that also reduces each
component; at infinity, when it is not an end, it is a positive order of
every form there.

``validate`` also reads the null identity at each end: the leading Laurent
vector's ``null_defect`` must be within ``BILINEAR_TOL``, the defect and
tolerance ``ends.analyze_end`` gates the same relation by.  Poles closer than
``roots`` can resolve come back as one, and that end's leading vector misses
nullity by order 1; poles that are resolved but close round their leading
vectors by about (root error) / (separation), which can miss it too.  The
message states the defect, not which of the two it is.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    EvaluationNearSingularityError,
    NonRealResidueError,
)
from .rational import (
    INF,
    ComplexPoly,
    LaurentSeries,
    RationalMap,
    RootTable,
    _finite_orders,
    horner,
    is_infinity,
    laurent_expand,
    partial_fractions,
    roots_coincide,
    shared_roots,
)

__all__ = [
    "WeierstrassData",
    "NullCheck",
    "ResidueCheck",
    "ValidationReport",
    "validate_null",
    "detect_punctures",
    "check_residues_real",
    "metric_order_at",
    "branch_divisor",
    "immersion_eval",
    "immersion_delta",
    "form_residue_vector",
    "common_denominator",
    "mobius_precompose",
]

NULL_TOL = 1e-10        # relative residual for the null identity
BILINEAR_TOL = 1e-9     # |<a,a>| / |a|^2 and |<a_-2, a_-1>| / (|a_-2| (|a_-2| + |a_-1|))
RESIDUE_IMAG_TOL = 1e-10
CLEARANCE_FACTOR = 1e-3  # evaluation clearance = factor * min puncture separation


def _as_rational_tuple(phi):
    out = []
    for r in phi:
        out.append(r if isinstance(r, RationalMap) else RationalMap(r))
    return tuple(out)


class WeierstrassData:
    """Immutable Weierstrass datum: components, punctures, basepoint, label."""

    def __init__(self, phi, punctures=None, basepoint=None, label: str = ""):
        self.phi = _as_rational_tuple(phi)
        self.n = len(self.phi)
        if self.n < 3:
            raise DegenerateInputError("ambient dimension must be at least 3")
        if all(r.is_zero for r in self.phi):
            raise DegenerateInputError("all components are zero")
        if punctures is None:
            self.punctures = self._poles.punctures
        else:
            self.punctures = tuple(INF if is_infinity(p) else complex(p) for p in punctures)
        self.label = str(label)
        self.basepoint = complex(basepoint) if basepoint is not None else self._default_basepoint()
        if any(
            not is_infinity(p) and abs(self.basepoint - p) <= self.clearance
            for p in self.punctures
        ):
            raise DegenerateInputError("basepoint is within clearance of a puncture")

    # -- derived geometry ---------------------------------------------------

    @property
    def finite_punctures(self):
        return tuple(p for p in self.punctures if not is_infinity(p))

    @property
    def min_separation(self) -> float:
        """Min pairwise distance of the finite punctures (1.0 when fewer than two)."""
        fin = self.finite_punctures
        if len(fin) < 2:
            return 1.0
        return min(abs(a - b) for i, a in enumerate(fin) for b in fin[i + 1:])

    @property
    def clearance(self) -> float:
        """Radius around each finite puncture where evaluation is refused."""
        return CLEARANCE_FACTOR * self.min_separation

    @cached_property
    def _laurent(self) -> "_LaurentTable":
        return _LaurentTable(self.phi)

    @cached_property
    def _poles(self) -> "_PoleTable":
        """Built on first use; at construction only when detecting punctures."""
        return _PoleTable(self.phi)

    @cached_property
    def cleared(self):
        """``common_denominator`` of the datum, computed once."""
        return common_denominator(self)

    @cached_property
    def branch_points(self) -> tuple:
        """Finite branch points as (point, order): the common roots of the
        cleared numerators, found once (by the components' ``RootTable``).
        Their orders sum to the degree of the numerators' common factor."""
        nums = [p for p in self.cleared[1] if not p.is_zero]
        base = min(nums, key=lambda p: p.degree())
        if base.degree() < 1:
            return ()
        table = self.phi[0]._table
        return tuple(shared_roots(table.roots(base), [p for p in nums if p is not base]))

    @cached_property
    def _closed_form(self) -> "_ClosedForm":
        return _ClosedForm(self)

    @cached_property
    def _leads(self) -> np.ndarray:
        """The leading Laurent vector a_lead of the form at each listed end,
        one row per puncture."""
        rows = [form_coefficient_window(self, p, 0)[1][:, 0] for p in self.punctures]
        return np.array(rows).reshape(len(rows), self.n)

    @cached_property
    def unit(self) -> float:
        """The one unit of magnitude: 2^k with the largest leading Laurent
        coefficient |a_lead,j| over the ends in [2^(k-1), 2^k); 1.0 without
        ends.  Gates divide by it or compare with it; the data is not rescaled."""
        m = float(np.max(np.abs(self._leads))) if self.punctures else 0.0
        return math.ldexp(1.0, math.frexp(m)[1]) if 0.0 < m < math.inf else 1.0

    def _default_basepoint(self) -> complex:
        fin = self.finite_punctures
        guard = max(10.0 * self.clearance, 1e-6)
        if not fin or min(abs(p) for p in fin) > guard:
            return 0j
        near = min(fin, key=lambda p: (abs(p), p.real, p.imag))
        step = self.min_separation / 2.0
        for k in range(1, 8):
            cand = near + k * step
            if all(abs(cand - p) > guard for p in fin):
                return cand
        raise DegenerateInputError("could not place a default basepoint")

    def validate(self) -> "ValidationReport":
        return validate(self)

    def __repr__(self):
        return f"WeierstrassData(n={self.n}, label={self.label!r}, punctures={self.punctures!r})"


@dataclass(frozen=True)
class NullCheck:
    ok: bool
    defect: float


@dataclass(frozen=True)
class ResidueCheck:
    ok: bool
    worst_imag: float


@dataclass(frozen=True)
class ValidationReport:
    null: NullCheck
    residues: ResidueCheck
    end_orders: tuple  # ((puncture, mu), ...)
    orders_ok: bool
    punctures_ok: bool
    branch_points: tuple  # ((point, order), ...): zeros of the metric
    messages: tuple

    @property
    def ok(self) -> bool:
        """Every check passed: each failed check leaves one message or more,
        and only a failed check leaves one."""
        return not self.messages


class _LaurentTable:
    """The Laurent series of the forms phi_j dz of a datum, each made once.

    ``series(j, centre)`` is ``laurent_expand(phi_j, centre)`` (at infinity in
    w = 1/z, with the Jacobian dz = -dw/w^2), read-only, at the deepest depth
    any reader takes.  The recurrence does not depend on the depth, so a prefix
    is bitwise the expansion at its depth.  ``forms`` keeps the tuple of
    series that ``_form_series`` reads at each sphere point, and
    ``immersions`` is for ``ends``.
    """

    def __init__(self, phi):
        self.phi = phi
        self.depth = max(40, 6 + max(max(r.num.degree(), r.den.degree()) for r in phi))
        self._series = {}
        self.forms = {}
        self.immersions = {}

    def series(self, j: int, centre) -> LaurentSeries:
        key = (j, centre)
        if key not in self._series:
            s = laurent_expand(self.phi[j], centre, self.depth)
            if is_infinity(centre):
                s = LaurentSeries(INF, s.order - 2, -s.coeffs)
            s.coeffs.flags.writeable = False
            self._series[key] = s
        return self._series[key]


def _pole_mult(members) -> int:
    """Order of a pole in the common denominator: its largest component order."""
    return max(m for _root, m in members.values())


class _PoleTable:
    """The poles of the components of a datum, found once.

    Each component's denominator roots are its ``den_roots``, found once
    when it was reduced (empty for zero and polynomial components).  The
    roots of all components are merged into poles by ``roots_coincide``.
    ``poles`` maps each pole, the first root merged into it, to its members
    {j: (root of phi_j there, multiplicity)}, sorted by real then imaginary
    part.  ``punctures`` are the poles where some component has negative
    order (a root cancelled by its numerator up to tolerance is a regular
    point), then infinity when some form has a pole there.  The orders are
    those ``laurent_expand`` gives, read by its own rule
    (``rational._finite_orders``) without expanding a series, so a datum
    expands one only when a reader asks for it.  A point off the table is
    matched to its pole once (``pole_point``).
    """

    def __init__(self, phi):
        poles: dict = {}
        for j, r in enumerate(phi):
            for z, m in r.den_roots:
                point = next((q for q, members in poles.items()
                              if roots_coincide(z, m, q, _pole_mult(members))), None)
                if point is None:
                    poles[z] = {j: (z, m)}
                else:
                    root, have = poles[point].get(j, (z, 0))
                    poles[point][j] = (root, have + m)
        self.poles = dict(sorted(poles.items(), key=lambda it: (it[0].real, it[0].imag)))
        finite = []
        for z, members in self.poles.items():
            orders = [_finite_orders(phi[j], root) for j, (root, _m) in members.items()]
            if min(zero - pole for _c, zero, pole in orders) < 0:
                finite.append(z)
        at_inf = any(r.degree_at_infinity() >= -1 for r in phi if not r.is_zero)
        self.punctures = tuple(finite) + ((INF,) if at_inf else ())
        self._resolved = {}

    def pole_point(self, p):
        """The pole a sphere point lies at (p counts as a simple root), or p itself."""
        if is_infinity(p) or p in self.poles:
            return p
        if p not in self._resolved:
            self._resolved[p] = next((q for q, members in self.poles.items()
                                      if roots_coincide(p, 1, q, _pole_mult(members))), p)
        return self._resolved[p]


def common_denominator(w: "WeierstrassData"):
    """Monic LCM of the denominators and the cleared numerators.

    Returns (D, nums) with phi_j = nums[j] / D exactly (zero components give
    zero numerators).  D has one root per pole of the datum's pole table,
    with the largest multiplicity of any component there.
    """
    poles = w._poles.poles
    mult = {z: _pole_mult(members) for z, members in poles.items()}
    D = ComplexPoly.from_roots(mult.items())
    nums = []
    for j, r in enumerate(w.phi):
        if r.is_zero:
            nums.append(ComplexPoly())
            continue
        missing = [(z, m - poles[z].get(j, (z, 0))[1]) for z, m in mult.items()]
        nums.append(r.num * ComplexPoly.from_roots(missing) * (1.0 / r.den.coeffs[-1]))
    return D, nums


def validate_null(w: WeierstrassData) -> NullCheck:
    """Check the conformality identity sum phi_j^2 = 0 as a rational identity.

    The numerator of the sum over the common denominator must vanish; the
    defect is its max coefficient magnitude relative to the size of the
    individual squared terms.  The numerators are divided by ``w.unit``
    first (exact), so the squares neither overflow nor underflow.  The
    squares are coefficient arrays, summed in component order.
    """
    squares = [np.convolve(c, c) for c in (n.coeffs * (1.0 / w.unit) for n in w.cleared[1])
               if c.size]
    total = np.zeros(max(sq.size for sq in squares), dtype=complex)
    for sq in squares:
        total[:sq.size] += sq
    scale = max(float(np.abs(sq).max()) for sq in squares)
    size = float(np.abs(total).max())
    defect = size / scale if scale > 0.0 else size
    return NullCheck(ok=defect <= NULL_TOL, defect=defect)


def detect_punctures(phi):
    """Poles of the 1-forms phi_j dz, as sphere points.

    Finite poles are the merged denominator roots of the (reduced)
    components where some form has negative order; infinity is included
    when deg num - deg den >= -1 for some component.
    """
    phi = _as_rational_tuple(phi)
    if all(r.is_zero for r in phi):
        raise DegenerateInputError("all components are zero")
    return list(_PoleTable(phi).punctures)


def _form_series(w: WeierstrassData, p):
    """The Laurent table's series of each form phi_j dz at a sphere point: at
    a pole each component at its own root there (from the pole table),
    elsewhere at p; None for a zero component.  One tuple per point, kept
    in the Laurent table's ``forms``."""
    forms = w._laurent.forms
    if p not in forms:
        poles = w._poles
        members = poles.poles.get(poles.pole_point(p), {})
        forms[p] = tuple(None if r.is_zero else w._laurent.series(j, members.get(j, (p, 0))[0])
                         for j, r in enumerate(w.phi))
    return forms[p]


def form_coefficient_window(w: WeierstrassData, p, depth: int = 8):
    """Stacked form coefficients at an end, a prefix of the Laurent table.

    Returns (mu, C) where mu is the metric order (min form order) and C is an
    (n, depth+1) matrix with C[j, k] the coefficient of the local coordinate
    to the power mu + k in the j-th component of the form.
    """
    series = _form_series(w, p)
    mu = min(s.order for s in series if s is not None)
    C = np.zeros((w.n, depth + 1), dtype=complex)
    for j, s in enumerate(series):
        if s is not None and s.order - mu <= depth:
            C[j, s.order - mu:] = s.coeffs[: depth + 1 - (s.order - mu)]
    return mu, C


def metric_order_at(w: WeierstrassData, p) -> int:
    """Metric order mu at a sphere point: min over j of ord(phi_j dz).

    At punctures of valid complete finite-total-curvature data mu <= -2; at a
    regular point the value is nonnegative (a non-end).
    """
    return min(s.order for s in _form_series(w, p) if s is not None)


def form_residue_vector(w: WeierstrassData, p) -> np.ndarray:
    """Residue vector of the 1-form at an end (w-chart convention at infinity)."""
    return np.array([0j if s is None else s.coefficient(-1) for s in _form_series(w, p)])


def _residues_real(residues, unit: float):
    """(ok, worst imaginary part): imaginary parts within ``RESIDUE_IMAG_TOL``
    (unit + max |residue|), ``unit`` the datum's ``WeierstrassData.unit``."""
    res = np.asarray(residues, dtype=complex).ravel()
    if not res.size:
        return True, 0.0
    worst = float(np.max(np.abs(res.imag)))
    return worst <= RESIDUE_IMAG_TOL * (unit + float(np.max(np.abs(res)))), worst


def check_residues_real(w: WeierstrassData) -> ResidueCheck:
    """All residues of the form at all ends must be real (period closing)."""
    ok, worst = _residues_real([form_residue_vector(w, p) for p in w.punctures], w.unit)
    return ResidueCheck(ok=ok, worst_imag=worst)


def null_defect(a: np.ndarray) -> np.ndarray:
    """|<a, a>| / |a|^2 of each vector a along the last axis: the leading-
    nullity defect that ``validate`` and ``ends.analyze_end`` gate by
    ``BILINEAR_TOL``.  A vector whose squares underflow has the defect NaN,
    which fails the gate; numpy warns of none."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.abs(np.sum(a * a, axis=-1)) / np.sum(np.abs(a) ** 2, axis=-1)


def branch_divisor(w: WeierstrassData) -> tuple:
    """Every branch point as (point, order): ``WeierstrassData.branch_points``
    and infinity, when it is not an end but every form vanishes there."""
    # the order of phi_j dz at infinity is deg den - deg num - 2
    at_inf = -2 - max(r.degree_at_infinity() for r in w.phi if not r.is_zero)
    if at_inf > 0 and not any(is_infinity(p) for p in w.punctures):
        return w.branch_points + ((INF, at_inf),)
    return w.branch_points


def validate(w: WeierstrassData) -> ValidationReport:
    """Full structural validation of a datum.

    Besides the null identity, real residues and the end orders, the datum
    must have no branch point (``branch_divisor``), and at each listed end the
    leading Laurent vector a_lead (over ``w.unit``) must be null,
    |<a_lead, a_lead>| <= ``BILINEAR_TOL`` |a_lead|^2: the null identity read
    at the end.  Two poles closer than ``roots`` can resolve come back as
    one, and the leading vector of that end is far from null.
    """
    messages = []
    null = validate_null(w)
    if not null.ok:
        messages.append(f"null identity violated: defect {null.defect:.3e}")
    res = check_residues_real(w)
    if not res.ok:
        messages.append(f"non-real residue: worst imaginary part {res.worst_imag:.3e}")

    # listed punctures are matched to the detected ones through the pole table
    at = [w._poles.pole_point(q) for q in w.punctures]
    punctures_ok = True
    for p in w._poles.punctures:
        if p not in at:
            punctures_ok = False
            messages.append(f"pole at {p!r} is not listed among the punctures")
    for i, p in enumerate(at):
        if p in at[:i]:
            punctures_ok = False
            messages.append(f"punctures {w.punctures[at.index(p)]!r} and "
                            f"{w.punctures[i]!r} coincide")

    end_orders = tuple((p, metric_order_at(w, p)) for p in w.punctures)
    for p, mu in end_orders:
        if mu > -2:
            messages.append(f"end {p!r} has order {mu} > -2: "
                            "not a complete finite-total-curvature end")
    for p, defect in zip(w.punctures, null_defect(w._leads / w.unit)):
        if not defect <= BILINEAR_TOL:
            messages.append(f"end {p!r}: leading Laurent vector not null: "
                            f"|<a_lead, a_lead>| = {defect:.3e} |a_lead|^2")

    branch = branch_divisor(w)
    if branch:
        points = ", ".join(f"{p if is_infinity(p) else format(p, '.6g')} (order {m})"
                           for p, m in branch)
        messages.append(f"branch points {points}: the metric vanishes there, "
                        "so the datum is not an immersion")
    return ValidationReport(
        null=null,
        residues=res,
        end_orders=end_orders,
        orders_ok=all(mu <= -2 for _p, mu in end_orders),
        punctures_ok=punctures_ok,
        branch_points=branch,
        messages=tuple(messages),
    )


class _ClosedForm:
    """Partial-fraction table of a datum: the immersion up to its constant.

    Per component, the coefficients of Q_j (ascending) and, per finite pole,
    (p, real residue, coefficients of t^1, t^2, ... with t = 1/(z - p)) of
    the integrated principal part.
    """

    def __init__(self, w: WeierstrassData):
        components = []
        residues = []
        for j, r in enumerate(w.phi):
            pf = partial_fractions(r, [(p, w._laurent.series(j, p)) for p, _m in r.den_roots])
            q = pf.poly.coeffs
            anti = np.concatenate([[0j], q / np.arange(1, q.size + 1)]) if q.size else q
            terms = []
            for p, c in pf.poles:
                residues.append(c[0])
                terms.append((p, c[0].real, -c[1:] / np.arange(1, c.size)))
            components.append((anti, tuple(terms)))
        ok, worst = _residues_real(residues, w.unit)
        if not ok:
            raise NonRealResidueError(
                f"non-real residue (imaginary part {worst:.3e}): the immersion "
                "has a period and no single-valued closed form"
            )
        self.components = tuple(components)
        self.origin = self.primitive(np.asarray(w.basepoint))

    def primitive(self, z: np.ndarray) -> np.ndarray:
        """The immersion plus a fixed constant at z; shape (n,) + z.shape."""
        out = np.empty((len(self.components),) + z.shape)
        for j, (anti, terms) in enumerate(self.components):
            hol = horner(z, anti) if anti.size else np.zeros(z.shape, dtype=complex)
            logs = np.zeros(z.shape)
            for p, res, powers in terms:
                d = z - p
                if powers.size:
                    t = 1.0 / d
                    hol = hol + t * horner(t, powers)
                logs = logs + res * np.log(np.abs(d))
            out[j] = 2.0 * (np.real(hol) + logs)
        return out


def _refuse_near_punctures(w: WeierstrassData, z: np.ndarray) -> None:
    clearance = w.clearance
    for p in w.finite_punctures:
        dist = np.abs(z - p)
        if dist.size and float(dist.min()) < clearance:
            near = complex(z.flat[int(np.argmin(dist))])
            raise EvaluationNearSingularityError(
                f"evaluation point {near} within clearance {clearance:.3e} of puncture {p}"
            )


def immersion_eval(w: WeierstrassData, z) -> np.ndarray:
    """f(z) = 2 Re int_{z0}^{z} phi dz from the closed form; f(basepoint) = 0.

    ``z`` is a point or an array of points; the result has shape
    (n,) + shape of z.  Points within the clearance of a finite puncture are
    refused.  Data with a non-real residue raise ``NonRealResidueError``:
    their integral depends on the path.
    """
    z = np.asarray(z, dtype=complex)
    _refuse_near_punctures(w, z)
    form = w._closed_form
    return form.primitive(z) - form.origin.reshape((-1,) + (1,) * z.ndim)


def immersion_delta(w: WeierstrassData, z1, z2) -> np.ndarray:
    """f(z2) - f(z1) (points or arrays, as immersion_eval)."""
    return immersion_eval(w, z2) - immersion_eval(w, z1)


def mobius_precompose(w: WeierstrassData, mobius) -> WeierstrassData:
    """Pull the datum back under z -> (a z + b)/(c z + d).

    The components transform as 1-forms: phi_j -> (phi_j o T) T'.  Punctures
    are re-detected; the basepoint is re-derived by the default rule.  The
    pulled-back forms share one ``RootTable``.
    """
    table = RootTable()
    return WeierstrassData([table.compose_mobius(r, mobius) for r in w.phi], label=w.label)
