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
Topology 22, 1983).  ``_ClosedForm`` builds it once per datum and splits
nothing: each principal part is a block of columns of the Laurent window at
its pole, q_j that at infinity.  Its regular part at an end is that end's
constant (``_ClosedForm.end_constant``), which ``ends.LocalImmersion`` adds
to its integrated series.

Each datum has one table of its poles and Laurent data (``_LaurentTable``):
each denominator is rooted once (``RationalMap.den_roots``), the roots are
merged into poles by one rule (``rational.roots_coincide``), each expansion
is made once, and each sphere point read has one record (``_Window``), which
every reader of its Laurent data slices.  The residue gate,
``check_residues_real``, and the closed form read the same windows, one per
pole (``_pole_windows``); ``validate`` reports the gate, and the closed form
refuses a datum that fails it.

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
from dataclasses import dataclass, field
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
    "common_denominator",
    "mobius_precompose",
]

NULL_TOL = 1e-10        # relative residual for the null identity
BILINEAR_TOL = 1e-9     # |<a,a>| / |a|^2 and |<a_-2, a_-1>| / (|a_-2| (|a_-2| + |a_-1|))
RESIDUE_IMAG_TOL = 1e-10
CLEARANCE_FACTOR = 1e-3  # evaluation clearance = factor * min puncture separation
TERMS = 41               # Laurent terms of an end's local immersion (ends.LocalImmersion)


def _as_rational_tuple(phi):
    return tuple(r if isinstance(r, RationalMap) else RationalMap(r) for r in phi)


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
            self.punctures = self._laurent.punctures
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
        """Built on first use; at construction only when detecting punctures."""
        return _LaurentTable(self.phi)

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
        rows = [self._laurent.window(p).C[:, 0] for p in self.punctures]
        return np.array(rows).reshape(len(rows), self.n)

    @cached_property
    def unit(self) -> float:
        """The one unit of magnitude: 2^k with the largest leading Laurent
        coefficient |a_lead,j| over the ends in [2^(k-1), 2^k); 1.0 without
        ends.  Gates divide by it or compare with it; the data is not rescaled.
        A largest coefficient of 2^1023 or more, whose unit would be past the
        float range, is refused, and so is one below 2^-1024 (0 where the
        leading coefficients underflowed), whose unit's reciprocal would be."""
        if not self.punctures:
            return 1.0
        m = float(np.max(np.abs(self._leads)))
        if not 2.0**-1024 <= m < 2.0**1023:
            size = f"of modulus {m:.6g}" if math.isfinite(m) else "past the float range"
            raise DegenerateInputError(
                f"a leading Laurent coefficient {size} has no power-of-two unit in the float range")
        return math.ldexp(1.0, math.frexp(m)[1])

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


@dataclass(frozen=True, eq=False)
class _Window:
    """The Laurent data of the forms phi_j dz at one sphere point: the metric
    order ``mu``; the read-only (n, depth + 1) window ``C``, C[j, k] the
    coefficient of t^(mu + k) in the j-th form; each component's centre; and
    the ``pole`` the point lies at, or the point itself."""

    mu: int
    C: np.ndarray = field(repr=False)
    centres: tuple
    pole: object


class _LaurentTable:
    """The poles and the Laurent data of the forms phi_j dz of a datum.

    ``poles`` maps each pole, the first of the components' ``den_roots``
    merged into it by ``roots_coincide``, to its members {j: (root of phi_j
    there, multiplicity)}, sorted by real then imaginary part; ``mult`` maps
    it to its order in the common denominator, the members' largest.
    ``punctures`` are the poles where some form has negative order, read by
    ``rational._finite_orders`` without expanding a series, then infinity
    when some form has a pole there.  ``window(p)`` is the one record of a
    sphere point (``_Window``), matched to its pole; each component is
    expanded once per centre (at infinity in w = 1/z, with dz = -dw/w^2) at
    one depth, ``TERMS - 1`` for an end's local immersion or more, to hold
    the log term t^-1 of every end.  ``immersions`` is for ``ends``.
    """

    def __init__(self, phi):
        poles, mult = {}, {}
        for j, r in enumerate(phi):
            for z, m in r.den_roots:
                point = next((q for q in poles if roots_coincide(z, m, q, mult[q])), None)
                if point is None:
                    poles[z], mult[z] = {j: (z, m)}, m
                else:
                    root, have = poles[point].get(j, (z, 0))
                    poles[point][j] = (root, have + m)
                    mult[point] = max(mult[point], have + m)
        self.poles = dict(sorted(poles.items(), key=lambda it: (it[0].real, it[0].imag)))
        self.mult = {z: mult[z] for z in self.poles}
        finite = []
        for z, members in self.poles.items():
            orders = [_finite_orders(phi[j], root) for j, (root, _m) in members.items()]
            if min(zero - pole for _c, zero, pole in orders) < 0:
                finite.append(z)
        at_inf = any(r.degree_at_infinity() >= -1 for r in phi if not r.is_zero)
        self.punctures = tuple(finite) + ((INF,) if at_inf else ())
        self.phi = phi
        self.depth = max(TERMS - 1, 6 + max(max(r.num.degree(), r.den.degree()) for r in phi))
        self._series = {}
        self._windows = {}
        self.immersions = {}

    def window(self, p) -> _Window:
        """The record of the sphere point p, built once: each component
        expanded at its own root of p's pole (p counts as a simple root),
        elsewhere at p."""
        if p not in self._windows:
            pole = p if is_infinity(p) or p in self.poles else next(
                (q for q, m in self.mult.items() if roots_coincide(p, 1, q, m)), p)
            members = self.poles.get(pole, {})
            series = []
            for j, r in enumerate(self.phi):
                centre = members.get(j, (p, 0))[0]
                if not r.is_zero and (j, centre) not in self._series:
                    s = laurent_expand(r, centre, self.depth)
                    if is_infinity(centre):
                        s = LaurentSeries(INF, s.order - 2, -s.coeffs)
                    s.coeffs.flags.writeable = False
                    self._series[j, centre] = s
                series.append(None if r.is_zero else self._series[j, centre])
            mu = min(s.order for s in series if s is not None)
            C = np.zeros((len(series), self.depth + 1), dtype=complex)
            for row, s in zip(C, series):
                if s is not None and s.order - mu <= self.depth:
                    row[s.order - mu:] = s.coeffs[:self.depth + 1 - (s.order - mu)]
            C.flags.writeable = False
            centres = tuple(p if s is None else s.center for s in series)
            self._windows[p] = _Window(mu, C, centres, pole)
        return self._windows[p]


def common_denominator(w: "WeierstrassData"):
    """Monic LCM of the denominators and the cleared numerators.

    Returns (D, nums) with phi_j = nums[j] / D exactly (zero components give
    zero numerators).  D has one root per pole of the datum's
    ``_LaurentTable``, with the largest multiplicity of any component there.
    A numerator with a coefficient past the float range is refused.
    """
    poles, mult = w._laurent.poles, w._laurent.mult
    D = ComplexPoly.from_roots(mult.items())
    nums = []
    for j, r in enumerate(w.phi):
        if r.is_zero:
            nums.append(ComplexPoly())
            continue
        missing = [(z, m - poles[z].get(j, (z, 0))[1]) for z, m in mult.items()]
        with np.errstate(over="ignore", invalid="ignore"):
            nums.append(r.num * ComplexPoly.from_roots(missing) * (1.0 / r.den.coeffs[-1]))
    if not all(np.isfinite(q.coeffs).all() for q in nums):
        raise DegenerateInputError("a cleared numerator has a coefficient past the float range")
    return D, nums


def validate_null(w: WeierstrassData) -> NullCheck:
    """Check the conformality identity sum phi_j^2 = 0 as a rational identity.

    The numerator of the sum over the common denominator must vanish; the
    defect is its max coefficient magnitude relative to the size of the
    individual squared terms.  The numerators are divided by ``w.unit``
    first (exact), so that in the regime of scale the squares neither
    overflow nor underflow; squares past the float range are refused.  The
    squares are coefficient arrays, summed in component order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        nums = [c for c in (n.coeffs * (1.0 / w.unit) for n in w.cleared[1]) if c.size]
        squares = np.zeros((len(nums), 2 * max(c.size for c in nums) - 1), dtype=complex)
        for sq, c in zip(squares, nums):
            sq[:2 * c.size - 1] = np.convolve(c, c)
        # the rows are added in order, as ``add.reduce`` sums the first axis
        scale = float(np.abs(squares).max())
        size = float(np.abs(squares.sum(axis=0)).max())
    if not (math.isfinite(scale) and math.isfinite(size)):
        raise DegenerateInputError("the cleared numerators' squares leave the float range")
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
    return list(_LaurentTable(phi).punctures)


def metric_order_at(w: WeierstrassData, p) -> int:
    """Metric order mu at a sphere point: min over j of ord(phi_j dz).

    At punctures of valid complete finite-total-curvature data mu <= -2; at a
    regular point the value is nonnegative (a non-end).
    """
    return w._laurent.window(p).mu


def _pole_windows(w: WeierstrassData) -> list:
    """The window of each pole of the form (mu < 0), one per pole: the listed
    ends' first, then that of each table puncture no listed end lies at.
    The residue gate and the closed form read these and no other."""
    windows = {}
    for p in w.punctures + w._laurent.punctures:
        if p not in windows:
            win = w._laurent.window(p)
            windows.setdefault(win.pole, win)
    return [win for win in windows.values() if win.mu < 0]


def check_residues_real(w: WeierstrassData) -> ResidueCheck:
    """The one residue gate: the residue vectors of the form at its poles
    (``_pole_windows``, column -1 - mu of each window), which the closed
    form integrates, must be real (period closing), imaginary parts within
    ``RESIDUE_IMAG_TOL`` (unit + max |residue|), ``unit`` the datum's
    ``WeierstrassData.unit``.  ``validate`` reports it, and the closed form
    refuses a datum it fails."""
    res = np.array([win.C[:, -1 - win.mu] for win in _pole_windows(w)])
    worst = float(np.abs(res.imag).max(initial=0.0))
    bound = RESIDUE_IMAG_TOL * (w.unit + float(np.abs(res).max(initial=0.0)))
    return ResidueCheck(ok=worst <= bound, worst_imag=worst)


def null_defect(a: np.ndarray) -> np.ndarray:
    """|<a, a>| / |a|^2 of each vector a along the last axis: the leading-
    nullity defect that ``validate`` and ``ends.analyze_end`` gate by
    ``BILINEAR_TOL``.  A vector whose squares underflow has the defect NaN,
    which fails the gate; numpy warns of none."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.abs((a * a).sum(axis=-1)) / (np.abs(a) ** 2).sum(axis=-1)


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

    # listed punctures are matched to the detected ones through the table
    at = [w._laurent.window(q).pole for q in w.punctures]
    punctures_ok = True
    for p in w._laurent.punctures:
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
        if not defect <= BILINEAR_TOL:  # NaN where the squares over the unit underflow
            detail = ("its squares over the unit underflow" if math.isnan(defect)
                      else f"|<a_lead, a_lead>| = {defect:.3e} |a_lead|^2")
            messages.append(f"end {p!r}: leading Laurent vector not null: {detail}")

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
    """The closed-form immersion of a datum up to its constant, every
    principal part the columns C[:, :-mu] of a window of ``_pole_windows``.

    Per component, the coefficients of Q_j (ascending), Q_j' = q_j the
    principal part at infinity (the window there is -q_j(1/w) / w^2 + O(1/w),
    its residue not integrated), and per finite pole, sorted by real then
    imaginary part, (p, real residue, coefficients of t^1, t^2, ... with
    t = 1/(z - p)) of the integrated principal part, p the component's root.
    """

    def __init__(self, w: WeierstrassData):
        res = check_residues_real(w)
        if not res.ok:
            raise NonRealResidueError(
                f"non-real residue (imaginary part {res.worst_imag:.3e}): the immersion "
                "has a period and no single-valued closed form"
            )
        antis = [np.zeros(0, dtype=complex)] * w.n
        terms = [[] for _ in w.phi]
        for win in _pole_windows(w):
            for j, row in enumerate(win.C[:, :-win.mu]):
                c = np.trim_zeros(row, "f")[::-1]  # c[l - 1] the coefficient of t^-l
                powers = -c[1:] / np.arange(1, c.size)
                if is_infinity(win.pole):
                    if c.size > 1:
                        antis[j] = np.concatenate([[0j], powers])
                elif c.size:
                    terms[j].append((win.centres[j], c[0].real, powers))
        self.components = tuple(
            (anti, tuple(sorted(t, key=lambda term: (term[0].real, term[0].imag))))
            for anti, t in zip(antis, terms))
        self.origin = self.primitive(np.asarray(w.basepoint))

    @staticmethod
    def _component(anti: np.ndarray, terms: tuple, z: np.ndarray) -> np.ndarray:
        """One component's primitive at z: 2 Re Q_j(z) plus, for each pole
        in ``terms``, its integrated principal part and 2 res log|z - p|."""
        hol = horner(z, anti) if anti.size else np.zeros(z.shape, dtype=complex)
        logs = np.zeros(z.shape)
        for p, res, powers in terms:
            d = z - p
            if powers.size:
                t = 1.0 / d
                hol = hol + t * horner(t, powers)
            logs = logs + res * np.log(np.abs(d))
        return 2.0 * (np.real(hol) + logs)

    def primitive(self, z: np.ndarray) -> np.ndarray:
        """The immersion plus a fixed constant at z; shape (n,) + z.shape."""
        return np.array([self._component(anti, terms, z) for anti, terms in self.components])

    def end_constant(self, w: WeierstrassData, p) -> np.ndarray:
        """The constant of the immersion's series at the end p, shape (n,):
        each component's primitive at its series' centre there, that root's
        principal part and log term left out, less ``origin``.  At infinity
        Q_j has no constant term, and the poles' parts and log|1 - p/z|
        vanish, so it is -``origin``."""
        if is_infinity(p):
            return -self.origin
        return np.array([self._component(anti, tuple(t for t in terms if t[0] != c),
                                         np.asarray(c))
                         for (anti, terms), c in zip(self.components,
                                                     w._laurent.window(p).centres)]) - self.origin


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
