"""Weierstrass data of genus-zero minimal immersions: validation and evaluation.

A datum is an n-tuple of rational maps phi_j with d f_j = 2 Re(phi_j dz),
together with the puncture set (the ends) on the Riemann sphere.  This module
checks the structural requirements -- the null (conformality) identity
sum phi_j^2 = 0, reality of all residues, and complete finite-total-curvature
end orders mu <= -2 -- and evaluates the immersion and its conformal factor.

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
poles by one rule, ``rational.roots_coincide``.  Each expansion is made once
per datum too (``_LaurentTable``), and every reader takes a prefix of it.

A branch point is a zero of every form phi_j dz: the metric vanishes there
and the datum is no immersion, which ``validate`` refuses.  The finite ones
are the common roots of the cleared numerators (``rational.shared_roots`` of
the lowest-degree one against the rest, one ``roots`` call per datum); at
infinity, when it is not an end, it is a positive order of every form there.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DegenerateInputError,
    EvaluationNearSingularityError,
    NonRealResidueError,
    SingularMetricError,
)
from .rational import (
    INF,
    ComplexPoly,
    LaurentSeries,
    RationalMap,
    compose_mobius,
    is_infinity,
    laurent_expand,
    partial_fractions,
    roots,
    roots_coincide,
    shared_roots,
)

__all__ = [
    "WeierstrassData",
    "MetricSample",
    "NullCheck",
    "ResidueCheck",
    "ValidationReport",
    "validate_null",
    "detect_punctures",
    "check_residues_real",
    "metric_order_at",
    "immersion_eval",
    "immersion_delta",
    "conformal_factor",
    "form_residue_vector",
    "common_denominator",
    "mobius_precompose",
]

NULL_TOL = 1e-10        # relative residual for the null identity
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
        return _PoleTable(self.phi, self._laurent)

    @cached_property
    def cleared(self):
        """``common_denominator`` of the datum, computed once."""
        return common_denominator(self)

    @cached_property
    def branch_points(self) -> tuple:
        """Finite branch points as (point, order): the common roots of the
        cleared numerators, found once.  Their orders sum to the degree of the
        numerators' common factor."""
        nums = [p for p in self.cleared[1] if not p.is_zero]
        base = min(nums, key=lambda p: p.degree())
        if base.degree() < 1:
            return ()
        return tuple(shared_roots(roots(base), [p for p in nums if p is not base]))

    @cached_property
    def _closed_form(self) -> "_ClosedForm":
        return _ClosedForm(self)

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

    # -- conveniences (thin wrappers over the module operations) ------------

    def validate(self) -> "ValidationReport":
        return validate(self)

    def immersion(self, z):
        return immersion_eval(self, z)

    def metric_order_at(self, p) -> int:
        return metric_order_at(self, p)

    def __repr__(self):
        return f"WeierstrassData(n={self.n}, label={self.label!r}, punctures={self.punctures!r})"


@dataclass(frozen=True)
class MetricSample:
    """Conformal factor sample: ds^2 = lambda_sq |dz|^2 at z."""

    z: complex
    lambda_sq: float


@dataclass(frozen=True)
class NullCheck:
    ok: bool
    defect: float
    coefficient_magnitudes: tuple


@dataclass(frozen=True)
class ResidueCheck:
    ok: bool
    worst_imag: float
    residues: tuple  # ((puncture, residue vector), ...)


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
        return (self.null.ok and self.residues.ok and self.orders_ok and self.punctures_ok
                and not self.branch_points)


class _LaurentTable:
    """The Laurent series of the forms phi_j dz of a datum, each made once.

    ``series(j, centre)`` is ``laurent_expand(phi_j, centre)`` (at infinity in
    w = 1/z, with the Jacobian dz = -dw/w^2), read-only, at the deepest depth
    any reader takes.  The recurrence does not depend on the depth, so a prefix
    is bitwise the expansion at its depth.  ``immersions`` is for ``ends``.
    """

    def __init__(self, phi):
        self.phi = phi
        self.depth = max(40, 6 + max(max(r.num.degree(), r.den.degree()) for r in phi))
        self._series = {}
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
    point), then infinity when some form has a pole there.
    """

    def __init__(self, phi, laurent: _LaurentTable):
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
        finite = tuple(
            z for z, members in self.poles.items()
            if min(laurent.series(j, root).order for j, (root, _m) in members.items()) < 0
        )
        at_inf = any(r.degree_at_infinity() >= -1 for r in phi if not r.is_zero)
        self.punctures = finite + ((INF,) if at_inf else ())

    def pole_point(self, p):
        """The pole a sphere point lies at (p counts as a simple root), or p itself."""
        if is_infinity(p) or p in self.poles:
            return p
        return next((q for q, members in self.poles.items()
                     if roots_coincide(p, 1, q, _pole_mult(members))), p)


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


def validate_null(w: WeierstrassData, tol: float = NULL_TOL) -> NullCheck:
    """Check the conformality identity sum phi_j^2 = 0 as a rational identity.

    The numerator of the sum over the common denominator must vanish; the
    defect is its max coefficient magnitude relative to the size of the
    individual squared terms.
    """
    _, nums = w.cleared
    total = ComplexPoly()
    scale = 0.0
    for nj in nums:
        sq = nj * nj
        total = total + sq
        scale = max(scale, sq.norm())
    mags = tuple(float(x) for x in np.abs(total.coeffs))
    defect = (max(mags) / scale) if (mags and scale > 0.0) else (max(mags) if mags else 0.0)
    return NullCheck(ok=defect <= tol, defect=defect, coefficient_magnitudes=mags)


def detect_punctures(phi):
    """Poles of the 1-forms phi_j dz, as sphere points.

    Finite poles are the merged denominator roots of the (reduced)
    components where some form has negative order; infinity is included
    when deg num - deg den >= -1 for some component.
    """
    phi = _as_rational_tuple(phi)
    if all(r.is_zero for r in phi):
        raise DegenerateInputError("all components are zero")
    return list(_PoleTable(phi, _LaurentTable(phi)).punctures)


def _form_series(w: WeierstrassData, p):
    """The Laurent table's series of each form phi_j dz at a sphere point: at
    a pole each component at its own root there (from the pole table),
    elsewhere at p; None for a zero component."""
    poles = w._poles
    members = poles.poles.get(poles.pole_point(p), {})
    return [None if r.is_zero else w._laurent.series(j, members.get(j, (p, 0))[0])
            for j, r in enumerate(w.phi)]


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


def _residues_real(residues, tol: float):
    """(ok, worst imaginary part): imaginary parts within tol (1 + max |residue|)."""
    res = np.asarray(residues, dtype=complex).ravel()
    if not res.size:
        return True, 0.0
    worst = float(np.max(np.abs(res.imag)))
    return worst <= tol * (1.0 + float(np.max(np.abs(res)))), worst


def check_residues_real(w: WeierstrassData, tol: float = RESIDUE_IMAG_TOL) -> ResidueCheck:
    """All residues of the form at all ends must be real (period closing)."""
    per_end = tuple((p, form_residue_vector(w, p)) for p in w.punctures)
    ok, worst = _residues_real([r for _, r in per_end], tol)
    return ResidueCheck(ok=ok, worst_imag=worst, residues=per_end)


def validate(w: WeierstrassData, tol_scale: float = 1.0) -> ValidationReport:
    """Full structural validation of a datum.

    Besides the null identity, real residues and the end orders, the datum
    must have no branch point (``WeierstrassData.branch_points``, and
    infinity when it is not an end but the metric vanishes there).

    ``tol_scale`` scales the null and residue tolerances by one factor (the
    CLI's global --tol flag).
    """
    messages = []
    null = validate_null(w, tol=NULL_TOL * tol_scale)
    if not null.ok:
        messages.append(f"null identity violated: defect {null.defect:.3e}")
    res = check_residues_real(w, tol=RESIDUE_IMAG_TOL * tol_scale)
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

    # the order of phi_j dz at infinity is deg den - deg num - 2
    branch = w.branch_points
    at_inf = -2 - max(r.degree_at_infinity() for r in w.phi if not r.is_zero)
    if at_inf > 0 and not any(is_infinity(p) for p in w.punctures):
        branch += ((INF, at_inf),)
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
        ok, worst = _residues_real(residues, RESIDUE_IMAG_TOL)
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
            hol = npoly.polyval(z, anti) if anti.size else np.zeros(z.shape, dtype=complex)
            logs = np.zeros(z.shape)
            for p, res, powers in terms:
                d = z - p
                if powers.size:
                    t = 1.0 / d
                    hol = hol + t * npoly.polyval(t, powers)
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


def conformal_factor(w: WeierstrassData, z) -> MetricSample:
    """lambda_sq = 2 sum |phi_j(z)|^2 (the conformal factor of ds^2)."""
    z = complex(z)
    for p in w.finite_punctures:
        if abs(z - p) <= 1e-12 * (1.0 + abs(p)):
            raise SingularMetricError(f"metric is singular at puncture {p}")
    lam = 2.0 * float(sum(abs(r(z)) ** 2 for r in w.phi))
    return MetricSample(z=z, lambda_sq=lam)


def mobius_precompose(w: WeierstrassData, mobius) -> WeierstrassData:
    """Pull the datum back under z -> (a z + b)/(c z + d).

    The components transform as 1-forms: phi_j -> (phi_j o T) T'.  Punctures
    are re-detected; the basepoint is re-derived by the default rule.
    """
    return WeierstrassData([compose_mobius(r, mobius) for r in w.phi], label=w.label)
