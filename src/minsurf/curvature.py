"""Gauss map, total curvature, and the Chern-Osserman / Gackstatter / Ejiri bounds.

The Gauss map of a conformal minimal immersion is the projective class of the
derivative components.  Clearing denominators gives a polynomial map into the
quadric {sum x_j^2 = 0}; its common factor is the product of the finite branch
points (``WeierstrassData.branch_points``), and once it is removed the map is
basepoint-free, so the hyperplane-intersection degree d is the max component
degree less the branching order.  d determines the total curvature -2 pi d.
A Green-identity boundary integral of -laplacian(log lambda) provides an
independent numeric value; it reads only each component's num/den, with the
numerators brought to order one by a power of two (exact, and invisible to
d/dr log lambda).  Each shrink round's circles are evaluated in one stacked
call, each distinct denominator once, and the rounds stop when two
successive estimates, or two successive Aitken extrapolations of their
geometric tail, agree.

Equalities in the curvature bounds are detected by integer comparison of the
pi-multiples, never by float comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DegenerateInputError,
    InternalConsistencyError,
    NumericInstabilityError,
)
from .rational import ComplexPoly
from .weierstrass import WeierstrassData, metric_order_at

__all__ = [
    "GaussMap",
    "CurvatureReport",
    "InequalityResult",
    "gauss_map",
    "total_curvature_numeric",
    "chern_osserman",
    "fullness_and_degeneracy",
    "gackstatter_and_ejiri",
    "curvature_report",
]

RANK_TOL = 1e-8  # singular values below RANK_TOL * sigma_max count as zero


@dataclass(frozen=True)
class GaussMap:
    """Cleared projective components and the map degree (the max component
    degree less the degree of their common factor)."""

    psi: tuple
    degree: int


def _times_pi(k: int | None) -> float | None:
    return None if k is None else k * math.pi


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature data; every bound is carried as an integer pi-multiple
    (``*_pi``), equality-safe, and its float value derived from it."""

    d: int
    m: int
    chi: int
    co_equality: bool
    genus: int = 0
    tc_numeric: float | None = None
    full: bool | None = None
    l: int | None = None
    gackstatter_pi: int | None = None
    gackstatter_applicable: bool | None = None
    ejiri_pi: int | None = None
    ejiri_equality: bool | None = None

    @property
    def tc_pi(self) -> int:
        return -2 * self.d

    @property
    def co_rhs_pi(self) -> int:
        return 2 * (self.chi - self.m)

    @property
    def tc_algebraic(self) -> float:
        """TC = -2 pi d."""
        return _times_pi(self.tc_pi)

    @property
    def co_rhs(self) -> float:
        return _times_pi(self.co_rhs_pi)

    @property
    def gackstatter_rhs(self) -> float | None:
        return _times_pi(self.gackstatter_pi)

    @property
    def ejiri_rhs(self) -> float | None:
        return _times_pi(self.ejiri_pi)


def gauss_map(w: WeierstrassData) -> GaussMap:
    """Projective Gauss map [phi_1 : ... : phi_n] in cleared form.

    The common denominator is projectively irrelevant once cleared, and so is
    the numerators' common factor, whose roots are the finite branch points.
    The hyperplane-intersection degree (including the fiber over infinity,
    which the homogenization to the max component degree accounts for) is
    the max numerator degree less the degree of that factor.
    """
    if all(r.is_zero for r in w.phi):
        raise DegenerateInputError("all components are zero")
    _D, nums = w.cleared
    degree = max(nj.degree() for nj in nums if not nj.is_zero)
    degree -= sum(m for _z, m in w.branch_points)
    return GaussMap(psi=tuple(nums), degree=int(degree))


def _flux_groups(phi):
    """Nonzero components grouped by denominator, as (den, den', [(num, num'),
    ...]), every numerator divided by one power of two 2^k.

    d/dr log(lambda) does not change under phi -> s phi, and dividing by a
    power of two is exact, so the fluxes are those of the unscaled data while
    the values they are computed from are of order one: k is the binary
    exponent of max_j |num_j| / |den_j| (coefficient max-norms).
    """
    comps = [r for r in phi if not r.is_zero]
    k = math.frexp(max(r.num.norm() / r.den.norm() for r in comps))[1] - 1
    groups = {}
    for r in comps:
        d, dd, members = groups.setdefault(r.den.coeffs.tobytes(),
                                           (r.den, r.den.derivative(), []))
        num = ComplexPoly(np.ldexp(r.num.coeffs.real, -k) + 1j * np.ldexp(r.num.coeffs.imag, -k))
        members.append((num, num.derivative()))
    return list(groups.values())


def _round_fluxes(groups, centers, radii, n_theta: int):
    """Integrals over circles of d/dr log(lambda) * radius dtheta, all at once.

    With S = sum phi_j conj(phi_j), d/dr log lambda = Re[e^{i theta} *
    (sum phi_j' conj(phi_j)) / S].  ``groups`` holds (den, den', [(num,
    num'), ...]) per distinct denominator (``_flux_groups``), and phi' =
    (num' - phi den') / den by the quotient rule, so there is no finite
    differencing; den and den' are evaluated once per group, just before its
    components, so no round keeps a table of every polynomial's values.  The
    circles (centre ``centers[i]``, radius ``radii[i]``) are stacked into one
    array, so each polynomial is evaluated once for all of them; a circle on
    which a sample hits a zero of S has its radius nudged and is evaluated
    again, together with any other circle so nudged.  Returns (fluxes, radii
    used).
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    e = np.exp(1j * theta)
    centers = np.asarray(centers, dtype=complex)
    rad = np.array(radii, dtype=float)
    flux = np.empty(rad.size)
    todo = np.arange(rad.size)
    for _attempt in range(6):
        z = centers[todo, None] + rad[todo, None] * e
        num = np.zeros_like(z)
        den = np.zeros(z.shape)
        for d, dd, members in groups:
            dz, ddz = d(z), dd(z)
            for n, dn in members:
                v = n(z) / dz
                num += (dn(z) - v * ddz) / dz * np.conj(v)
                den += np.abs(v) ** 2
        ok = np.min(den, axis=1) > 1e-280
        vals = np.real(e * num[ok] / den[ok]) * rad[todo[ok], None]
        flux[todo[ok]] = np.mean(vals, axis=1) * 2.0 * math.pi
        todo = todo[~ok]
        if not todo.size:
            return flux, rad
        rad[todo] *= 1.0017
    raise ConvergenceFailureError("conformal factor vanished on every probed circle")


def total_curvature_numeric(w: WeierstrassData, tol: float = 1e-3,
                            n_theta: int = 512, max_iter: int = 48) -> float:
    """Quadrature cross-check of the total curvature.

    TC = int K dA = -int laplacian(log lambda) over the finite chart minus
    eps-disks around the punctures; by the Green identity this is a sum of
    circle integrals of the radial derivative of log lambda.  The disks are
    shrunk and the outer circle enlarged by the ratio 0.6 per round, so the
    estimates tc_i approach their limit geometrically (the boundary terms
    differ from their limits by powers of the radii).  Two stop rules, the
    first to fire wins, each with the bound 0.2 tol max(1, |value|):

    - two successive estimates agree: tc_i is returned;
    - from the third round on, while the differences D_i = tc_i - tc_{i-1}
      shrink without changing sign (0 < D_i / D_{i-1} < 1), the Aitken value
      A_i = tc_i - D_i^2 / (D_i - D_{i-1}) extrapolates the tail; two
      successive A_i agree: A_i is returned.

    Each round's circles -- one per finite puncture and the outer one -- are
    evaluated in one stacked call, each distinct denominator once.  The check
    reads only the components' num/den (numerators scaled by a power of two,
    ``_flux_groups``), not the pole or Laurent tables.
    """
    groups = _flux_groups(w.phi)
    fin = w.finite_punctures
    centers = [*fin, 0j]
    eps0 = 0.08 * w.min_separation
    r_out0 = 4.0 * (1.0 + max((abs(p) for p in fin), default=0.0))
    shrink = 0.6

    def agree(a, b):
        return abs(a - b) <= 0.2 * tol * max(1.0, abs(a))

    prev = step = aitken = None
    for i in range(max_iter):
        eps = eps0 * shrink**i
        r_out = r_out0 / shrink**i
        flux, _radii = _round_fluxes(groups, centers, [eps] * len(fin) + [r_out], n_theta)
        inner = sum(flux[:-1].tolist())
        tc = -(flux[-1] - inner)
        if prev is not None:
            # successive differences underestimate the residual of a geometric
            # tail by ~shrink/(1-shrink), hence the margin factor
            if agree(tc, prev):
                return tc
            diff = tc - prev
            # 0 < diff / step < 1 (step != 0, or the rule above had fired)
            if step is not None and diff * step > 0.0 and abs(diff) < abs(step):
                extrapolated = tc - diff * diff / (diff - step)
                if aitken is not None and agree(extrapolated, aitken):
                    return extrapolated
                aitken = extrapolated
            else:
                aitken = None
            step = diff
        prev = tc
    raise ConvergenceFailureError(
        "total-curvature boundary terms did not stabilize",
        estimates=(prev, tc),
    )


def chern_osserman(w: WeierstrassData, gmap: GaussMap | None = None) -> CurvatureReport:
    """Chern-Osserman data: d, TC, chi, the bound 2 pi (chi - m), and equality.

    Equality is decided by the integer identity d == m - chi and
    cross-validated against all end orders being -2; a disagreement would
    contradict the degree formula and raises an internal-consistency error.
    """
    g = gmap if gmap is not None else gauss_map(w)
    m = len(w.punctures)
    chi = 2 - m  # genus 0
    equality_by_degree = g.degree == (m - chi)
    orders = [metric_order_at(w, p) for p in w.punctures]
    equality_by_orders = all(mu == -2 for mu in orders)
    if equality_by_degree != equality_by_orders:
        raise InternalConsistencyError(
            f"degree-based equality {equality_by_degree} disagrees with end orders {orders}"
        )
    return CurvatureReport(d=g.degree, m=m, chi=chi, co_equality=equality_by_degree)


def fullness_and_degeneracy(w: WeierstrassData, gmap: GaussMap | None = None):
    """(full, l): hyperplane test and Gauss-image degeneracy.

    full  <=>  no nonzero real v with sum v_j phi_j = 0, i.e. the stacked
    real/imaginary coefficient matrix of the cleared components has rank n.
    l = n - rank_C(coefficient matrix): the Gauss image spans a projective
    subspace of dimension n - 1 - l.  A common factor of the components
    changes neither rank.
    """
    g = gmap if gmap is not None else gauss_map(w)
    L = max(p.degree() for p in g.psi if not p.is_zero) + 1
    A = np.zeros((L, w.n), dtype=complex)
    for j, p in enumerate(g.psi):
        if not p.is_zero:
            A[: p.coeffs.size, j] = p.coeffs
    sv_c = np.linalg.svd(A, compute_uv=False)
    rank_c = int(np.sum(sv_c > RANK_TOL * sv_c[0])) if sv_c.size and sv_c[0] > 0 else 0
    stacked = np.vstack([A.real, A.imag])
    sv_r = np.linalg.svd(stacked, compute_uv=False)
    rank_r = int(np.sum(sv_r > RANK_TOL * sv_r[0])) if sv_r.size and sv_r[0] > 0 else 0
    return rank_r == w.n, w.n - rank_c


@dataclass(frozen=True)
class InequalityResult:
    gackstatter_pi: int
    ejiri_pi: int
    ejiri_equality: bool
    applicable: bool  # False for non-full data (bounds stated for full immersions)


def gackstatter_and_ejiri(w: WeierstrassData, gmap: GaussMap | None = None,
                          fullness=None) -> InequalityResult:
    """Gackstatter bound (2 chi + m - 1 - n) pi and Ejiri bound (chi + m - 2n + 2l) pi.

    Both are stated for fully immersed surfaces; for non-full data the values
    are still reported with ``applicable=False``.
    """
    g = gmap if gmap is not None else gauss_map(w)
    full, l = fullness if fullness is not None else fullness_and_degeneracy(w, g)
    m = len(w.punctures)
    chi = 2 - m
    gack_pi = 2 * chi + m - 1 - w.n
    ejiri_pi = chi + m - 2 * w.n + 2 * l
    equality = (-2 * g.degree) == ejiri_pi
    return InequalityResult(
        gackstatter_pi=gack_pi,
        ejiri_pi=ejiri_pi,
        ejiri_equality=equality,
        applicable=full,
    )


def curvature_report(w: WeierstrassData, tc_tol: float = 1e-3,
                     numeric: bool = True) -> CurvatureReport:
    """Complete curvature report for a validated datum.

    With ``numeric`` the Green-identity value must agree with -2 pi d to
    ``tc_tol`` (relative to max(1, 2 pi d)); a disagreement raises
    ``NumericInstabilityError`` rather than report a wrong number.
    """
    g = gauss_map(w)
    co = chern_osserman(w, g)
    full, l = fullness_and_degeneracy(w, g)
    ineq = gackstatter_and_ejiri(w, g, (full, l))
    tc = None
    if numeric:
        tc = total_curvature_numeric(w, tol=tc_tol)
        if abs(tc - co.tc_algebraic) > tc_tol * max(1.0, abs(co.tc_algebraic)):
            raise NumericInstabilityError(
                f"numeric total curvature {tc:.6f} disagrees with -2 pi d = "
                f"{co.tc_algebraic:.6f} beyond relative tolerance {tc_tol:g}",
                diagnostics={"tc_numeric": tc, "tc_algebraic": co.tc_algebraic,
                             "tc_tol": tc_tol},
            )
    return replace(
        co, tc_numeric=tc, full=full, l=l,
        gackstatter_pi=ineq.gackstatter_pi, gackstatter_applicable=ineq.applicable,
        ejiri_pi=ineq.ejiri_pi, ejiri_equality=ineq.ejiri_equality,
    )
