"""Gauss map, total curvature, and the Chern-Osserman / Gackstatter / Ejiri bounds.

The Gauss map of a conformal minimal immersion is the projective class of the
derivative components.  Clearing denominators gives a polynomial map into the
quadric {sum x_j^2 = 0}; its common factor is the product of the finite branch
points (``WeierstrassData.branch_points``), and once it is removed the map is
basepoint-free, so the hyperplane-intersection degree d is the max component
degree less the branching order.  d determines the total curvature -2 pi d,
and is checked against the end orders by the Jorge-Meeks identity
d = sum_j k_j - 2 - beta (k_j = -mu_j, beta the total branching order).
A Green-identity boundary integral of -laplacian(log lambda) provides an
independent numeric value; it reads only each component's num/den and
den_roots, with the numerators divided by the datum's unit, a power of two
(exact, and invisible to d/dr log lambda).  The circles of ``TC_BLOCK``
shrink rounds are evaluated in one stacked call, each numerator and its
derivative as a coefficient array by ``rational.horner`` and each
denominator from its roots, and a Romberg tableau of the rounds' estimates
stops when its diagonal settles.

Every bound is an integer pi-multiple, and every equality an integer
comparison, never a float one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InternalConsistencyError,
    NumericInstabilityError,
)
from .rational import horner
from .weierstrass import WeierstrassData, branch_divisor, metric_order_at

__all__ = [
    "GaussMap",
    "CurvatureReport",
    "gauss_map",
    "total_curvature_numeric",
    "chern_osserman",
    "fullness_and_degeneracy",
    "curvature_report",
]

RANK_TOL = 1e-8  # singular values below RANK_TOL * sigma_max count as zero
TC_TOL = 1e-3    # relative tolerance of the Green-identity TC against -2 pi d
TC_SAMPLES = 32  # samples per circle of the Green-identity check
TC_ROUNDS = 48   # its shrink rounds before ConvergenceFailureError
TC_BLOCK = 4     # shrink rounds evaluated in one stacked call


@dataclass(frozen=True)
class GaussMap:
    """Cleared projective components and the map degree (the max component
    degree less the degree of their common factor)."""

    psi: tuple
    degree: int


@dataclass(frozen=True)
class CurvatureReport:
    """The integers of the curvature bounds, each bound a pi-multiple
    (``*_pi``); ``tc_algebraic`` is the float -2 pi d that the Green-identity
    witness ``tc_numeric``, when taken, is compared with."""

    d: int
    m: int
    chi: int
    full: bool
    l: int
    gackstatter_pi: int
    ejiri_pi: int
    tc_numeric: float | None = None

    @property
    def genus(self) -> int:
        return 0

    @property
    def tc_pi(self) -> int:
        return -2 * self.d

    @property
    def co_rhs_pi(self) -> int:
        return 2 * (self.chi - self.m)

    @property
    def co_equality(self) -> bool:
        return self.tc_pi == self.co_rhs_pi

    @property
    def ejiri_equality(self) -> bool:
        return self.tc_pi == self.ejiri_pi

    @property
    def gackstatter_applicable(self) -> bool:
        """The Gackstatter and Ejiri bounds are stated for full immersions."""
        return self.full

    @property
    def tc_algebraic(self) -> float:
        """TC = -2 pi d."""
        return self.tc_pi * math.pi


def gauss_map(w: WeierstrassData) -> GaussMap:
    """Projective Gauss map [phi_1 : ... : phi_n] in cleared form.

    The common denominator is projectively irrelevant once cleared, and so is
    the numerators' common factor, whose roots are the finite branch points.
    The hyperplane-intersection degree (including the fiber over infinity,
    which the homogenization to the max component degree accounts for) is
    the max numerator degree less the degree of that factor.
    """
    nums = w.cleared[1]
    degree = max(nj.degree() for nj in nums if not nj.is_zero)
    degree -= sum(m for _z, m in w.branch_points)
    return GaussMap(psi=tuple(nums), degree=int(degree))


def _flux_groups(w: WeierstrassData):
    """Nonzero components grouped by denominator, as (lead, den_roots, [(num,
    num'), ...]), each numerator the coefficient array of the component's
    divided by the datum's ``unit``, a zero derivative as ``[0]``.

    A denominator is carried by its roots: next to close multiple roots
    Horner's rule on its coefficients loses the digits its factors keep.
    d/dr log(lambda) does not change under phi -> s phi, and dividing by a
    power of two is exact, so the fluxes are those of the unscaled data while
    the values they are computed from carry no factor of the datum's scale.
    """
    groups = {}
    for r in w.phi:
        if r.is_zero:
            continue
        _lead, _roots, members = groups.setdefault(r.den.coeffs.tobytes(),
                                                   (r.den.coeffs[-1], r.den_roots, []))
        num = r.num * (1.0 / w.unit)
        dnum = num.derivative().coeffs
        members.append((num.coeffs, dnum if dnum.size else np.zeros(1, dtype=complex)))
    return list(groups.values())


def _round_fluxes(groups, centers, radii):
    """Integrals over circles of d/dr log(lambda) * radius dtheta, all at once.

    With S = sum phi_j conj(phi_j), d/dr log lambda = Re[e^{i theta} *
    (sum phi_j' conj(phi_j)) / S].  Circle i is sampled at ``TC_SAMPLES``
    points t = r e^{i theta} of its own coordinate, z = c + t (centre
    ``centers[i]``, radius ``radii[i]``).  Per group of ``_flux_groups``,
    den = lead prod (t + (c - z_j))^m_j and den'/den = sum m_j / (t + (c -
    z_j)), so phi' = num'/den - phi den'/den, with no finite differencing
    and no Horner evaluation of den.  The circles are stacked into one
    array, so each numerator is evaluated once for all of them, and each
    circle's flux is the one it has alone.  S vanishes only at a branch
    point, which ``validate`` refuses; a circle with a sample on a zero of S
    gets a NaN flux.  Non-finite values are left to the caller, and numpy
    warns of none.  Returns (fluxes, radii).
    """
    theta = np.linspace(0.0, 2.0 * math.pi, TC_SAMPLES, endpoint=False)
    e = np.exp(1j * theta)
    c = np.asarray(centers, dtype=complex)[:, None]
    rad = np.array(radii, dtype=float)
    t = rad[:, None] * e
    z = c + t
    num = np.zeros_like(z)
    S = np.zeros(z.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lead, den_roots, members in groups:
            den = np.full(z.shape, lead, dtype=complex)
            log_slope = np.zeros_like(z)
            for root, m in den_roots:
                factor = t + (c - root)
                den *= factor**m
                log_slope += m / factor
            for n, dn in members:
                v = horner(z, n) / den
                num += (horner(z, dn) / den - v * log_slope) * np.conj(v)
                S += np.abs(v) ** 2
        vals = np.real(e * num / np.where(S > 1e-280, S, np.nan)) * rad[:, None]
    return np.mean(vals, axis=1) * 2.0 * math.pi, rad


def _romberg_step(rows, tc: float, q: float) -> float | None:
    """Add the next round's estimate ``tc`` to the Romberg tableau ``rows``
    in the error ratio ``q``: rows[i + 1] = [T_{i,0}, ..., T_{i,i}], rows[0]
    empty.  Returns T_{i,i} once it agrees with T_{i-1,i-1}, else None."""
    row = [tc]
    for j, above in enumerate(rows[-1], 1):
        row.append((row[-1] - q**j * above) / (1.0 - q**j))
    settled = len(rows) > 1 and abs(row[-1] - rows[-1][-1]) <= 0.2 * TC_TOL * max(1.0, abs(row[-1]))
    rows.append(row)
    return row[-1] if settled else None


def total_curvature_numeric(w: WeierstrassData) -> float:
    """Quadrature cross-check of the total curvature.

    TC = int K dA = -int laplacian(log lambda) over the finite chart minus
    eps-disks around the punctures; by the Green identity this is a sum of
    circle integrals of the radial derivative of log lambda.  Near a puncture
    log lambda is -k log|t| plus a real-analytic function, so an inner flux
    is its limit plus an even power series in eps, and the outer flux one in
    1/R.  The disks are shrunk and the outer circle enlarged by 0.6 a round,
    so the estimates tc_i carry errors in the powers q^j of q = 0.36, which a
    Romberg tableau removes one by one:

        T_{i,0} = tc_i,   T_{i,j} = (T_{i,j-1} - q^j T_{i-1,j-1}) / (1 - q^j).

    The diagonal T_{i,i} is returned once it agrees with T_{i-1,i-1} to
    0.2 ``TC_TOL`` max(1, |T_{i,i}|).  The circles of ``TC_BLOCK`` rounds -- one
    per finite puncture and the outer one, each -- are evaluated in one
    stacked call, each numerator once and each denominator from its roots
    (``_round_fluxes``), and the tableau reads them one round at a time, so
    the value is the one of rounds taken singly.  At most ``TC_BLOCK - 1``
    rounds past the stop are evaluated, and they are never read: a circle of
    them without a finite flux raises nothing, while one in a round that is
    read raises.  The check reads only the components' num/den and
    ``den_roots``, not the pole or Laurent tables.  Should ``TC_ROUNDS``
    rounds pass without a stop, the error carries the raw estimates of the
    last two.
    """
    groups = _flux_groups(w)
    fin = w.finite_punctures
    centers = [*fin, 0j]
    eps0 = 0.08 * w.min_separation
    r_out0 = 4.0 * (1.0 + max((abs(p) for p in fin), default=0.0))
    shrink = 0.6
    rows = [[]]     # the tableau
    for i in range(0, TC_ROUNDS, TC_BLOCK):
        radii = [r for j in range(i, i + TC_BLOCK)
                 for r in [eps0 * shrink**j] * len(fin) + [r_out0 / shrink**j]]
        fluxes, used = (a.reshape(TC_BLOCK, -1)
                        for a in _round_fluxes(groups, centers * TC_BLOCK, radii))
        for k, flux in enumerate(fluxes):
            if not np.isfinite(flux).all():
                c = int(np.argmin(np.isfinite(flux)))
                raise ConvergenceFailureError(
                    f"conformal factor vanished or overflowed on round {i + k}'s circle "
                    f"of radius {used[k, c]:.6g} about {centers[c]}")
            value = _romberg_step(rows, -(flux[-1] - sum(flux[:-1].tolist())), shrink**2)
            if value is not None:
                return value
    raise ConvergenceFailureError("total-curvature boundary terms did not stabilize",
                                  estimates=[float(r[0]) for r in rows[-2:]])


def chern_osserman(w: WeierstrassData) -> CurvatureReport:
    """The integer curvature report: d, m, chi, fullness and the three bounds.

    d is checked against the end orders k_j = -mu_j and the total branching
    order beta (``branch_divisor``, finite and at infinity) by the Jorge-Meeks
    identity d = sum_j k_j - 2 - beta; a disagreement contradicts the degree
    formula (an unlisted end, say) and raises an internal-consistency error.
    With beta = 0 the Chern-Osserman defect d - (m - chi) is
    sum_j (k_j - 2), so equality holds iff every end has order -2.
    """
    d = gauss_map(w).degree
    orders = [metric_order_at(w, p) for p in w.punctures]
    beta = sum(m for _p, m in branch_divisor(w))
    rhs = -sum(orders) - 2 - beta
    if d != rhs:
        raise InternalConsistencyError(
            f"Gauss-map degree {d} disagrees with end orders {orders} and branching "
            f"order {beta}: sum_j k_j - 2 - beta = {rhs}")
    full, l = fullness_and_degeneracy(w)
    m = len(w.punctures)
    chi = 2 - m  # genus 0
    return CurvatureReport(d=d, m=m, chi=chi, full=full, l=l,
                           gackstatter_pi=2 * chi + m - 1 - w.n,
                           ejiri_pi=chi + m - 2 * w.n + 2 * l)


def fullness_and_degeneracy(w: WeierstrassData):
    """(full, l): hyperplane test and Gauss-image degeneracy.

    full  <=>  no nonzero real v with sum v_j phi_j = 0, i.e. the stacked
    real/imaginary coefficient matrix of the cleared numerators
    (``WeierstrassData.cleared``) has rank n.  l = n - rank_C(coefficient
    matrix): the Gauss image spans a projective subspace of dimension
    n - 1 - l.  A common factor of the components changes neither rank.
    """
    nums = w.cleared[1]
    L = max(p.degree() for p in nums if not p.is_zero) + 1
    A = np.zeros((L, w.n), dtype=complex)
    for j, p in enumerate(nums):
        if not p.is_zero:
            A[: p.coeffs.size, j] = p.coeffs
    sv_c = np.linalg.svd(A, compute_uv=False)
    rank_c = int(np.sum(sv_c > RANK_TOL * sv_c[0])) if sv_c.size and sv_c[0] > 0 else 0
    stacked = np.vstack([A.real, A.imag])
    sv_r = np.linalg.svd(stacked, compute_uv=False)
    rank_r = int(np.sum(sv_r > RANK_TOL * sv_r[0])) if sv_r.size and sv_r[0] > 0 else 0
    return rank_r == w.n, w.n - rank_c


def curvature_report(w: WeierstrassData) -> CurvatureReport:
    """``chern_osserman`` with the Green-identity witness, for a validated datum.

    The witness must agree with -2 pi d to ``TC_TOL`` (relative to
    max(1, 2 pi d)); a disagreement raises ``NumericInstabilityError`` rather
    than report a wrong number.
    """
    rep = chern_osserman(w)
    tc = total_curvature_numeric(w)
    if abs(tc - rep.tc_algebraic) > TC_TOL * max(1.0, abs(rep.tc_algebraic)):
        raise NumericInstabilityError(
            f"numeric total curvature {tc:.6f} disagrees with -2 pi d = "
            f"{rep.tc_algebraic:.6f} beyond relative tolerance {TC_TOL:g}",
            diagnostics={"tc_numeric": tc, "tc_algebraic": rep.tc_algebraic,
                         "tc_tol": TC_TOL},
        )
    return replace(rep, tc_numeric=tc)
