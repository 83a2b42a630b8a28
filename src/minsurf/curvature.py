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
(exact, and invisible to d/dr log lambda).  It takes one round of circles,
evaluated in one stacked call: radius ``TC_RADIUS`` times the punctures'
minimum separation about each finite puncture, and (1 + max |p|) /
``TC_RADIUS`` about 0.  The flux errors are quadratic in those ratios; the
worst relative error of the value over the 735 data that analyse of the
README's sweep (catalog, Moebius charts, close catenoids, null curves) is

    TC_RADIUS   1e-4     1e-5     1e-6      1e-7      1e-8
    error       7.2e-7   7.2e-9   7.2e-11   2.1e-11   2.1e-9

and rounding takes over below 1e-6.  A smaller radius buys nothing against
``TC_TOL`` and moves the outer circle farther out, where a phi_j overflows at
ends at infinity of smaller order k: Enneper's forms with g = z^a (k = 2a + 2)
analyse up to a = 30 and are refused, the circle named, from a = 31.

Every bound is an integer pi-multiple, and every equality an integer
comparison, never a float one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailureError,
    InternalConsistencyError,
    NumericInstabilityError,
)
from .rational import horner
from .weierstrass import WeierstrassData, branch_divisor, metric_order_at

__all__ = [
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
TC_RADIUS = 1e-5  # its inner radius / separation = (1 + max|p|) / outer radius
# e^{i theta} at the samples of a circle, theta = 2 pi j / TC_SAMPLES
_TC_PHASES = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, TC_SAMPLES, endpoint=False))
_TC_PHASES.flags.writeable = False


class CurvatureReport(NamedTuple):
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


def gauss_map(w: WeierstrassData) -> int:
    """The degree of the projective Gauss map [phi_1 : ... : phi_n].

    The map in cleared form is [psi_1 : ... : psi_n], psi = ``w.cleared``:
    the common denominator is projectively irrelevant once cleared, and so is
    the numerators' common factor, whose roots are the finite branch points.
    The hyperplane-intersection degree (including the fiber over infinity,
    which the homogenization to the max component degree accounts for) is
    the max numerator degree less the degree of that factor.
    """
    degree = max(nj.degree() for nj in w.cleared if not nj.is_zero)
    return int(degree - sum(m for _z, m in w.branch_points))


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
        num = r.num.coeffs * (1.0 / w.unit)
        if not num[-1]:
            num = np.trim_zeros(num, "b")  # a leading coefficient that underflowed
        dnum = num[1:] * np.arange(1, num.size) if num.size > 1 else np.zeros(1, dtype=complex)
        members.append((num, dnum))
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
    circle's flux is the one it has alone.  Each sample's phi_j and phi_j'
    are divided by one power of two (``frexp`` of its largest part of a
    phi_j) before they are squared: exact, and the flux is homogeneous of
    degree 0 per sample.  S vanishes only at a branch point, which
    ``validate`` refuses; a circle with a sample on a zero of S, or on which
    a phi_j overflows, gets a NaN flux.  Non-finite values are left to the
    caller, and numpy warns of none.
    """
    e = _TC_PHASES
    c = np.asarray(centers, dtype=complex)[:, None]
    rad = np.array(radii, dtype=float)
    t = rad[:, None] * e
    z = c + t
    phi, dphi = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lead, den_roots, members in groups:
            den = np.full(z.shape, lead, dtype=complex)
            log_slope = np.zeros(z.shape, dtype=complex)
            for root, m in den_roots:
                factor = t + (c - root)
                den *= factor**m
                log_slope += m / factor
            for n, dn in members:
                v = horner(z, n) / den
                phi.append(v)
                dphi.append(horner(z, dn) / den - v * log_slope)
        v, dv = np.array(phi), np.array(dphi)
        top = np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=0)
        scale = np.ldexp(1.0, -np.frexp(top)[1])
        v *= scale
        num = (dv * scale * np.conj(v)).sum(axis=0)
        S = (np.abs(v) ** 2).sum(axis=0)
        vals = (e * num / np.where((S > 1e-280) & (S < np.inf), S, np.nan)).real * rad[:, None]
    # the mean over each circle's samples, as np.mean sums and divides
    return vals.sum(axis=1) / TC_SAMPLES * 2.0 * math.pi


def total_curvature_numeric(w: WeierstrassData) -> float:
    """Quadrature cross-check of the total curvature.

    TC = int K dA = -int laplacian(log lambda) over the finite chart minus
    eps-disks around the punctures; by the Green identity it is the outer
    circle's flux of d/dr log lambda less the inner circles' fluxes, taken in
    one ``_round_fluxes`` call at the radii of the module docstring.  As log
    lambda is -k log|t| plus a real-analytic function near a puncture, an
    inner flux is its limit plus an even power series in eps / sep, and the
    outer one in (1 + max |p|) / R.  A circle without a finite flux -- through
    a zero of S, or an outer circle on which a phi_j overflows -- is
    refused.
    """
    fin = w.finite_punctures
    centers = [*fin, 0j]
    radii = [TC_RADIUS * w.min_separation] * len(fin) \
        + [(1.0 + max((abs(p) for p in fin), default=0.0)) / TC_RADIUS]
    flux = _round_fluxes(_flux_groups(w), centers, radii)
    if not np.isfinite(flux).all():
        c = int(np.argmin(np.isfinite(flux)))
        raise ConvergenceFailureError(
            f"conformal factor vanished or overflowed on the circle of radius {radii[c]:.6g} "
            f"about {centers[c]}")
    return -(flux[-1] - sum(flux[:-1].tolist()))


def chern_osserman(w: WeierstrassData) -> CurvatureReport:
    """The integer curvature report: d, m, chi, fullness and the three bounds.

    d is checked against the end orders k_j = -mu_j and the total branching
    order beta (``branch_divisor``, finite and at infinity) by the Jorge-Meeks
    identity d = sum_j k_j - 2 - beta; a disagreement contradicts the degree
    formula (an unlisted end, say) and raises an internal-consistency error.
    With beta = 0 the Chern-Osserman defect d - (m - chi) is
    sum_j (k_j - 2), so equality holds iff every end has order -2.
    """
    d = gauss_map(w)
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
    nums = w.cleared
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
    return rep._replace(tc_numeric=tc)
