import math

import numpy as np
import pytest

import minsurf as ms
from minsurf.ends import analyze_end, certify_rotation_index
from minsurf.quadrature import integrate_vector, route_path
from minsurf.rational import is_infinity
from minsurf.weierstrass import TERMS

CUT_ANGLES = 16  # angles of a sampled sphere cut per turn of its limit circle


@pytest.fixture(scope="session")
def catenoid():
    return ms.catenoid()


@pytest.fixture(scope="session")
def plane():
    return ms.plane()


@pytest.fixture(scope="session")
def enneper():
    return ms.enneper()


@pytest.fixture(scope="session")
def counterexample():
    return ms.holomorphic_counterexample()


@pytest.fixture(scope="session")
def jm2():
    return ms.generalized_jorge_meeks(2)


@pytest.fixture(scope="session")
def all_entries():
    return ms.catalog.entries()


def branched_enneper():
    """Enneper's forms times (z - 1)^2, a branch point of order 2 at z = 1 (the
    metric vanishes there; nulls, residues and the end are fine), and its
    pull-back by z -> z / (z + 1), which moves the branch point to infinity."""
    sq = ms.ComplexPoly([1, -2, 1])
    w = ms.WeierstrassData([ms.RationalMap(r.num * sq, r.den) for r in ms.enneper().data.phi],
                           label="enneper-branched")
    return {"enneper-branched": w,
            "enneper-branched-moebius": ms.mobius_precompose(w, (1, 0, 1, 1))}


def transformed_points(w, mob):
    """Images of the punctures (and the td root) under the inverse map."""
    a, b, c, d = mob
    pts = []
    for p in list(w.punctures):
        if is_infinity(p):
            if c != 0:
                pts.append(complex(a / c))
        else:
            den = -c * p + a
            if abs(den) < 1e-9:
                return None
            pts.append(complex((d * p - b) / den))
    if c != 0:
        pts.append(complex(-d / c))
    return pts


def well_conditioned_mobius(w, rng):
    """Random Moebius map whose pulled-back punctures stay sane.

    Rejection-samples until the transformed punctures are bounded and
    pairwise separated, keeping the composed polynomials inside the
    double-precision tolerance regime of the library.
    """
    while True:
        mob = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(mob[0] * mob[3] - mob[1] * mob[2]) < 0.3:
            continue
        pts = transformed_points(w, mob)
        if pts is None or any(abs(p) > 8 for p in pts):
            continue
        if all(abs(pts[i] - pts[j]) >= 0.15
               for i in range(len(pts)) for j in range(i + 1, len(pts))):
            return tuple(mob)


def poly_sum(p, q):
    """The polynomial p + q, its coefficients summed into a zero array."""
    c = np.zeros(max(p.coeffs.size, q.coeffs.size), dtype=complex)
    c[:p.coeffs.size] += p.coeffs
    c[:q.coeffs.size] += q.coeffs
    return ms.ComplexPoly(c)


def value(r, z):
    """The rational map r at z (a point or an array), num(z) / den(z)."""
    return r.num(z) / r.den(z)


def scaled(r, s):
    """The rational map s r, its numerator scaled by s."""
    return ms.RationalMap(r.num * s, r.den)


def path_integral(w, waypoints):
    """2 Re int phi dz along the polyline through ``waypoints``, by adaptive
    Gauss-Kronrod quadrature with detours around the punctures: the
    reference the closed-form immersion is checked against."""
    pieces = route_path([complex(z) for z in waypoints], w.finite_punctures, w.clearance)
    val, _err = integrate_vector(lambda zs: np.stack([value(r, zs) for r in w.phi]), pieces,
                                 epsabs=1e-12, epsrel=1e-10)
    return 2.0 * val.real


def metric_sq(w, z):
    """lambda^2 = 2 sum |phi_j(z)|^2, the conformal factor of ds^2 =
    lambda^2 |dz|^2 at a point z off the punctures: the reference the
    conformality checks compare |df|^2 / |dz|^2 with."""
    return 2.0 * float(sum(abs(value(r, z)) ** 2 for r in w.phi))


def laurent_coefficient(r, center, exponent):
    """The coefficient of the local coordinate (z - center, or w = 1/z at
    infinity) to the power ``exponent`` in ``laurent_expand(r, center)``,
    0 below the order: an entry of the series' ``coeffs``.  The residue of
    r dz is the coefficient of -1 at a finite point and minus the
    coefficient of w^1 at infinity."""
    order = ms.laurent_expand(r, center, 0).order
    s = ms.laurent_expand(r, center, max(0, exponent - order))
    return complex(s.coeffs[exponent - order]) if exponent >= order else 0j


def polar(loc, x, thetas):
    """The local immersion ``loc`` summed from its table at the points
    t = e^x e^{i theta}, one log radius x per angle: 2 Re(sum_p anti_p
    exp((mu+1+p) log t) + log_coeff log t) + constant, log t = x + i theta
    with theta taken to the principal branch (-pi, pi]; a (dim, n) array.
    The reference the deviation bound and the table are checked against."""
    log_t = x + 1j * np.angle(np.exp(1j * thetas))
    series = loc._anti @ np.exp(np.multiply.outer(loc.mu + 1 + np.arange(TERMS), log_t))
    series += np.multiply.outer(loc.log_coeff, log_t)
    return 2.0 * series.real + loc.constant[:, None]


def sphere_cut(loc, n, R, r0):
    """The sphere cut |f| = R of an end certified on 0 < |t| <= r0 for R, on
    the grid of n angles theta_j = 2 pi j / n: f there, a (dim, n) array.

    On each ray |f| falls strictly and |f(r0 e^{i theta})| <= R0 <= R, so
    |f| = R has one root in (0, r0]; it is bisected in x = log r.  hi starts
    at log r0, and lo moves down by log 2 until |f| >= R on every ray, which
    ends, as |f| grows without bound toward the end (a value that is not
    finite counts as above R).  The bisection stops where no midpoint lies
    strictly between lo and hi, and returns f at hi.  f is divided by R
    before it is squared, so no scale of the surface under- or overflows it.
    """
    thetas = 2.0 * math.pi * np.arange(n) / n

    def below(x):
        u = polar(loc, x, thetas) / R
        return np.einsum("ij,ij->j", u, u) < 1.0

    hi = np.full(n, math.log(r0))
    lo = hi - math.log(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        while below(lo).any():
            lo -= math.log(2.0)
        mid = 0.5 * (lo + hi)
        while ((lo < mid) & (mid < hi)).any():
            inside = below(mid)
            hi, lo = np.where(inside, mid, hi), np.where(inside, lo, mid)
            mid = 0.5 * (lo + hi)
    return polar(loc, hi, thetas)


def sampled_deviation(w, p, R, end=None):
    """The sup distance of the sampled sphere cut (1/R)(|f| = R) from the
    (k-1)-fold covered model circle -(e1 cos (k-1) theta + e2 sin (k-1)
    theta) of the end's frame, k read from ``end``: the cut is bisected
    (``sphere_cut``) inside the disc of the end's rotation certificate, on
    N = CUT_ANGLES max(k - 1, 4) angles.  The independent reference of
    ``limit_circle_deviation``; R must be at least the end's R0."""
    e = analyze_end(w, p) if end is None else end
    cert = certify_rotation_index(w, p, end=e)
    assert cert is not None and R >= cert.R0, (p, R)
    n = CUT_ANGLES * max(e.k - 1, 4)
    cut = sphere_cut(e._local, n, R, cert.r0)
    alpha = (e.k - 1) * (2.0 * math.pi * np.arange(n) / n)
    model = -(np.multiply.outer(e.frame[0], np.cos(alpha))
              + np.multiply.outer(e.frame[1], np.sin(alpha)))
    return float(np.max(np.linalg.norm(cut / R - model, axis=0)))
