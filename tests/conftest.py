import numpy as np
import pytest

import minsurf as ms
from minsurf.quadrature import integrate_vector, route_path
from minsurf.rational import is_infinity


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


def path_integral(w, waypoints):
    """2 Re int phi dz along the polyline through ``waypoints``, by adaptive
    Gauss-Kronrod quadrature with detours around the punctures: the
    reference the closed-form immersion is checked against."""
    pieces = route_path([complex(z) for z in waypoints], w.finite_punctures, w.clearance)
    val, _err = integrate_vector(lambda zs: np.stack([r(zs) for r in w.phi]), pieces,
                                 epsabs=1e-12, epsrel=1e-10)
    return 2.0 * val.real
