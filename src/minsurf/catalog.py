"""Built-in Weierstrass data for every surface the analysis pipeline is tested on.

Each entry carries the datum together with its expected analysis results, so
the test suite is self-contained.  Degrees, total curvatures, end counts and
equality verdicts are stored as integers (pi-multiples where applicable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ends import EndType
from .rational import INF, ComplexPoly, RationalMap
from .weierstrass import WeierstrassData

__all__ = [
    "ExpectedValues",
    "CatalogEntry",
    "catenoid",
    "plane",
    "enneper",
    "generalized_jorge_meeks",
    "holomorphic_counterexample",
    "entries",
    "get",
]


@dataclass(frozen=True)
class ExpectedValues:
    d: int
    tc_pi: int                  # TC = tc_pi * pi
    num_ends: int
    chi: int
    co_equality: bool
    full: bool
    l: int
    gackstatter_pi: int
    ejiri_pi: int
    ejiri_equality: bool
    end_orders: tuple           # mu per puncture, in puncture order
    end_types: tuple            # EndType per puncture
    rotation_indices: tuple
    embedded: tuple


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    data: WeierstrassData
    expected: ExpectedValues


def catenoid() -> CatalogEntry:
    """phi = ((1 - z^2)/(2 z^2), i (1 + z^2)/(2 z^2), 1/z): two catenoid ends."""
    phi = (
        RationalMap([1.0, 0.0, -1.0], [0.0, 0.0, 2.0]),
        RationalMap([1j, 0.0, 1j], [0.0, 0.0, 2.0]),
        RationalMap([1.0], [0.0, 1.0]),
    )
    data = WeierstrassData(phi, punctures=(0j, INF), label="catenoid")
    expected = ExpectedValues(
        d=2, tc_pi=-4, num_ends=2, chi=0, co_equality=True,
        full=True, l=0, gackstatter_pi=-2, ejiri_pi=-4, ejiri_equality=True,
        end_orders=(-2, -2),
        end_types=(EndType.CATENOID_TYPE, EndType.CATENOID_TYPE),
        rotation_indices=(1, 1), embedded=(True, True),
    )
    return CatalogEntry("catenoid", data, expected)


def plane() -> CatalogEntry:
    """phi = (1/2, -i/2, 0): the flat plane, one planar end, TC = 0."""
    phi = (
        RationalMap([0.5]),
        RationalMap([-0.5j]),
        RationalMap(ComplexPoly()),
    )
    data = WeierstrassData(phi, punctures=(INF,), label="plane")
    expected = ExpectedValues(
        d=0, tc_pi=0, num_ends=1, chi=1, co_equality=True,
        full=False, l=2, gackstatter_pi=-1, ejiri_pi=0, ejiri_equality=True,
        end_orders=(-2,),
        end_types=(EndType.PLANAR,),
        rotation_indices=(1,), embedded=(True,),
    )
    return CatalogEntry("plane", data, expected)


def enneper() -> CatalogEntry:
    """phi = ((1 - z^2)/2, i (1 + z^2)/2, z): one order -4 end, rotation index 3.

    The classical control case for strict Chern-Osserman inequality: TC = -4 pi
    against a bound of 0, with a non-embedded end.
    """
    phi = (
        RationalMap([0.5, 0.0, -0.5]),
        RationalMap([0.5j, 0.0, 0.5j]),
        RationalMap([0.0, 1.0]),
    )
    data = WeierstrassData(phi, punctures=(INF,), label="enneper")
    expected = ExpectedValues(
        d=2, tc_pi=-4, num_ends=1, chi=1, co_equality=False,
        full=True, l=0, gackstatter_pi=-1, ejiri_pi=-4, ejiri_equality=True,
        end_orders=(-4,),
        end_types=(EndType.HIGHER_ORDER,),
        rotation_indices=(3,), embedded=(False,),
    )
    return CatalogEntry("enneper", data, expected)


def generalized_jorge_meeks(m: int) -> CatalogEntry:
    """The (m+1)-ended surface in R^(2m+1) attaining both CO and Ejiri equality.

    Components (halved to match the f = 2 Re int(.) normalization):
        g_j = z^j (1 - z^(2m-2j)) / (z^(m+1) - 1)^2,
        h_j = i z^j (1 + z^(2m-2j)) / (z^(m+1) - 1)^2,   j = 0..m-1,
        last = 2 sqrt(m) z^m / (z^(m+1) - 1)^2,
    with ends at the (m+1)-th roots of unity, Gauss-map degree 2m and total
    curvature -4 m pi.
    """
    if not (1 <= int(m) <= 6):
        raise ValueError(f"m must be between 1 and 6, got {m!r}")
    m = int(m)
    base = np.zeros(m + 2, dtype=complex)
    base[0] = -1.0
    base[m + 1] = 1.0
    den = ComplexPoly(np.convolve(base, base))  # (z^(m+1) - 1)^2
    phi = []
    for j in range(m):
        g = np.zeros(2 * m - j + 1, dtype=complex)
        g[j] = 0.5
        g[2 * m - j] = -0.5
        h = np.zeros(2 * m - j + 1, dtype=complex)
        h[j] = 0.5j
        h[2 * m - j] = 0.5j
        phi.append(RationalMap(ComplexPoly(g), den))
        phi.append(RationalMap(ComplexPoly(h), den))
    last = np.zeros(m + 1, dtype=complex)
    last[m] = math.sqrt(m)
    phi.append(RationalMap(ComplexPoly(last), den))

    punctures = tuple(
        complex(math.cos(2.0 * math.pi * t / (m + 1)), math.sin(2.0 * math.pi * t / (m + 1)))
        for t in range(m + 1)
    )
    data = WeierstrassData(phi, punctures=punctures, basepoint=0j,
                           label=f"generalized-jorge-meeks-m{m}")
    n = 2 * m + 1
    num_ends = m + 1
    chi = 1 - m
    expected = ExpectedValues(
        d=2 * m, tc_pi=-4 * m, num_ends=num_ends, chi=chi, co_equality=True,
        full=True, l=0,
        gackstatter_pi=2 * chi + num_ends - 1 - n,   # = 1 - 3m
        ejiri_pi=chi + num_ends - 2 * n,             # = -4m (l = 0)
        ejiri_equality=True,
        end_orders=(-2,) * num_ends,
        end_types=(EndType.CATENOID_TYPE,) * num_ends,
        rotation_indices=(1,) * num_ends, embedded=(True,) * num_ends,
    )
    return CatalogEntry(f"generalized-jorge-meeks-m{m}", data, expected)


def holomorphic_counterexample() -> CatalogEntry:
    """The holomorphic curve z -> (z, 1/z^2) in C^2 = R^4.

    Total curvature -6 pi against a Chern-Osserman bound of -4 pi: equality
    fails because the end at 0 has order -3.  An end is embedded iff its
    order is -2 (rotation index 1), so that end is not embedded and the planar
    end at infinity is.  That the curve itself is injective is a separate
    fact, not an embeddedness of its ends.  phi = (1/2, -i/2, -z^-3, i z^-3).
    """
    phi = (
        RationalMap([0.5]),
        RationalMap([-0.5j]),
        RationalMap([-1.0], [0.0, 0.0, 0.0, 1.0]),
        RationalMap([1j], [0.0, 0.0, 0.0, 1.0]),
    )
    data = WeierstrassData(phi, punctures=(0j, INF), label="holomorphic-counterexample")
    expected = ExpectedValues(
        d=3, tc_pi=-6, num_ends=2, chi=0, co_equality=False,
        full=True, l=2, gackstatter_pi=-3, ejiri_pi=-2, ejiri_equality=False,
        end_orders=(-3, -2),
        end_types=(EndType.HIGHER_ORDER, EndType.PLANAR),
        rotation_indices=(2, 1), embedded=(False, True),
    )
    return CatalogEntry("holomorphic-counterexample", data, expected)


def entries(jm_range=(1, 2, 3, 4)):
    """The canonical catalog list used by the test and acceptance suites."""
    out = [catenoid(), plane(), enneper(), holomorphic_counterexample()]
    out.extend(generalized_jorge_meeks(m) for m in jm_range)
    return out


_FACTORIES = {
    "catenoid": lambda m=None: catenoid(),
    "plane": lambda m=None: plane(),
    "enneper": lambda m=None: enneper(),
    "holomorphic-counterexample": lambda m=None: holomorphic_counterexample(),
    "generalized-jorge-meeks": lambda m=None: generalized_jorge_meeks(2 if m is None else m),
}


def names():
    return sorted(_FACTORIES)


def get(name: str, m: int | None = None) -> CatalogEntry:
    """Catalog entry by CLI name; raises KeyError for unknown names."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        ) from None
    return factory(m)
