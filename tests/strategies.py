"""Random Weierstrass data whose answer is known by construction.

For a rational map h: S^2 -> C^k the datum

    phi = (h_1', i h_1', ..., h_k', i h_k') / 2

is null (each pair squares to h_i'^2/4 - h_i'^2/4 = 0) and has zero residues
(every h_i' is a derivative), so it is a complete minimal surface of finite
total curvature in R^2k: a complex curve (Osserman, *A Survey of Minimal
Surfaces*, 1969).  Its integers follow from h.  At a pole of h of order o
the forms have a pole of order o + 1; at infinity, where h is a polynomial
of degree D plus terms vanishing there, the order is D + 1.  A generic draw
has no branch point, so d = sum_j k_j - 2, with equality in Chern-Osserman
iff every k_j = 2.

``null_curve`` draws the family of k = 2 (R^4): 1 to 3 poles shared by h_1 and
h_2, uniform in the square [-1, 1]^2, each of order 1 or 2 in each h_i, a
polynomial part of degree 1 or 2, and standard complex normal coefficients.
``null_curves`` is the same draw as a hypothesis strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

import minsurf as ms
from conftest import poly_sum


@dataclass(frozen=True)
class NullCurve:
    """A drawn datum and its constructed integers: the Gauss-map degree and
    the end orders (-k_j), ascending."""

    data: ms.WeierstrassData
    d: int
    orders: tuple


def _normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _derivative(poles, orders, principal, poly):
    """h' as (num, den), for h = poly + sum_p sum_l principal[p][l-1] (z - p)^-l."""
    den = ms.ComplexPoly.from_roots([(p, o + 1) for p, o in zip(poles, orders)])
    num = poly.derivative() * den
    for i, (p, o, c) in enumerate(zip(poles, orders, principal)):
        others = ms.ComplexPoly.from_roots(
            [(q, oq + 1) for j, (q, oq) in enumerate(zip(poles, orders)) if j != i])
        # d/dz c_l (z - p)^-l = -l c_l (z - p)^(-l-1), over (z - p)^(o+1)
        for l in range(1, o + 1):
            num = poly_sum(num, others * ms.ComplexPoly.from_roots([(p, o - l)], lead=-l * c[l - 1]))
    return num, den


def null_curve(rng: np.random.Generator, k: int = 2) -> NullCurve:
    """One draw of the family above, in R^2k."""
    count = int(rng.integers(1, 4))
    poles = rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    phi, top = [], np.zeros(poles.size, dtype=int)
    degree = 0
    for _ in range(k):
        orders = rng.integers(1, 3, poles.size)
        principal = [_normal(rng, o) for o in orders]
        deg = int(rng.integers(1, 3))
        num, den = _derivative(poles, orders, principal, ms.ComplexPoly(_normal(rng, deg + 1)))
        phi += [ms.RationalMap(num * 0.5, den), ms.RationalMap(num * 0.5j, den)]
        top = np.maximum(top, orders)
        degree = max(degree, deg)
    ks = [int(o) + 1 for o in top] + [degree + 1]
    return NullCurve(ms.WeierstrassData(phi), d=sum(ks) - 2, orders=tuple(sorted(-x for x in ks)))


def null_curves(k: int = 2):
    """``null_curve`` as a hypothesis strategy (one generator seed per draw)."""
    return st.integers(0, 2**32 - 1).map(lambda seed: null_curve(np.random.default_rng(seed), k))
