"""Adaptive Gauss-Kronrod contour integration along puncture-avoiding paths.

The reference evaluator against which the closed-form immersion of
``weierstrass`` is cross-checked: no evaluation path of the library calls it.
Integrands are vector-valued (one component per coordinate of the immersion)
and analytic away from the punctures, so a G7/K15 pair with bisection gives
geometric convergence.  Paths are polylines whose legs are rerouted around
clearance disks of the punctures with circular detour arcs.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError

__all__ = ["LinePiece", "ArcPiece", "integrate_vector", "route_segment", "route_path"]

# Kronrod-15 abscissae (symmetric) and weights; Gauss-7 is the odd subset.
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_G_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class LinePiece:
    a: complex
    b: complex

    def point(self, t):
        return self.a + (self.b - self.a) * t

    def velocity(self, t):
        t = np.asarray(t)
        return np.full(t.shape, self.b - self.a, dtype=complex)


@dataclass(frozen=True)
class ArcPiece:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * t
        return self.center + self.radius * np.exp(1j * np.asarray(th))

    def velocity(self, t):
        th = self.theta0 + (self.theta1 - self.theta0) * np.asarray(t)
        return 1j * self.radius * (self.theta1 - self.theta0) * np.exp(1j * th)


def _gk15(f, piece, t0, t1):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    ts = mid + half * _XK
    zs = piece.point(ts)
    vals = f(zs) * piece.velocity(ts)  # (m, 15)
    ik = half * vals @ _WK
    ig = half * vals[:, _G_IDX] @ _WG
    err = float(np.max(np.abs(ik - ig)))
    return ik, err


def integrate_vector(f, pieces, epsabs: float = 1e-12, epsrel: float = 1e-10,
                     max_intervals: int = 4000):
    """Integrate the vector-valued f(z) dz along the given pieces.

    f maps a complex array of shape (k,) to an array of shape (m, k).
    Returns (value, error_estimate) with value a complex (m,) vector.
    """
    total = None
    total_err = 0.0
    for piece in pieces:
        val, err = _gk15(f, piece, 0.0, 1.0)
        heap = [(-err, 0.0, 1.0, val, err)]
        n_int = 1
        while True:
            piece_val = sum(item[3] for item in heap)
            piece_err = sum(item[4] for item in heap)
            tol = max(epsabs, epsrel * float(np.max(np.abs(piece_val))))
            if piece_err <= tol:
                break
            if n_int >= max_intervals:
                raise ConvergenceFailureError(
                    "path quadrature did not converge",
                    estimates=(piece_val, piece_err),
                )
            neg_err, a, b, _v, _e = heapq.heappop(heap)
            m = 0.5 * (a + b)
            v1, e1 = _gk15(f, piece, a, m)
            v2, e2 = _gk15(f, piece, m, b)
            heapq.heappush(heap, (-e1, a, m, v1, e1))
            heapq.heappush(heap, (-e2, m, b, v2, e2))
            n_int += 1
        piece_val = sum(item[3] for item in heap)
        piece_err = sum(item[4] for item in heap)
        total = piece_val if total is None else total + piece_val
        total_err += piece_err
    if total is None:
        total = np.zeros(0, dtype=complex)
    return total, total_err


def _wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def route_segment(z0: complex, z1: complex, punctures, clearance: float):
    """Pieces from z0 to z1 avoiding clearance disks around the punctures.

    Each disk crossed by the straight segment is bypassed along the shorter
    arc of its clearance circle.  Endpoints are assumed to respect the
    clearance themselves.
    """
    if z0 == z1:
        return []
    d = z1 - z0
    L2 = abs(d) ** 2
    events = []
    for p in punctures:
        p = complex(p)
        # |z0 + d t - p|^2 = clearance^2: quadratic in t
        w = z0 - p
        a = L2
        b = 2.0 * (w.real * d.real + w.imag * d.imag)
        c = abs(w) ** 2 - clearance * clearance
        disc = b * b - 4.0 * a * c
        if disc <= 0.0:
            continue
        sq = math.sqrt(disc)
        t1 = (-b - sq) / (2.0 * a)
        t2 = (-b + sq) / (2.0 * a)
        if t2 <= 1e-12 or t1 >= 1.0 - 1e-12:
            continue
        t1 = max(t1, 0.0)
        t2 = min(t2, 1.0)
        if t2 - t1 <= 1e-12:
            continue
        events.append((t1, t2, p))
    events.sort(key=lambda e: e[0])

    pieces = []
    cur = z0
    for t1, t2, p in events:
        entry = z0 + d * t1
        exit_ = z0 + d * t2
        if cur != entry:
            pieces.append(LinePiece(cur, entry))
        th1 = cmath.phase(entry - p)
        th2 = cmath.phase(exit_ - p)
        delta = _wrap_angle(th2 - th1)
        if delta == -math.pi:
            delta = math.pi  # diameter crossing: deterministic ccw detour
        pieces.append(ArcPiece(p, clearance, th1, th1 + delta))
        cur = exit_
    if cur != z1:
        pieces.append(LinePiece(cur, z1))
    return pieces


def route_path(waypoints, punctures, clearance: float):
    """Concatenated puncture-avoiding pieces through the waypoints."""
    pieces = []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        pieces.extend(route_segment(complex(a), complex(b), punctures, clearance))
    return pieces
