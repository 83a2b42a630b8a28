"""Per-end analysis: Laurent data, adapted frames, classification, rotation index.

At an end of metric order mu = -k the form expands as
phi = (a_{-k} t^{-k} + ... + a_{-1} t^{-1} + ...) dt in the local coordinate
t (z - p, or w = 1/z at infinity).  The null identity forces the complex
bilinear square of the leading vector to vanish, so |Re a_{-k}| = |Im a_{-k}|
and the two are orthogonal: they span the asymptotic plane of the end.  For
k = 2 the residue vector a_{-1} is real and orthogonal to that plane, and the
end is asymptotic to a catenoid piece (b = |a_{-1}| > 0) or a plane (b = 0);
for k >= 3 no such model exists.  The intersection of the end with a large
sphere, rescaled to the unit sphere, limits on a (k-1)-fold covered great
circle, giving rotation index |k - 1| and embeddedness exactly when k = 2.
That circle lies in span(Re a_{-k}, Im a_{-k}), the first two rows of the
end's frame.  The witness ``rotation_index_numeric`` reads only the end's
rotation certificate (``certify_rotation_index``), computed on every call
from the local immersion's table: it bounds the rest of the series against
its leading term on a punctured disc 0 < |t| <= r0, where |f| then falls
strictly along every ray and each cut |f| = R with R >= R0 winds k - 1 times
about that plane (Rouche, in its dog-on-a-leash form).  Both witnesses,
the index and ``limit_circle_deviation``, keep that one regime: a radius
below R0, or any radius of an end with no certificate, is refused.  The
deviation, one bound per radius of a list, is read off one certificate's
grid sums: the cut at R lies inside a radius of the disc that shrinks like
R^(-1/m), and there the rest of the series is small against its leading
term.  Magnitude
enters only through the datum's unit (``WeierstrassData.unit``): the
bilinear gates, the norms a, b and every bound of the certificate are
taken of the coefficients over it.

Near an end the immersion is the termwise-integrated Laurent series in the
local coordinate, its constant the regular part of the closed-form
immersion at the end (``weierstrass._ClosedForm.end_constant``).
``analyze_end`` and ``LocalImmersion`` index the end's one window of the
datum's Laurent table (``weierstrass._LaurentTable.window``), which
reaches the log term of every end; the table keeps one LocalImmersion per
end, which refuses an end whose series has a term past the ``TERMS`` it
reads.  The program bounds that series and never sums it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InternalConsistencyError, NumericInstabilityError
from .rational import is_infinity
from .weierstrass import (
    BILINEAR_TOL,
    TERMS,
    WeierstrassData,
    null_defect,
)

__all__ = [
    "EndType",
    "EndAnalysis",
    "LocalImmersion",
    "analyze_end",
    "RotationCertificate",
    "certify_rotation_index",
    "rotation_index_numeric",
    "limit_circle_deviation",
]

PLANAR_TOL = 1e-8     # b <= PLANAR_TOL * a classifies the end as planar
CERT_STEPS = 128      # radii r_top 2^(-i/4), i < CERT_STEPS, a rotation certificate tries
FREE_TOP = 64.0       # its r_top at an end with no other pole


class EndType(str, Enum):
    CATENOID_TYPE = "catenoid-type"
    PLANAR = "planar"
    HIGHER_ORDER = "higher-order"


# the rotation certificate's grid r = top 2^(-i/4), i < CERT_STEPS: the
# powers p = 1 .. TERMS - 1 of its series, and the rows (r / top)^p, then
# log(top / r) (r / top)^p, for p = 1 .. TERMS; row m of _CERT_SLOPES holds
# |p - m|, the slope weight of the power p for an end of index m
_CERT_P = np.arange(1, TERMS)
_CERT_ROWS = 2.0 ** (-0.25 * np.multiply.outer(np.arange(1, TERMS + 1), np.arange(CERT_STEPS)))
_CERT_ROWS = np.concatenate((_CERT_ROWS, 0.25 * math.log(2.0) * np.arange(CERT_STEPS) * _CERT_ROWS))
_CERT_SLOPES = np.abs(np.subtract.outer(np.arange(TERMS), _CERT_P)).astype(float)
_CERT_P.flags.writeable = _CERT_ROWS.flags.writeable = _CERT_SLOPES.flags.writeable = False


class LocalImmersion:
    """The immersion near one end, as the table of its integrated Laurent series.

    f(t) = 2 Re( sum_{e != -1} c_e t^{e+1}/(e+1) + c_{-1} log t ) + C over
    ``TERMS`` Laurent terms: the table _anti holds the coefficients of
    t^(mu+1) .. t^(mu+TERMS) (t^0 the log's place, zero), ``log_coeff``
    c_{-1} and ``constant`` C.  C is the closed form's regular part at the
    end (``_ClosedForm.end_constant``): the series has no t^0 term, so C is
    the value that the closed form keeps when the end's own principal part
    and log term are left out.  Valid for |t| below roughly half the
    distance to the next singularity (_cap is 0.55 of it); only Re(log)
    enters, so the log branch is immaterial (the residue vector is real).

    A window with a coefficient past the float range (a datum scaled near
    the top of it, with close punctures) raises ``NumericInstabilityError``,
    and so does an end of order k > ``TERMS`` whose series has a nonzero
    term between the window's last one and t^0: the series would be cut
    short silently.
    """

    def __init__(self, w: WeierstrassData, p):
        if is_infinity(p):
            conv = min((1.0 / abs(q) for q in w.finite_punctures if q != 0), default=math.inf)
        else:
            conv = min((abs(q - p) for q in w.finite_punctures if q != p), default=math.inf)
        # the window reaches t^-1, past the TERMS terms read when k > TERMS
        win = w._laurent.window(p)
        mu, k = win.mu, -win.mu
        C, past = win.C[:, :TERMS], win.C[:, TERMS:k]
        if not np.isfinite(C).all():
            # a coefficient past the float range has no size to bound its
            # term by, so it can be neither summed nor certified
            e = int(mu) + int(np.argmin(np.isfinite(C).all(axis=0)))
            raise NumericInstabilityError(
                f"the Laurent coefficient of t^{e} at the end leaves the float range",
                diagnostics={"end": repr(p), "exponent": e},
            )
        if past.any():
            raise NumericInstabilityError(
                f"the series at the end of order k = {k} has a nonzero term past the "
                f"TERMS = {TERMS} its local immersion reads",
                diagnostics={"end": repr(p), "k": k, "TERMS": TERMS},
            )
        self.mu = int(mu)
        exps = mu + np.arange(TERMS)
        log_mask = exps == -1
        self.log_coeff = C[:, log_mask].sum(axis=1)
        anti = np.zeros_like(C)
        anti[:, ~log_mask] = C[:, ~log_mask] / (exps[~log_mask] + 1)
        self._anti = anti
        self._cap = 0.55 * conv if math.isfinite(conv) else math.inf
        self.constant = w._closed_form.end_constant(w, p)


@dataclass(slots=True)
class EndAnalysis:
    """Laurent data, adapted frame and classification of one end.

    Kept small, since reports are kept: the vectors are copies, not views
    into the Laurent window, and ``frame`` is one (3, n) array of rows e1,
    e2, e3.
    """

    puncture: object
    mu: int
    k: int
    a_minus2: np.ndarray = field(repr=False)
    a_minus1: np.ndarray = field(repr=False)
    frame: np.ndarray = field(repr=False)
    a: float
    b: float
    classification: EndType
    _w: WeierstrassData = field(repr=False, default=None)

    @property
    def rotation_index(self) -> int:
        """The rotation index |k - 1| of the end's limit circle."""
        return abs(self.k - 1)

    @property
    def embedded(self) -> bool:
        """Whether the end is embedded: exactly when k = 2."""
        return self.k == 2

    @property
    def _local(self) -> LocalImmersion:
        """The immersion in the end's local coordinate, built once and kept by
        the datum: the analysis itself does not need it, nor a report."""
        cache = self._w._laurent.immersions
        if self.puncture not in cache:
            cache[self.puncture] = LocalImmersion(self._w, self.puncture)
        return cache[self.puncture]


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector by ``np.linalg.norm``'s own formula, the square
    root of v.v (of Re v.Re v + Im v.Im v when complex) taken of v raveled,
    so bitwise its value without its generic wrapper.  The ravel matters: a
    dot product of a strided view may sum in another order."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


def _orthonormal_completion(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Deterministic third frame vector: the standard basis vector with the
    largest component orthogonal to span(e1, e2), Gram-Schmidt normalized."""
    n = e1.size
    best_r = None
    best_norm = -1.0
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        r = u - (u @ e1) * e1 - (u @ e2) * e2
        nr = _norm(r)
        if nr > best_norm + 1e-12:
            best_r, best_norm = r, nr
    return best_r / best_norm


def analyze_end(w: WeierstrassData, p) -> EndAnalysis:
    """Classify one end and build its adapted orthonormal frame.

    Verifies the bilinear relations <a_-2, a_-2> = 0 and <a_-2, a_-1> = 0
    forced by conformality whenever mu = -2; violations beyond tolerance mean
    the datum (or the tolerance regime) is inconsistent.  The second is
    gated relative to |a_-2| (|a_-2| + |a_-1|): at two double poles delta
    apart |a_-1| is about |a_-2| / delta.  Norms and bilinear forms are
    taken of the coefficients divided by the datum's ``unit`` (exact), so
    they neither underflow nor overflow; a and b are unit * |v / unit|.
    """
    win = w._laurent.window(p)
    mu, C, k = win.mu, win.C, -win.mu
    lead = C[:, 0].copy()
    a2 = C[:, k - 2].copy() if k >= 2 else np.zeros(w.n, dtype=complex)
    a1c = C[:, k - 1] if k >= 1 else np.zeros(w.n, dtype=complex)
    a1 = a1c.real.copy()

    unit = w.unit
    lead_u, a1c_u = lead / unit, a1c / unit
    defect = float(null_defect(lead_u))
    if not defect <= BILINEAR_TOL:
        raise InternalConsistencyError(
            f"|<a_lead, a_lead>| = {defect:.3e} |a_lead|^2 at end {p!r}: nullity violated"
        )
    if mu == -2:
        size = _norm(lead_u)
        cross = complex((lead_u * a1c_u).sum())
        scale = size * (size + _norm(a1c_u))
        if abs(cross) > BILINEAR_TOL * scale:
            raise InternalConsistencyError(
                f"<a_-2, a_-1> = {cross / scale:.3e} |a_-2| (|a_-2| + |a_-1|) at end {p!r}: "
                "Laurent relations violated"
            )

    # a is nonzero, and |Im a_lead| within ~2e-9 a of it, by the nullity gate
    a = unit * _norm(lead_u.real)
    e1 = lead.real / a
    e2 = lead.imag / a
    b_vec = a1 - (a1 @ e1) * e1 - (a1 @ e2) * e2
    b = unit * _norm(b_vec / unit)
    if b > PLANAR_TOL * a:
        e3 = b_vec / b
    else:
        b = 0.0 if mu == -2 else b
        e3 = _orthonormal_completion(e1, e2)

    if mu == -2:
        classification = EndType.CATENOID_TYPE if b > PLANAR_TOL * a else EndType.PLANAR
    else:
        classification = EndType.HIGHER_ORDER
    return EndAnalysis(
        puncture=p,
        mu=mu,
        k=k,
        a_minus2=a2,
        a_minus1=a1,
        frame=np.array([e1, e2, e3]),
        a=a,
        b=b,
        classification=classification,
        _w=w,
    )


def _radii(R_list) -> list:
    """The sphere-cut radii as floats; ``ValueError`` unless there is one or
    more and each is finite and positive."""
    radii = [float(R) for R in R_list]
    if not radii or not all(0.0 < R < math.inf for R in radii):
        raise ValueError(f"sphere-cut radii must be finite and positive, got {radii!r}")
    return radii


def _end_of(w: WeierstrassData, p, end: EndAnalysis | None) -> EndAnalysis:
    """``end``, or ``analyze_end(w, p)`` when it is None; ``ValueError`` when
    ``end`` is not the analysis of the end p of w."""
    if end is None:
        return analyze_end(w, p)
    if end._w is not w or end.puncture != p:
        raise ValueError(f"end {end.puncture!r} of {end._w!r} is not the end {p!r} of {w!r}")
    return end


@dataclass(frozen=True, slots=True)
class RotationCertificate:
    """The rotation index of an end, proved on the punctured disc
    0 < |t| <= r0 of its local coordinate (``certify_rotation_index``):
    every sphere cut |f| = R with R >= R0 is one closed curve there, and its
    projection onto span(Re a_lead, Im a_lead) winds ``index`` = k - 1 times.
    ``margin`` is 1 - delta at r0, delta the bound of |f - L| / |L| on
    |t| = r0, L the leading term.  ``limit_circle_deviation`` reads the rest:
    delta and eps on the grid from r0 down, ``_delta`` and ``_eps`` (views of
    the grid sums), and ``_nu``, the departure of L from its circle."""

    index: int
    r0: float
    R0: float
    margin: float
    _delta: np.ndarray = field(repr=False, compare=False)
    _eps: np.ndarray = field(repr=False, compare=False)
    _nu: float = field(repr=False, compare=False)


def _form_bound(w: WeierstrassData, p, rho: float) -> float:
    """An upper bound, over ``w.unit``, of the 2-norm of the form's
    coefficients on the circle |t| = rho of the end's local coordinate (at
    infinity, of phi(1/w) / w^2), or inf when a pole other than the end's
    own lies on or inside that circle.  With phi = N / D, N the cleared
    numerators and D the monic common denominator (``w.cleared``), |N(z)| is
    at most |N|_F (sum_{i<L} |z|^2i)^(1/2) at the largest |z| on the circle
    (Cauchy-Schwarz per component, |N|_F the norm of all L coefficients of
    all components), and |D(z)| is at least the product over its factored
    roots of |z - pole|^mult >= (|p - pole| - rho)^mult, (rho - |p - pole|)^mult
    at the end's own pole, and (1/rho - |pole|)^mult at infinity, where
    |z| = 1/rho."""
    at_inf = is_infinity(p)
    size = 1.0 / rho if at_inf else abs(p) + rho
    own = None if at_inf else w._laurent.window(p).pole
    low = rho * rho if at_inf else 1.0
    for pole, mult in w._laurent.mult.items():
        if at_inf:
            gap = size - abs(pole)
        else:
            gap = abs(p - pole) - rho if pole != own else rho - abs(p - pole)
        if not gap > 0.0:
            return math.inf
        for _ in range(mult):
            low *= gap
    nums = w.cleared[1]
    powers = 0.0
    for _ in range(max(q.coeffs.size for q in nums)):
        powers = powers * size * size + 1.0
    top = _norm(np.concatenate([q.coeffs for q in nums]) / w.unit) * math.sqrt(powers)
    return top / low if low > 0.0 else math.inf


def _lead_split(loc: LocalImmersion, unit: float):
    """The singular values s_max, s_min of [Re A, Im A], A the leading
    antiderivative vector over ``unit``, the leading term's departure
    nu = max(1 - s_min / |Re A|, s_max / |Re A| - 1) from its circle
    (``limit_circle_deviation``), and the norms of the later terms, the log
    coefficient and the constant (over ``unit``) in and across
    span(Re A, Im A), as rows (2, TERMS + 1); None when A spans no plane.

    The plane's orthonormal basis is chol^-1 [Re A; Im A], chol the
    Cholesky factor of their Gram matrix g, and s_max^2 + s_min^2 = g11 +
    g22, s_max s_min = det chol.  The gap s_max^2 - s_min^2 is taken as
    sqrt((g11 - g22)^2 + 4 g12^2), not as sqrt((g11 + g22)^2 - 4 det g),
    which cancels where s_max and s_min are close, as nullity makes them
    at every end; s_max^2 is (g11 + g22 + gap) / 2, s_min = det chol /
    s_max, and nu is taken of s_max^2 - |Re A|^2 and |Re A|^2 - s_min^2
    from the gap too.  Each part's squares are summed over its rows in
    row order.
    """
    cols = np.concatenate((loc._anti, loc.log_coeff[:, None], loc.constant[:, None]), axis=1)
    real = (cols / unit).view(float)  # (Re, Im) column pairs
    lead = real[:, :2].T
    dots = lead @ real
    (g11, g12), (_, g22) = dots[:, :2].tolist()
    b2 = g22 - g12 * g12 / g11 if g11 > 0.0 else 0.0
    if not b2 > 0.0:
        return None
    a, b = math.sqrt(g11), math.sqrt(b2)
    to_plane = np.array([[1.0 / a, 0.0], [-g12 / (g11 * b), 1.0 / b]])
    inside = to_plane @ dots[:, 2:]
    across = real[:, 2:] - (to_plane @ lead).T @ inside
    inside *= inside
    across *= across
    squares = np.empty((2, inside.shape[1]))
    np.add(inside[0], inside[1], out=squares[0])
    np.add.reduce(across, axis=0, out=squares[1])
    norms = squares[:, 0::2] + squares[:, 1::2]
    gap, skew = math.sqrt((g11 - g22) ** 2 + 4.0 * g12 * g12), g11 - g22
    s_max = math.sqrt(0.5 * (g11 + g22 + gap))
    s_min = a * b / s_max
    nu = max((gap - skew) / (2.0 * a * (s_max + a)), (gap + skew) / (2.0 * a * (a + s_min)))
    return s_max, s_min, nu, np.sqrt(norms, out=norms)


def certify_rotation_index(w: WeierstrassData, p,
                           end: EndAnalysis | None = None) -> RotationCertificate | None:
    """The rotation index of the end p certified for every sphere-cut radius
    R >= R0, or None when no radius of its grid qualifies; computed afresh
    from the end's local immersion table.  ``end``, when given, must be the
    analysis of the end p of w (``ValueError`` otherwise).

    With m = k - 1 and A = anti_0 the leading antiderivative vector, write
    f = L + E on |t| = r, L = 2 Re(A t^-m).  Then
    2 s_min r^-m <= |L| <= 2 s_max r^-m, s_min and s_max the singular values
    of [Re A, Im A] (the nullity defect counted, not assumed away), and L
    lies in their plane.  E is split into its parts in that plane and across
    it (``_lead_split``), each bounded by 2 sum_p |anti_p| r^(p-m) over the
    table's later terms (|anti_p| the norm of that part of the vector), plus
    the terms past the table (the Cauchy estimate |c_e| <= M rho^-e, M
    ``_form_bound`` on a circle of radius rho inside the series' disc,
    counted in both parts), 2 |c| (|log r| + pi) for the log term and |C|
    for the constant; d/dlog r of each the same way, every term times its
    power.  delta, delta' (in the plane) and eps, eps' (across it) are these
    bounds over 2 s_min r^-m.  All increase with r (each term is a positive
    power of r times a constant, and (|log r| + pi) r^m increases since
    m (pi - log r) > 1 for r < 1), so where
    m (1 - delta) > delta' (1 + delta) + eps eps' at r0, the largest such r
    on the grid r_top 2^(-i/4), i < CERT_STEPS, it holds on all of (0, r0],
    and so does delta < 1.  There
    d|f|^2/dlog r <= 2 |L|^2 (delta' (1 + delta) + eps eps' - m (1 - delta))
    < 0, so |f| falls strictly along every ray, and every cut |f| = R with
    R >= R0, the bound of |f| on |t| = r0, meets each ray once.  Its
    projection onto the plane stays within delta |L| < |L| of L, which
    winds m times, so it winds m times too (Rouche, in its dog-on-a-leash
    form).  r_top is 0.9 of the chart cap, and at most 1 where there is a
    log term, so that |log r| = -log r; rho is 1.5 of the cap (the cap is
    0.55 of the distance to the next puncture).  At an end with no other
    puncture r_top is 1, or ``FREE_TOP`` without a log term, and rho is
    4 r_top.  Every quantity is taken over ``w.unit``, so r0 and the margin
    1 - delta do not depend on the datum's scale, and R0 is proportional to
    it.  No certificate when the table does not reach the log term
    (k > TERMS).
    """
    e = _end_of(w, p, end)
    loc = e._local
    m = -loc.mu - 1
    first = TERMS - m  # the first power of t past the table's antiderivative
    if m < 1 or first < 1:
        return None
    limit = 1.0 if loc.log_coeff.any() else FREE_TOP
    if math.isfinite(loc._cap):
        top, rho = min(0.9 * loc._cap, limit), 1.5 * loc._cap
    else:
        top, rho = limit, 4.0 * limit
    if not top > 0.0:
        return None
    with np.errstate(all="ignore"):
        split = _lead_split(loc, w.unit)
        if split is None:
            return None
        s_max, s_min, nu, norms = split
        size = 2.0 * s_min
        if not size > 0.0:
            return None
        norms /= size
        # delta, delta', eps, eps' times r^m: weights (part, value or slope)
        # of the rows of _CERT_ROWS, (r/top)^p and log(top/r) (r/top)^p
        weights = np.zeros((2, 2, 2 * TERMS))
        series = np.multiply(norms[:, :TERMS - 1], 2.0 * top**_CERT_P,
                             out=weights[:, 0, :TERMS - 1])
        np.multiply(series, _CERT_SLOPES[m], out=weights[:, 1, :TERMS - 1])
        # |log r| = log(top/r) - log top, as top <= 1 where there is a log term
        top_m = top**m
        for part, (log_norm, constant_norm) in zip(weights, norms[:, TERMS - 1:].tolist()):
            log_term = 2.0 * top_m * log_norm
            part[0, m - 1] += log_term * (math.pi - math.log(top)) + top_m * constant_norm
            part[0, TERMS + m - 1] = log_term
            part[1, m - 1] += log_term
        # the tail, its 1 / (1 - r/rho) taken at r = top, as a multiple of (r/top)^TERMS
        tail = (2.0 * _form_bound(w, e.puncture, rho) * rho / first * (top / rho) ** first
                * top_m / (1.0 - top / rho) / size)
        weights[:, :, TERMS - 1] = tail, first * tail
        # the rows past log(top/r) (r/top)^m have weight 0, so the product
        # stops before them: each term it leaves out would add an exact 0
        delta, d_delta, eps, d_eps = weights.reshape(4, -1)[:, :TERMS + m] @ _CERT_ROWS[:TERMS + m]
        ok = m * (1.0 - delta) > d_delta * (1.0 + delta) + eps * d_eps
        i = int(ok.argmax())
        if not ok[i]:
            return None
        d, r_m = float(delta[i]), top_m * float(_CERT_ROWS[m - 1, i])
        R0 = float(w.unit * (np.hypot(2.0 * s_max + d * size, float(eps[i]) * size) / r_m))
    if not R0 < math.inf:
        return None
    return RotationCertificate(index=m, r0=top * float(_CERT_ROWS[0, i]), R0=R0,
                               margin=1.0 - d, _delta=delta[i:], _eps=eps[i:], _nu=nu)


def _certified(w: WeierstrassData, p, radii: list, end: EndAnalysis | None,
               witness: str) -> tuple[EndAnalysis, RotationCertificate]:
    """The end's analysis and rotation certificate, when every radius is at
    least its R0; otherwise ``NumericInstabilityError``, its text naming the
    ``witness`` refused, whose diagnostics name the radii below R0, R0 (None
    for an end with no certificate) and the end.  The one regime of both
    witnesses."""
    e = _end_of(w, p, end)
    cert = certify_rotation_index(w, p, e)
    below = sorted(R for R in radii if cert is None or R < cert.R0)
    if below:
        reason = ("the end has no rotation certificate" if cert is None
                  else f"below the end's certified radius R0 = {cert.R0:g}")
        raise NumericInstabilityError(
            f"{witness} at R = {', '.join(f'{R:g}' for R in below)}: {reason}",
            diagnostics={"R": below, "R0": None if cert is None else cert.R0,
                         "end": repr(e.puncture)},
        )
    return e, cert


def rotation_index_numeric(w: WeierstrassData, p, R_list,
                           end: EndAnalysis | None = None) -> int:
    """Winding number of the sphere cut of the end, read from its rotation
    certificate (``certify_rotation_index``).

    The cut {|f| = R} at every radius R >= R0 winds k - 1 times about
    span(e1, e2) = span(Re a_lead, Im a_lead), the plane of its limit circle,
    proved on the punctured disc 0 < |t| <= r0 of the local coordinate; no
    cut is solved.  A radius below R0, or any radius of an end with no
    certificate, raises ``NumericInstabilityError`` whose diagnostics name
    those radii, R0 (None without a certificate) and the end.  ``end``,
    when given, must be the analysis of the end p of w (``ValueError``
    otherwise).
    """
    return _certified(w, p, _radii(R_list), end, "rotation index")[1].index


def limit_circle_deviation(w: WeierstrassData, p, R_list,
                           end: EndAnalysis | None = None) -> list:
    """Proved bounds of the sup distance of the rescaled sphere cut
    (1/R)(|f| = R) from its limit circle, the (k-1)-fold model curve
    -(e1 cos m theta + e2 sin m theta), m = k - 1, one per radius R of
    ``R_list``, read off the end's rotation certificate, computed once per
    call; no series is evaluated.

    With f = L + E as in ``certify_rotation_index`` and eta = hypot(delta,
    eps), |E| <= eta |L| on |t| = r.  As delta and eps increase with r,
    |f| <= R0 (r0/|t|)^m on the disc, so the cut lies in |t| <= r_R =
    r0 (R0/R)^(1/m); r_i is the smallest grid radius at or above r_R, found
    by comparing its (r_i/r0)^m, a row of the grid, with R0/R.  There
    |f/|f| - L/|L|| <= 2 |E|/|L| <= 2 eta(r_i).  The model is
    L / (2 |Re A| r^-m), and |L| / (2 r^-m) = |Re A cos m theta + Im A sin
    m theta| takes every value of [s_min, s_max] as theta turns, |Re A|
    (theta = 0) among them, so the sup of |L/|L| - model| is
    nu = max(1 - s_min/|Re A|, s_max/|Re A| - 1), of the order of the
    leading vector's nullity defect.  The bound is min(2, 2 eta(r_i) + nu):
    delta < 1 keeps f within a right angle of L, so 2 bounds it too.

    The radii are checked as by ``rotation_index_numeric``, and a radius
    below the end's R0, or any radius of an end with no certificate, is
    refused as there.  ``end``, when given, must be the analysis of the end
    p of w (``ValueError`` otherwise).
    """
    radii = _radii(R_list)
    cert = _certified(w, p, radii, end, "limit-circle deviation")[1]
    rows = _CERT_ROWS[cert.index - 1, :cert._delta.size]
    bounds = []
    for R in radii:
        j = int(np.count_nonzero(rows >= cert.R0 / R)) - 1
        bounds.append(min(2.0, 2.0 * math.hypot(cert._delta[j], cert._eps[j]) + cert._nu))
    return bounds
