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
about that plane (Rouche, in its dog-on-a-leash form).  A radius below R0,
or any radius of an end with no certificate, is refused, not sampled.
``limit_circle_deviation`` solves the cut at its one radius by Newton on the
grid of N angles 2 pi j / N.
Magnitude enters only through the datum's unit (``WeierstrassData.unit``):
the bilinear gates, the norms a, b and every bound of the certificate are
taken of the coefficients over it.

Near-end immersion values are computed from the termwise-integrated Laurent
series in the local coordinate, its constant the regular part of the
closed-form immersion at the end (``weierstrass._ClosedForm.end_constant``);
this is the immersion itself to spectral accuracy, and working in t keeps
full relative precision at radii far below the evaluation clearance, where
z = p + t would round t away.  Coefficients are prefixes of the datum's
Laurent table; it keeps one LocalImmersion per end, which refuses an end
whose series has a term past the ``TERMS`` it reads.  The sphere cut
|f| = R (Newton on log r per angle, with the exact radial derivative) reads
the series through one polar evaluator, ``_polar_jet``, on a grid of n
angles 2 pi j / n with one log radius per angle; each evaluator builds its
own phases cos p theta, sin p theta and its own coefficient matrix over the
terms it keeps, those above 1e-18 of the leading one.
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
    _pole_mult,
    form_coefficient_window,
    metric_order_at,
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
TAIL_REL = 1e-18      # local-immersion terms bounded below TAIL_REL * leading are cut
CUT_ANGLES = 16       # angles of a sphere cut per turn of its limit circle
CERT_STEPS = 128      # radii r_top 2^(-i/4), i < CERT_STEPS, a rotation certificate tries
FREE_TOP = 64.0       # its r_top at an end with no other pole


class EndType(str, Enum):
    CATENOID_TYPE = "catenoid-type"
    PLANAR = "planar"
    HIGHER_ORDER = "higher-order"


def _phases(powers: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """cos p theta and sin p theta of every power p and angle theta: one cos
    and one sin of the (power x angle) outer product, a (2, K, N) array."""
    angles = np.multiply.outer(powers, thetas)
    table = np.empty((2,) + angles.shape)
    np.cos(angles, out=table[0])
    np.sin(angles, out=table[1])
    return table


# the rotation certificate's grid r = top 2^(-i/4), i < CERT_STEPS: the
# powers p = 1 .. TERMS - 1 of its series, and the rows (r / top)^p, then
# log(top / r) (r / top)^p, for p = 1 .. TERMS
_CERT_P = np.arange(1, TERMS)
_CERT_ROWS = 2.0 ** (-0.25 * np.multiply.outer(np.arange(1, TERMS + 1), np.arange(CERT_STEPS)))
_CERT_ROWS = np.concatenate((_CERT_ROWS, 0.25 * math.log(2.0) * np.arange(CERT_STEPS) * _CERT_ROWS))
_CERT_P.flags.writeable = _CERT_ROWS.flags.writeable = False


def _jet_coef(anti: np.ndarray, lo: int, log: np.ndarray, constant: np.ndarray) -> np.ndarray:
    """The stacked [value; derivative] coefficients of ``_polar_jet``'s rows,
    a (2n, 2K + 3) matrix: columns for the K cos rows, the K sin rows, then
    x, theta and 1, the constant in the value rows' last column."""
    n, K = anti.shape
    powers = lo + np.arange(K)
    anti = 2.0 * anti
    log = 2.0 * log
    coef = np.zeros((2, n, 2 * K + 3))
    for block, c in zip(coef, (anti, anti * powers)):
        block[:, :K], block[:, K:2 * K] = c.real, -c.imag
    coef[0, :, 2 * K] = coef[1, :, 2 * K + 2] = log.real
    coef[0, :, 2 * K + 1] = -log.imag
    coef[0, :, 2 * K + 2] = constant
    return coef.reshape(2 * n, -1)


def _polar_jet(coef: np.ndarray, lo: int, n: int):
    """The polar evaluator of an end's series on the grid of n angles
    theta_j = 2 pi j / n: ``jet``.

    The series is f(t) = 2 Re(sum_p anti_p t^(lo+p) + log log t) + constant,
    with anti a (dim, K) table and log, constant (dim,) vectors, given by its
    ``_jet_coef`` matrix.  ``jet(x)`` returns f and df/dlog r at the points
    e^x e^{i theta}, one log-radius x per angle, as two (dim, n) arrays.
    With t^p = r^p e^{i p theta}, each term is
    2 Re(c t^p) = r^p (2 Re c cos p theta - 2 Im c sin p theta), and d/dlog r
    multiplies it by p.  The log term is 2 (Re c x - Im c theta), theta on
    the principal branch (-pi, pi], with derivative 2 Re c.  So the rows
    [r^p cos p theta; r^p sin p theta; x; theta; 1] against the stacked
    coefficients give both in one real matrix product.  The phases
    cos p theta, sin p theta of the K powers are taken once (``_phases``);
    only r^p (by row products of r) and x change between calls.
    """
    dim = coef.shape[0] // 2
    K = (coef.shape[1] - 3) // 2
    thetas = 2.0 * math.pi * np.arange(n) / n
    phases = _phases(lo + np.arange(K), thetas)
    rows = np.empty((2 * K + 3, n))
    rows[2 * K + 1] = np.angle(np.exp(1j * thetas))
    rows[2 * K + 2] = 1.0
    scaled = rows[:2 * K].reshape(2, K, n)
    powers_of_r = np.empty((K, n))

    def jet(x: np.ndarray):
        r = np.exp(x)
        powers_of_r[0] = np.exp(lo * x)
        for j in range(1, K):
            np.multiply(powers_of_r[j - 1], r, out=powers_of_r[j])
        np.multiply(phases, powers_of_r, out=scaled)
        rows[2 * K] = x
        out = coef @ rows
        return out[:dim], out[dim:]

    return jet


class LocalImmersion:
    """The immersion near one end, via its integrated Laurent expansion.

    f(t) = 2 Re( sum_{e != -1} c_e t^{e+1}/(e+1) + c_{-1} log t ) + C over
    ``TERMS`` Laurent terms.  The constant C is the closed form's regular
    part at the end (``_ClosedForm.end_constant``): the series has no t^0
    term, so C is the value that the closed form keeps when the end's own
    principal part and log term are left out.  Valid for |t| below roughly
    half the distance to the next singularity; only Re(log) enters, so the
    log branch is immaterial (the residue vector is real).

    Every evaluation is one call of the polar evaluator ``_polar_jet`` on
    the leading ``K`` terms, on a grid of angles and at one log radius per
    angle.  Tail terms whose bound max|c| max|t|^p on the evaluation set is
    below ``TAIL_REL`` of the leading term's are dropped: at sphere-cut radii
    most of them are.  A window with a coefficient past the float range (a
    datum scaled near the top of it, with close punctures) raises
    ``NumericInstabilityError``, and so does an end of order k > ``TERMS``
    whose series has a nonzero term between the window's last one and t^0:
    the series would be cut short silently.
    """

    def __init__(self, w: WeierstrassData, p):
        if is_infinity(p):
            conv = min((1.0 / abs(q) for q in w.finite_punctures if q != 0), default=math.inf)
        else:
            conv = min((abs(q - p) for q in w.finite_punctures if q != p), default=math.inf)
        # the table reaches t^-1, past the window of TERMS terms when k > TERMS
        k = -metric_order_at(w, p)
        mu, C = form_coefficient_window(w, p, max(TERMS, k) - 1)
        C, past = C[:, :TERMS], C[:, TERMS:]
        if not np.isfinite(C).all():
            # a coefficient past the float range has no size to bound its
            # term by, so it can be neither summed nor dropped as tail
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
        # antiderivative coefficients of t^lo .. t^(lo+TERMS-1); t^0 (the log) is zero
        self._lo = self.mu + 1
        anti = np.zeros_like(C)
        anti[:, ~log_mask] = C[:, ~log_mask] / (exps[~log_mask] + 1)
        self._anti = anti
        # log max|c_p| over the leading (first nonzero) term's, and p - p_lead
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.max(np.abs(anti), axis=0))
        lead = int(np.argmax(np.isfinite(log_mag)))
        self._log_rel_mag = log_mag - log_mag[lead]
        self._rel_power = np.arange(TERMS) - lead
        self._cap = 0.55 * conv if math.isfinite(conv) else math.inf
        self.constant = w._closed_form.end_constant(w, p)

    def _kept_terms(self, r_max: float) -> int:
        """Terms kept for |t| <= r_max: through the last whose bound is at
        least TAIL_REL of the leading term's (log of the ratio below)."""
        log_r = math.log(r_max) if r_max > 0.0 else -math.inf
        above = self._log_rel_mag + self._rel_power * log_r >= math.log(TAIL_REL)
        return above.size - int(np.argmax(above[::-1]))

    def radial_jet(self, n: int, r_max: float):
        """The immersion's evaluator: ``(jet, K)``, ``jet`` the polar
        evaluator of the ``K`` terms kept for |t| <= r_max on the grid of n
        angles 2 pi j / n."""
        K = self._kept_terms(r_max)
        coef = _jet_coef(self._anti[:, :K], self._lo, self.log_coeff, self.constant)
        return _polar_jet(coef, self._lo, n), K


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
    depth = max(8, 4 - metric_order_at(w, p))
    mu, C = form_coefficient_window(w, p, depth)
    k = -mu
    lead = C[:, 0].copy()
    if mu == -2:
        a2 = lead
    else:
        a2 = C[:, -2 - mu].copy() if 0 <= -2 - mu <= depth else np.zeros(w.n, dtype=complex)
    a1c = C[:, -1 - mu] if 0 <= -1 - mu <= depth else np.zeros(w.n, dtype=complex)
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
        cross = complex(np.sum(lead_u * a1c_u))
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


def _solve_sphere_cut(loc: LocalImmersion, e: EndAnalysis, n: int, R: float):
    """Solve |f(r e^{i theta})| = R for r on the grid of n angles
    theta_j = 2 pi j / n; returns (r, f(r e^{i theta})), of shape (n,) and
    (dim, n).

    Newton on x = log r, vectorized over all angles, with the exact slope
    g' = <u, df/dx> / (R |u|^2) of g = log|u| = log(u.u) / 2, u = f / R,
    from the local immersion's polar evaluator; u.u is one einsum, which the
    slope reuses, and f is divided by R before it is squared, so no scale of
    the surface under- or overflows it.  It starts from the asymptotic radius
    (|f| grows like 2a/((k-1) r^{k-1}) toward the end) and stops at
    max|g| < 1e-13; where g' is not finite and negative the step takes the
    asymptotic slope -(k-1).  An iterate that runs off to a non-finite cut
    ends the solve, which then raises ``NumericInstabilityError`` like one
    that stalls, naming R; the non-finite values are caught there, so numpy
    warns of none of them.
    The evaluator keeps the terms needed at twice the starting radius;
    should the solved radius need more, it takes them and the solve goes on.
    The immersion values are those of the converged step, so callers need
    not evaluate them again.
    """
    k, a = e.k, e.a
    r0 = (2.0 * a / ((k - 1) * R)) ** (1.0 / (k - 1))
    cap = loc._cap * 0.9
    x_cap = math.log(cap)
    x = np.full(n, math.log(min(r0, cap)))
    jet, K = loc.radial_jet(n, min(2.0 * r0, cap))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(80):
            f, df = jet(x)
            u = f / R
            sq = np.einsum("ij,ij->j", u, u)
            g = 0.5 * np.log(sq)
            resid = float(np.abs(g).max())
            if resid < 1e-13:
                r_top = math.exp(float(np.max(x)))
                if loc._kept_terms(r_top) <= K:
                    return np.exp(x), f
                jet, K = loc.radial_jet(n, r_top)
                continue
            if not math.isfinite(resid):
                break
            slope = np.einsum("ij,ij->j", u, df) / (sq * R)
            newton = np.isfinite(slope) & (slope < 0.0)
            x = np.minimum(x - g / np.where(newton, slope, 1.0 - k), x_cap)
    if not resid <= 1e-9:
        raise NumericInstabilityError(
            f"sphere-cut radius solve stalled at residual {resid:.3e}",
            diagnostics={"R": R, "end": repr(e.puncture)},
        )
    return np.exp(x), jet(x)[0]


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
    |t| = r0, L the leading term."""

    index: int
    r0: float
    R0: float
    margin: float


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
    own = None if at_inf else w._poles.pole_point(p)
    low = rho * rho if at_inf else 1.0
    for pole, members in w._poles.poles.items():
        if at_inf:
            gap = size - abs(pole)
        else:
            gap = abs(p - pole) - rho if pole != own else rho - abs(p - pole)
        if not gap > 0.0:
            return math.inf
        for _ in range(_pole_mult(members)):
            low *= gap
    nums = w.cleared[1]
    powers = 0.0
    for _ in range(max(q.coeffs.size for q in nums)):
        powers = powers * size * size + 1.0
    top = _norm(np.concatenate([q.coeffs for q in nums]) / w.unit) * math.sqrt(powers)
    return top / low if low > 0.0 else math.inf


def _lead_split(loc: LocalImmersion, unit: float):
    """The singular values s_max, s_min of [Re A, Im A], A the leading
    antiderivative vector over ``unit``, and the norms of the later terms,
    the log coefficient and the constant (over ``unit``) in and across
    span(Re A, Im A), as rows (2, TERMS + 1); None when A spans no plane.

    The plane's orthonormal basis is chol^-1 [Re A; Im A], chol the
    Cholesky factor of their Gram matrix, and s_max^2 + s_min^2 = |Re A|^2 +
    |Im A|^2, s_max s_min = det chol.
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
    squares = np.array([np.einsum("ij,ij->j", inside, inside),
                        np.einsum("ij,ij->j", across, across)])
    frob = g11 + g22
    s_max = math.sqrt(0.5 * (frob + math.sqrt(max(frob * frob - 4.0 * (a * b) ** 2, 0.0))))
    return s_max, a * b / s_max, np.sqrt(squares[:, 0::2] + squares[:, 1::2])


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
    (k >= TERMS).
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
        s_max, s_min, norms = split
        size = 2.0 * s_min
        if not size > 0.0:
            return None
        norms = norms / size
        # delta, delta', eps, eps' times r^m: weights (part, value or slope)
        # of the rows of _CERT_ROWS, (r/top)^p and log(top/r) (r/top)^p
        weights = np.zeros((2, 2, 2 * TERMS))
        series = weights[:, 0, :TERMS - 1] = norms[:, :TERMS - 1] * (2.0 * top**_CERT_P)
        weights[:, 1, :TERMS - 1] = series * np.abs(_CERT_P - m)
        # |log r| = log(top/r) - log top, as top <= 1 where there is a log term
        log_term = 2.0 * top**m * norms[:, TERMS - 1]
        weights[:, 0, m - 1] += log_term * (math.pi - math.log(top)) + top**m * norms[:, TERMS]
        weights[:, 0, TERMS + m - 1] = log_term
        weights[:, 1, m - 1] += log_term
        # the tail, its 1 / (1 - r/rho) taken at r = top, as a multiple of (r/top)^TERMS
        tail = (2.0 * _form_bound(w, e.puncture, rho) * rho / first * (top / rho) ** first
                * top**m / (1.0 - top / rho) / size)
        weights[:, :, TERMS - 1] = tail, first * tail
        delta, d_delta, eps, d_eps = weights.reshape(4, -1) @ _CERT_ROWS
        ok = m * (1.0 - delta) > d_delta * (1.0 + delta) + eps * d_eps
        i = int(np.argmax(ok))
        if not ok[i]:
            return None
        r_m = top**m * _CERT_ROWS[m - 1, i]
        R0 = float(w.unit * (np.hypot(2.0 * s_max + delta[i] * size, eps[i] * size) / r_m))
    if not R0 < math.inf:
        return None
    return RotationCertificate(index=m, r0=top * float(_CERT_ROWS[0, i]), R0=R0,
                               margin=float(1.0 - delta[i]))


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
    radii = _radii(R_list)
    e = _end_of(w, p, end)
    cert = certify_rotation_index(w, p, e)
    below = sorted(R for R in radii if cert is None or R < cert.R0)
    if below:
        reason = ("the end has no rotation certificate" if cert is None
                  else f"below the end's certified radius R0 = {cert.R0:g}")
        raise NumericInstabilityError(
            f"rotation index at R = {', '.join(f'{R:g}' for R in below)}: {reason}",
            diagnostics={"R": below, "R0": None if cert is None else cert.R0,
                         "end": repr(e.puncture)},
        )
    return cert.index


def limit_circle_deviation(w: WeierstrassData, p, R: float,
                           end: EndAnalysis | None = None) -> float:
    """Sup distance of the normalized sphere cut from its limit circle.

    In the frame aligned with the leading coefficient the cut converges to
    the (k-1)-fold covered unit circle; the model curve below carries the
    phase that the integrated leading term actually produces.  The cut is
    solved on the grid of N = CUT_ANGLES max(k - 1, 4) angles
    (``CUT_ANGLES`` per turn of the limit circle, at least four turns'
    worth).  ``end``, when given, must be the analysis of the end p of w
    (``ValueError`` otherwise).
    """
    (R,) = _radii((R,))
    e = _end_of(w, p, end)
    n = CUT_ANGLES * max(e.k - 1, 4)
    cut = _solve_sphere_cut(e._local, e, n, R)[1]
    alpha = (e.k - 1) * (2.0 * math.pi * np.arange(n) / n)
    model = -(np.multiply.outer(e.frame[0], np.cos(alpha))
              + np.multiply.outer(e.frame[1], np.sin(alpha)))
    return float(np.max(np.linalg.norm(cut / R - model, axis=0)))
