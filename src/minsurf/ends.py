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
end's frame, so the numeric witness ``rotation_index_numeric`` counts the
turns of each cut projected onto that plane, sampled at ``CUT_ANGLES`` angles
per turn of the circle.  The cuts at all its radii are one Newton batch on
the grid of N angles 2 pi j / N, projected and turned by one product and one
reshape.  Magnitude enters only through the datum's unit
(``WeierstrassData.unit``): the bilinear gates and the norms a, b are taken of
the coefficients over it.

Near-end immersion values are computed from the termwise-integrated Laurent
series in the local coordinate, its constant fixed by the closed-form
immersion at a reference radius; this is the immersion itself to spectral
accuracy, and working in t keeps full relative precision at radii far below
the evaluation clearance, where z = p + t would round t away.  Coefficients
are prefixes of the datum's Laurent table; it keeps one LocalImmersion per
end.  Every reader of an end's series -- immersion values and the sphere
cuts |f| = R (Newton on log r per angle, with the exact radial derivative)
-- goes through one polar evaluator, ``_polar_jet``, of t as angle and log
radius.  The sphere cuts read its phases cos p theta, sin p theta from one
read-only table per angle count N for the whole process, keyed by no datum
and widened by the powers it lacks (``_grid_phases``); a caller at other
angles takes them directly, one cos and one sin of the (power x angle)
outer product.  The local immersion keeps the terms above 1e-18 of the
leading one, and its stacked coefficient matrix is built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    EvaluationNearSingularityError,
    InternalConsistencyError,
    NumericInstabilityError,
)
from .rational import is_infinity
from .weierstrass import (
    BILINEAR_TOL,
    WeierstrassData,
    form_coefficient_window,
    immersion_eval,
    metric_order_at,
    null_defect,
)

__all__ = [
    "EndType",
    "EndAnalysis",
    "LocalImmersion",
    "analyze_end",
    "rotation_index_numeric",
    "limit_circle_deviation",
]

PLANAR_TOL = 1e-8     # b <= PLANAR_TOL * a classifies the end as planar
TAIL_REL = 1e-18      # local-immersion terms bounded below TAIL_REL * leading are cut
CUT_ANGLES = 16       # angles of a rotation-index sphere cut per turn of its limit circle


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


def _angle_phases(lo: int, K: int, thetas: np.ndarray):
    """The phases of the powers lo .. lo + K - 1 at arbitrary angles, taken
    directly, as ``_polar_jet`` reads them: (2, K, 1, N), and the principal
    angles of thetas."""
    return _phases(lo + np.arange(K), thetas)[:, :, None], np.angle(np.exp(1j * thetas))


# n -> (first power, (2, P, n) phases of the powers first .. first + P - 1 at
# the angles 2 pi j / n, their principal angles), each array read-only
_GRID_PHASES: dict = {}


def _grid_phases(n: int, lo: int, K: int):
    """The phases of the powers lo .. lo + K - 1 on the grid of n angles
    2 pi j / n: a read-only (2, K, 1, n) slice of one table per n for the
    whole process, keyed by no datum, and the grid's principal angles.  The
    table holds the powers asked for so far; a power outside them widens it
    by the missing rows alone, so each row is taken once."""
    first, table, principal = _GRID_PHASES.get(n, (lo, np.empty((2, 0, n)), None))
    top = first + table.shape[1]
    if lo < first or lo + K > top:
        thetas = 2.0 * math.pi * np.arange(n) / n
        parts = [_phases(np.arange(lo, first), thetas)] if lo < first else []
        parts.append(table)
        if lo + K > top:
            parts.append(_phases(np.arange(top, lo + K), thetas))
        first, table = min(lo, first), np.concatenate(parts, axis=1)
        if principal is None:
            principal = np.angle(np.exp(1j * thetas))
            principal.flags.writeable = False
        table.flags.writeable = False
        _GRID_PHASES[n] = first, table, principal
    return table[:, lo - first:lo - first + K, None], principal


def _jet_coef(anti: np.ndarray, lo: int, log: np.ndarray) -> np.ndarray:
    """The stacked [value; derivative] coefficients of ``_polar_jet``'s rows,
    a (2n, 2K + 3) matrix: columns for the K cos rows, the K sin rows, then
    x, theta and 1.  The constant, the value rows' last column, is left 0."""
    n, K = anti.shape
    powers = lo + np.arange(K)
    anti = 2.0 * anti
    log = 2.0 * log
    coef = np.zeros((2, n, 2 * K + 3))
    for block, c in zip(coef, (anti, anti * powers)):
        block[:, :K], block[:, K:2 * K] = c.real, -c.imag
    coef[0, :, 2 * K] = coef[1, :, 2 * K + 2] = log.real
    coef[0, :, 2 * K + 1] = -log.imag
    return coef.reshape(2 * n, -1)


def _polar_jet(coef: np.ndarray, lo: int, phases: np.ndarray, principal: np.ndarray,
               count: int = 1):
    """The polar evaluator of an end's series at fixed angles: ``jet``.

    The series is f(t) = 2 Re(sum_p anti_p t^(lo+p) + log log t) + constant,
    with anti an (n, K) table and log, constant (n,) vectors, given by its
    ``_jet_coef`` matrix.  ``jet(x)`` returns f and df/dlog r at the points
    e^x e^{i theta}, one log-radius x per angle, the N angles of ``phases``
    repeated ``count`` times, as two (n, count N) arrays.  With
    t^p = r^p e^{i p theta}, each term is
    2 Re(c t^p) = r^p (2 Re c cos p theta - 2 Im c sin p theta), and d/dlog r
    multiplies it by p.  The log term is 2 (Re c x - Im c theta), theta on
    the principal branch (-pi, pi] (``principal``), with derivative 2 Re c.
    So the rows [r^p cos p theta; r^p sin p theta; x; theta; 1] against the
    stacked coefficients give both in one real matrix product.  The phases
    cos p theta, sin p theta, a (2, K, 1, N) array, are given: from
    ``_grid_phases`` on a grid, from ``_angle_phases`` at other angles.  Only
    r^p (by row products of r, shape (K, count, N), broadcast against the
    phases) and x change between calls.
    """
    n = coef.shape[0] // 2
    K, N = phases.shape[1], principal.size
    rows = np.empty((2 * K + 3, count * N))
    rows[2 * K + 1].reshape(count, N)[:] = principal
    rows[2 * K + 2] = 1.0
    scaled = rows[:2 * K].reshape(2, K, count, N)
    powers_of_r = np.empty((K, count * N))
    grid_powers = powers_of_r.reshape(K, count, N)

    def jet(x: np.ndarray):
        r = np.exp(x)
        powers_of_r[0] = np.exp(lo * x)
        for j in range(1, K):
            np.multiply(powers_of_r[j - 1], r, out=powers_of_r[j])
        np.multiply(phases, grid_powers, out=scaled)
        rows[2 * K] = x
        out = coef @ rows
        return out[:n], out[n:]

    return jet


class LocalImmersion:
    """The immersion near one end, via its integrated Laurent expansion.

    f(t) = 2 Re( sum_{e != -1} c_e t^{e+1}/(e+1) + c_{-1} log t ) + C over 41
    Laurent terms, with the constant C fixed once by matching the closed-form
    immersion (``immersion_eval``) at a reference radius.  Valid for |t|
    below roughly half the distance to the next singularity; only Re(log)
    enters, so the log branch is immaterial (the residue vector is real).

    Every evaluation, the anchor included, is one call of the polar
    evaluator ``_polar_jet`` on the leading ``K`` terms, t given by its angle
    and log radius; the stacked coefficient matrix of all 41 terms is built
    once, its constant column written when the anchor has fixed C, and an
    evaluator takes the columns of its K.  Tail terms whose bound
    max|c| max|t|^p on the evaluation set is below ``TAIL_REL`` of the
    leading term's are dropped: at sphere-cut radii most of the 40 are.  A
    window with a coefficient past the float range (a datum scaled near the
    top of it, with close punctures) raises ``NumericInstabilityError``.
    """

    def __init__(self, w: WeierstrassData, p):
        if is_infinity(p):
            conv = min((1.0 / abs(q) for q in w.finite_punctures if q != 0), default=math.inf)
        else:
            conv = min((abs(q - p) for q in w.finite_punctures if q != p), default=math.inf)
        mu, C = form_coefficient_window(w, p, 40)
        if not np.isfinite(C).all():
            # a coefficient past the float range has no size to bound its
            # term by, so it can be neither summed nor dropped as tail
            e = int(mu) + int(np.argmin(np.isfinite(C).all(axis=0)))
            raise NumericInstabilityError(
                f"the Laurent coefficient of t^{e} at the end leaves the float range",
                diagnostics={"end": repr(p), "exponent": e},
            )
        self.mu = int(mu)
        exps = mu + np.arange(C.shape[1])
        log_mask = exps == -1
        self.log_coeff = C[:, log_mask].sum(axis=1)
        # antiderivative coefficients of t^lo .. t^(lo+40); t^0 (the log) is zero
        self._lo = self.mu + 1
        anti = np.zeros_like(C)
        anti[:, ~log_mask] = C[:, ~log_mask] / (exps[~log_mask] + 1)
        self._anti = anti
        # log max|c_p| over the leading (first nonzero) term's, and p - p_lead
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.max(np.abs(anti), axis=0))
        lead = int(np.argmax(np.isfinite(log_mag)))
        self._log_rel_mag = log_mag - log_mag[lead]
        self._rel_power = np.arange(anti.shape[1]) - lead
        self.r_ref = 0.5 if not math.isfinite(conv) else float(min(0.2 * conv, 0.5))
        self._cap = 0.55 * conv if math.isfinite(conv) else math.inf
        z_ref = 1.0 / self.r_ref if is_infinity(p) else complex(p) + self.r_ref
        self._coef = _jet_coef(anti, self._lo, self.log_coeff)
        K = self._kept_terms(self.r_ref)
        series = _polar_jet(self._columns(K), self._lo, *_angle_phases(self._lo, K, np.zeros(1)))
        self.constant = immersion_eval(w, z_ref) - series(np.log([self.r_ref]))[0][:, 0]
        self._coef[:w.n, -1] = self.constant

    def _kept_terms(self, r_max: float) -> int:
        """Terms kept for |t| <= r_max: through the last whose bound is at
        least TAIL_REL of the leading term's (log of the ratio below)."""
        log_r = math.log(r_max) if r_max > 0.0 else -math.inf
        above = self._log_rel_mag + self._rel_power * log_r >= math.log(TAIL_REL)
        return above.size - int(np.argmax(above[::-1]))

    def _check_radius(self, r_max: float) -> None:
        if r_max > self._cap:
            raise EvaluationNearSingularityError(
                f"local coordinate beyond the chart radius {self._cap:.3g}"
            )

    def _columns(self, K: int) -> np.ndarray:
        """The coefficient matrix of the leading K terms: their columns of
        the one built over all 41."""
        T = self._anti.shape[1]
        c = self._coef
        return np.concatenate((c[:, :K], c[:, T:T + K], c[:, 2 * T:]), axis=1)

    def radial_jet(self, n: int, count: int, r_max: float):
        """The sphere cuts' evaluator: ``(jet, K)``, ``jet`` the polar
        evaluator of the ``K`` terms that ``__call__`` keeps for |t| <= r_max,
        at ``count`` repeats of the grid of n angles 2 pi j / n, its phases
        read from the process-wide table (``_grid_phases``)."""
        K = self._kept_terms(r_max)
        return _polar_jet(self._columns(K), self._lo, *_grid_phases(n, self._lo, K), count), K

    def __call__(self, t) -> np.ndarray:
        """Immersion values at local coordinates t; shape (n, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        r_max = float(np.max(np.abs(t)))
        self._check_radius(r_max)
        K = self._kept_terms(r_max)
        jet = _polar_jet(self._columns(K), self._lo, *_angle_phases(self._lo, K, np.angle(t)))
        return jet(np.log(np.abs(t)))[0]


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


def _solve_sphere_radii(loc: LocalImmersion, e: EndAnalysis, n: int, radii):
    """Solve |f(r e^{i theta})| = R for r on the grid of n angles
    theta_j = 2 pi j / n, at every R in ``radii``; returns (r, f(r e^{i theta})),
    the cuts laid side by side in the order of ``radii``, of shape (count n,)
    and (dim, count n).

    The cuts at all radii are one batch, their phases read from one table per
    n for the whole process (``_grid_phases``).  Newton on x = log r,
    vectorized over all angles, with the exact slope
    g' = <u, df/dx> / (R |u|^2) of g = log|u| = log(u.u) / 2, u = f / R,
    from the local immersion's polar evaluator; u.u is one einsum, which the
    slope reuses, and f is divided by R before it is squared, so no scale of
    the surface under- or overflows it.  It starts, per radius, from the
    asymptotic radius (|f| grows like 2a/((k-1) r^{k-1}) toward the end) and
    stops at max|g| < 1e-13; where g' is not finite and negative the step
    takes the asymptotic slope -(k-1).  An iterate that runs off to a
    non-finite cut ends the solve, which then raises
    ``NumericInstabilityError`` like one that stalls, naming every R with an
    angle left unsolved; the non-finite values are caught there, so numpy
    warns of none of them.
    The evaluator keeps the terms needed at twice the largest starting
    radius; should a solved radius need more, it takes them and the solve
    goes on.  The immersion values are those of the converged step, so
    callers need not evaluate them again.
    """
    k, a = e.k, e.a
    R = np.array(radii, dtype=float)
    count = R.size
    per_radius = R[:, None]
    r0 = (2.0 * a / ((k - 1) * R)) ** (1.0 / (k - 1))
    cap = loc._cap * 0.9
    x_cap = math.log(cap)
    x = np.repeat(np.log(np.minimum(r0, cap)), n)
    jet, K = loc.radial_jet(n, count, min(2.0 * float(np.max(r0)), cap))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(80):
            f, df = jet(x)
            u = (f.reshape(-1, count, n) / per_radius).reshape(f.shape)
            sq = np.einsum("ij,ij->j", u, u)
            g = 0.5 * np.log(sq)
            resid = float(np.abs(g).max())
            if resid < 1e-13:
                r_top = math.exp(float(np.max(x)))
                if loc._kept_terms(r_top) <= K:
                    return np.exp(x), f
                jet, K = loc.radial_jet(n, count, r_top)
                continue
            if not math.isfinite(resid):
                break
            slope = np.einsum("ij,ij->j", u, df) / (sq.reshape(count, n) * per_radius).ravel()
            newton = np.isfinite(slope) & (slope < 0.0)
            x = np.minimum(x - g / np.where(newton, slope, 1.0 - k), x_cap)
    if not resid <= 1e-9:
        left = ~(np.abs(g) <= 1e-9).reshape(count, n).all(axis=1)
        raise NumericInstabilityError(
            f"sphere-cut radius solve stalled at residual {resid:.3e}",
            diagnostics={"R": sorted({float(v) for v in R[left]}), "end": repr(e.puncture)},
        )
    return np.exp(x), jet(x)[0]


def _cut_turning(frame: np.ndarray, cuts: np.ndarray, count: int) -> np.ndarray:
    """The turning steps of ``count`` closed sphere cuts laid side by side in
    ``cuts`` (n, count N), projected onto span(frame[0], frame[1]) by one
    product and one reshape: a (count, N) array of the steps of the projected
    angle between consecutive points, each in [-pi, pi), each row the steps
    its cut has alone."""
    x, y = (frame[:2] @ cuts).reshape(2, count, -1)
    ang = np.arctan2(y, x)
    d = np.diff(ang, append=ang[:, :1])
    return (d + math.pi) % (2.0 * math.pi) - math.pi


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


def rotation_index_numeric(w: WeierstrassData, p, R_list,
                           end: EndAnalysis | None = None) -> int:
    """Winding number of the sphere cut of the end.

    The cuts {|f| = R} near the end at every radius R are solved in one batch
    from ``CUT_ANGLES`` angles per turn of the limit circle, at least four
    turns' worth: N = CUT_ANGLES max(k - 1, 4).  Each is projected onto
    span(e1, e2) = span(Re a_lead, Im a_lead), the plane of its limit circle,
    and the turning of all of them is counted in one pass.  The steps of a
    closed sampled curve sum to a multiple of 2 pi up to rounding; a cut with
    a step above pi/4 is too coarse for that count to be trusted and raises
    ``NumericInstabilityError``.  The value must agree across all R; the
    analytic prediction is |k - 1|.  ``end``, when given, must be the
    analysis of the end p of w (``ValueError`` otherwise).
    """
    radii = sorted(_radii(R_list))
    e = _end_of(w, p, end)
    n = CUT_ANGLES * max(e.k - 1, 4)
    cuts = _solve_sphere_radii(e._local, e, n, radii)[1]
    d = _cut_turning(e.frame, cuts, len(radii))
    windings = {}
    for R, step, turns in zip(radii, np.abs(d).max(axis=1), d.sum(axis=1) / (2.0 * math.pi)):
        if step > math.pi / 4.0:
            raise NumericInstabilityError(
                f"sphere cut at R = {R:g} turns by {step:.3f} rad between angles, above pi/4",
                diagnostics={"R": R, "step": float(step)},
            )
        windings[R] = abs(int(round(turns)))
    values = set(windings.values())
    if len(values) != 1:
        raise NumericInstabilityError(
            "winding number did not stabilize across radii",
            diagnostics=windings,
        )
    return values.pop()


def limit_circle_deviation(w: WeierstrassData, p, R: float,
                           end: EndAnalysis | None = None) -> float:
    """Sup distance of the normalized sphere cut from its limit circle.

    In the frame aligned with the leading coefficient the cut converges to
    the (k-1)-fold covered unit circle; the model curve below carries the
    phase that the integrated leading term actually produces.  ``end``, when
    given, must be the analysis of the end p of w (``ValueError`` otherwise).
    """
    (R,) = _radii((R,))
    e = _end_of(w, p, end)
    thetas = 2.0 * math.pi * np.arange(720) / 720
    curve = _solve_sphere_radii(e._local, e, thetas.size, (R,))[1] / R
    alpha = (e.k - 1) * thetas
    model = -(np.multiply.outer(e.frame[0], np.cos(alpha))
              + np.multiply.outer(e.frame[1], np.sin(alpha)))
    return float(np.max(np.linalg.norm(curve - model, axis=0)))
