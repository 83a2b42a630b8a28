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
Magnitude enters only through the datum's unit (``WeierstrassData.unit``): the
bilinear gates and the norms a, b are taken of the coefficients over it.

Near-end immersion values are computed from the termwise-integrated Laurent
series in the local coordinate, its constant fixed by the closed-form
immersion at a reference radius; this is the immersion itself to spectral
accuracy, and working in t keeps full relative precision at radii far below
the evaluation clearance, where z = p + t would round t away.  Coefficients
are prefixes of the datum's Laurent table; it keeps one LocalImmersion per
end.  Every reader of an end's series -- immersion values, the sphere cuts
|f| = R (Newton on log r per angle, with the exact radial derivative), the
asymptotic model and its check -- goes through one polar evaluator,
``_polar_jet``, of t as angle and log radius; the local immersion keeps the
terms above 1e-18 of the leading one.  The asymptotic check
evaluates the local series minus the model as one table, so the terms they
share cancel before any rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    EvaluationNearSingularityError,
    InternalConsistencyError,
    ModelUndefinedError,
    NumericInstabilityError,
)
from .rational import is_infinity
from .weierstrass import (
    BILINEAR_TOL,
    WeierstrassData,
    form_coefficient_window,
    immersion_eval,
    metric_order_at,
)

__all__ = [
    "EndType",
    "EndAnalysis",
    "AsymptoticModel",
    "AsymptoticCheck",
    "LocalImmersion",
    "analyze_end",
    "asymptotic_model",
    "verify_asymptotic",
    "rotation_index_numeric",
    "limit_circle_deviation",
]

PLANAR_TOL = 1e-8     # b <= PLANAR_TOL * a classifies the end as planar
TAIL_REL = 1e-18      # local-immersion terms bounded below TAIL_REL * leading are cut
CUT_ANGLES = 64       # angles of each sphere cut of the rotation index, before refinement


class EndType(str, Enum):
    CATENOID_TYPE = "catenoid-type"
    PLANAR = "planar"
    HIGHER_ORDER = "higher-order"


def _polar_jet(anti: np.ndarray, lo: int, log: np.ndarray, constant: np.ndarray,
               thetas: np.ndarray):
    """The polar evaluator of an end's series at fixed angles: ``jet``.

    The series is f(t) = 2 Re(sum_p anti_p t^(lo+p) + log log t) + constant,
    with anti an (n, K) table and log, constant (n,) vectors.  ``jet(x)``
    returns f and df/dlog r at the points e^x e^{i thetas}, one log-radius x
    per angle, as two (n, len(thetas)) arrays.  With t^p = r^p e^{i p theta},
    each term is 2 Re(c t^p) = r^p (2 Re c cos p theta - 2 Im c sin p theta),
    and d/dlog r multiplies it by p.  The log term is 2 (Re c x - Im c theta),
    theta on the principal branch (-pi, pi], with derivative 2 Re c.  So the rows
    [r^p cos p theta; r^p sin p theta; x; theta; 1] against the stacked
    [value; derivative] coefficients give both in one real matrix product;
    only r^p (by row products) and x change between calls.
    """
    n, K = anti.shape
    powers = lo + np.arange(K)
    anti = 2.0 * anti
    log = 2.0 * log
    coef = np.zeros((2, n, 2 * K + 3))      # [value; derivative] against the rows
    for block, c in zip(coef, (anti, anti * powers)):
        block[:, :K], block[:, K:2 * K] = c.real, -c.imag
    coef[0, :, 2 * K] = coef[1, :, 2 * K + 2] = log.real
    coef[0, :, 2 * K + 1] = -log.imag
    coef[0, :, 2 * K + 2] = constant
    coef = coef.reshape(2 * n, -1)
    phases = np.empty((K, thetas.size), dtype=complex)
    phases[0] = np.exp(1j * lo * thetas)
    turn = np.exp(1j * thetas)
    for j in range(1, K):
        np.multiply(phases[j - 1], turn, out=phases[j])
    table = np.stack([phases.real, phases.imag])                # (2, K, N)
    rows = np.empty((2 * K + 3, thetas.size))
    rows[2 * K + 1] = np.angle(turn)
    rows[2 * K + 2] = 1.0
    scaled = rows[:2 * K].reshape(2, K, -1)
    powers_of_r = np.empty((K, thetas.size))

    def jet(x: np.ndarray):
        r = np.exp(x)
        powers_of_r[0] = np.exp(lo * x)
        for j in range(1, K):
            np.multiply(powers_of_r[j - 1], r, out=powers_of_r[j])
        np.multiply(table, powers_of_r, out=scaled)
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
    and log radius.  Tail terms whose bound max|c| max|t|^p on the evaluation
    set is below ``TAIL_REL`` of the leading term's are dropped: at
    sphere-cut radii most of the 40 are.
    """

    def __init__(self, w: WeierstrassData, p):
        if is_infinity(p):
            conv = min((1.0 / abs(q) for q in w.finite_punctures if q != 0), default=math.inf)
        else:
            conv = min((abs(q - p) for q in w.finite_punctures if q != p), default=math.inf)
        mu, C = form_coefficient_window(w, p, 40)
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
        K = self._kept_terms(self.r_ref)
        series = _polar_jet(anti[:, :K], self._lo, self.log_coeff, np.zeros(w.n), np.zeros(1))
        self.constant = immersion_eval(w, z_ref) - series(np.log([self.r_ref]))[0][:, 0]

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

    def radial_jet(self, thetas: np.ndarray, r_max: float):
        """The sphere cuts' evaluator: ``(jet, K)``, ``jet`` the polar
        evaluator at the angles ``thetas`` of the ``K`` terms that ``__call__``
        keeps for |t| <= r_max."""
        K = self._kept_terms(r_max)
        return _polar_jet(self._anti[:, :K], self._lo, self.log_coeff, self.constant, thetas), K

    def __call__(self, t) -> np.ndarray:
        """Immersion values at local coordinates t; shape (n, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        r_max = float(np.max(np.abs(t)))
        self._check_radius(r_max)
        K = self._kept_terms(r_max)
        jet = _polar_jet(self._anti[:, :K], self._lo, self.log_coeff, self.constant, np.angle(t))
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
    rotation_index: int
    embedded: bool
    _w: WeierstrassData = field(repr=False, default=None)

    @property
    def _local(self) -> LocalImmersion:
        """The immersion in the end's local coordinate, built once and kept by
        the datum: the analysis itself does not need it, nor a report."""
        cache = self._w._laurent.immersions
        if self.puncture not in cache:
            cache[self.puncture] = LocalImmersion(self._w, self.puncture)
        return cache[self.puncture]


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
        nr = float(np.linalg.norm(r))
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
    size = float(np.linalg.norm(lead_u))
    null_pair = complex(np.sum(lead_u * lead_u))
    if abs(null_pair) > BILINEAR_TOL * size**2:
        raise InternalConsistencyError(
            f"<a_lead, a_lead> = {null_pair / size**2:.3e} |a_lead|^2 at end {p!r}: "
            "nullity violated"
        )
    if mu == -2:
        cross = complex(np.sum(lead_u * a1c_u))
        scale = size * (size + float(np.linalg.norm(a1c_u)))
        if abs(cross) > BILINEAR_TOL * scale:
            raise InternalConsistencyError(
                f"<a_-2, a_-1> = {cross / scale:.3e} |a_-2| (|a_-2| + |a_-1|) at end {p!r}: "
                "Laurent relations violated"
            )

    # a is nonzero, and |Im a_lead| within ~2e-9 a of it, by the nullity gate
    a = unit * float(np.linalg.norm(lead_u.real))
    e1 = lead.real / a
    e2 = lead.imag / a
    b_vec = a1 - (a1 @ e1) * e1 - (a1 @ e2) * e2
    b = unit * float(np.linalg.norm(b_vec / unit))
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
        rotation_index=abs(k - 1),
        embedded=(k == 2),
        _w=w,
    )


@dataclass
class AsymptoticModel:
    """Catenoid/plane piece f0(t) = 2 Re(-a2/t) + 2 a1 log|t| + C in the end chart:
    the one-term series -a2 t^-1 with log vector a1 (``log_vec``)."""

    a2: np.ndarray
    log_vec: np.ndarray
    constant: np.ndarray
    r_ref: float

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        jet = _polar_jet(-self.a2[:, None], -1, self.log_vec, self.constant, np.angle(t))
        return jet(np.log(np.abs(t)))[0]


def _residual_jet(loc: LocalImmersion, model: AsymptoticModel, thetas: np.ndarray):
    """The polar evaluator of f - f0: all 41 terms of the local series with the
    model's subtracted coefficientwise, so the terms they share cancel exactly."""
    anti = loc._anti.copy()
    anti[:, -1 - loc._lo] += model.a2
    return _polar_jet(anti, loc._lo, loc.log_coeff - model.log_vec,
                      loc.constant - model.constant, thetas)


def asymptotic_model(e: EndAnalysis, force_planar: bool = False) -> AsymptoticModel:
    """The leading catenoid/plane piece of an order -2 end.

    The model keeps only the t^-2 and residue terms of the form; its constant
    is fixed by matching the mean immersion value on the reference circle
    (the model's translation freedom resolved deterministically).  For a
    higher-order end no model exists unless ``force_planar`` builds the
    deliberately wrong plane piece used as a negative control.
    """
    if e.classification is EndType.HIGHER_ORDER and not force_planar:
        raise ModelUndefinedError(
            f"end {e.puncture!r} has order {e.mu}: asymptotic to neither a "
            "catenoid-type end nor a planar end"
        )
    if e.classification is EndType.CATENOID_TYPE:
        log_vec = e.a_minus1
    else:  # planar, or the deliberately wrong plane piece on a higher-order end
        log_vec = np.zeros_like(e.a_minus1)
    loc = e._local
    model = AsymptoticModel(a2=e.a_minus2, log_vec=log_vec, constant=loc.constant,
                            r_ref=loc.r_ref)
    thetas = 2.0 * math.pi * np.arange(16) / 16.0
    f_minus_f0 = _residual_jet(loc, model, thetas)(np.full(16, math.log(loc.r_ref)))[0]
    model.constant = loc.constant + f_minus_f0.mean(axis=1)
    return model


@dataclass(frozen=True)
class AsymptoticCheck:
    radii: tuple
    ratios: tuple
    bounded: bool


def verify_asymptotic(w: WeierstrassData, e: EndAnalysis, radii,
                      model: AsymptoticModel | None = None) -> AsymptoticCheck:
    """Sup of |f - f0| / |t| on circles of decreasing local radius.

    f is read from the local immersion of the end ``e`` of ``w``; the defining
    bound of a catenoid-type/planar end is that the ratio stays bounded as the
    radius shrinks: the ratio at the last radius is at most 3 times that two
    radii before.  f - f0 is one series, the local one minus the model's,
    so no rounding of two values of size a/r enters the ratios.
    """
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if model is None:
        model = asymptotic_model(e)
    loc = e._local
    loc._check_radius(radii[0])
    jet = _residual_jet(loc, model, 2.0 * math.pi * np.arange(64) / 64)
    ratios = [float(np.max(np.linalg.norm(jet(np.full(64, math.log(r)))[0], axis=0))) / r
              for r in radii]
    bounded = ratios[-1] <= 3.0 * ratios[-3 if len(ratios) >= 3 else 0]
    return AsymptoticCheck(radii=tuple(radii), ratios=tuple(ratios), bounded=bounded)


def _solve_sphere_radii(loc: LocalImmersion, e: EndAnalysis, thetas: np.ndarray, R):
    """Solve |f(r e^{i theta})| = R for r per angle; returns (r, f(r e^{i theta})).

    R is one radius, or one per angle: the cuts at several radii are then one
    batch, with one phase table.  Newton on x = log r, vectorized over all
    angles, with the exact slope g' = <f, df/dx> / |f|^2 of g = log|f| - log R
    from the local immersion's polar evaluator.  It starts from the asymptotic
    radius (|f| grows like 2a/((k-1) r^{k-1}) toward the end) and stops at
    max|g| < 1e-13; where g' is not finite and negative the step takes the
    asymptotic slope -(k-1).  An iterate that runs off to a non-finite cut
    ends the solve, which then raises ``NumericInstabilityError`` like one
    that stalls, naming every R with an angle left unsolved; the non-finite
    values are caught there, so numpy warns of none of them.
    The phase table is built for twice the largest starting radius; should a
    solved radius need more terms than it holds, it is built again and the
    solve goes on.  The immersion values are those of the converged step, so
    callers need not evaluate them again.
    """
    k, a = e.k, e.a
    R = np.broadcast_to(np.asarray(R, dtype=float), thetas.shape)
    log_R = np.log(R)
    r0 = (2.0 * a / ((k - 1) * R)) ** (1.0 / (k - 1))
    cap = loc._cap * 0.9
    x_cap = math.log(cap)
    x = np.log(np.minimum(r0, cap))
    jet, K = loc.radial_jet(thetas, min(2.0 * float(np.max(r0)), cap))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(80):
            f, df = jet(x)
            size = np.linalg.norm(f, axis=0)
            g = np.log(size) - log_R
            resid = float(np.max(np.abs(g)))
            if resid < 1e-13:
                r_top = math.exp(float(np.max(x)))
                if loc._kept_terms(r_top) <= K:
                    return np.exp(x), f
                jet, K = loc.radial_jet(thetas, r_top)
                continue
            if not math.isfinite(resid):
                break
            slope = np.einsum("ij,ij->j", f / size, df) / size
            newton = np.isfinite(slope) & (slope < 0.0)
            x = np.minimum(x - g / np.where(newton, slope, 1.0 - k), x_cap)
    if not resid <= 1e-9:
        unsolved = sorted({float(v) for v in R[~(np.abs(g) <= 1e-9)]})
        raise NumericInstabilityError(
            f"sphere-cut radius solve stalled at residual {resid:.3e}",
            diagnostics={"R": unsolved, "end": repr(e.puncture)},
        )
    return np.exp(x), jet(x)[0]


def _turning(xy: np.ndarray) -> np.ndarray:
    """Steps of the projected angle between consecutive points of closed
    curves (..., 2, N), each taken in [-pi, pi)."""
    ang = np.arctan2(xy[..., 1, :], xy[..., 0, :])
    d = np.diff(ang, append=ang[..., :1])
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _winding_number(cut, thetas: np.ndarray, xy: np.ndarray, max_refine: int = 6) -> float:
    """Total turning (in turns) of the closed curve theta -> cut(theta).

    ``xy`` is the (2, N) curve on the sorted angles ``thetas``; midpoints are
    inserted wherever the projected angle jumps by more than pi/4.  Only the
    midpoints are passed to ``cut``, and merged into the sorted angles.
    """
    d = _turning(xy)
    for _ in range(max_refine):
        bad = np.nonzero(np.abs(d) > math.pi / 4.0)[0]
        if bad.size == 0:
            break
        nxt = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        mids = ((thetas[bad] + nxt[bad]) / 2.0) % (2.0 * math.pi)
        thetas = np.concatenate([thetas, mids])
        xy = np.concatenate([xy, cut(mids)], axis=1)
        order = np.argsort(thetas)
        thetas, xy = thetas[order], xy[:, order]
        d = _turning(xy)
    return float(np.sum(d) / (2.0 * math.pi))


def _cut_planes(e: EndAnalysis, pts: np.ndarray) -> np.ndarray:
    """The plane of each normalized cut of ``pts`` (R, n, N), as (R, 2, n)
    rows: span(e1, e2) for an order -2 end, else each cut's best-fit plane,
    from one batched SVD."""
    if e.k == 2:
        return np.broadcast_to(e.frame[:2], (len(pts),) + e.frame[:2].shape)
    return np.linalg.svd(pts.swapaxes(1, 2), full_matrices=False)[2][:, :2]


def rotation_index_numeric(w: WeierstrassData, p, R_list,
                           end: EndAnalysis | None = None) -> int:
    """Winding number of the normalized sphere cut of the end.

    The cuts {f/R : |f| = R} near the end at every radius R are solved in one
    batch from ``CUT_ANGLES`` angles each.  Each is projected onto
    span(e1, e2) for an order -2 end, or onto the best-fit plane of the curve
    otherwise, and the turning of all of them is counted in one pass; only a
    cut whose projected angle jumps by more than pi/4 is refined.  The value
    must agree across all R; the analytic prediction is |k - 1|.
    """
    e = end if end is not None else analyze_end(w, p)
    loc = e._local
    thetas = 2.0 * math.pi * np.arange(CUT_ANGLES) / CUT_ANGLES
    radii = sorted(float(R) for R in R_list)
    cuts = _solve_sphere_radii(loc, e, np.tile(thetas, len(radii)),
                               np.repeat(radii, thetas.size))[1]
    pts = np.stack(np.split(cuts, len(radii), axis=1)) / np.array(radii)[:, None, None]
    planes = _cut_planes(e, pts)
    xy = planes @ pts
    d = _turning(xy)
    turns = np.sum(d, axis=1) / (2.0 * math.pi)
    jumps = np.max(np.abs(d), axis=1) > math.pi / 4.0
    windings = {}
    for i, R in enumerate(radii):
        if jumps[i]:
            def cut(th):
                return planes[i] @ (_solve_sphere_radii(loc, e, th, R)[1] / R)

            turns[i] = _winding_number(cut, thetas, xy[i])
        wind = int(round(turns[i]))
        if abs(turns[i] - wind) > 0.05:
            raise NumericInstabilityError(
                f"non-integer winding {turns[i]:.4f} at R = {R:g}",
                diagnostics={"R": R, "turns": float(turns[i])},
            )
        windings[R] = abs(wind)
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
    phase that the integrated leading term actually produces.
    """
    e = end if end is not None else analyze_end(w, p)
    loc = e._local
    thetas = 2.0 * math.pi * np.arange(720) / 720
    curve = _solve_sphere_radii(loc, e, thetas, float(R))[1] / float(R)
    alpha = (e.k - 1) * thetas
    model = -(np.multiply.outer(e.frame[0], np.cos(alpha))
              + np.multiply.outer(e.frame[1], np.sin(alpha)))
    return float(np.max(np.linalg.norm(curve - model, axis=0)))
