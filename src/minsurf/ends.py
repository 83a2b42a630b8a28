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

Near-end immersion values are computed from the termwise-integrated Laurent
series in the local coordinate, its constant fixed by the closed-form
immersion at a reference radius; this is the immersion itself to spectral
accuracy, and working in t keeps full relative precision at radii far below
the evaluation clearance, where z = p + t would round t away.  The series is
evaluated in integer powers by one cumulative product, its tail cut where the
terms fall below 1e-18 of the leading one.  Coefficients are prefixes of the
datum's Laurent table; it keeps one LocalImmersion per end.
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
from .weierstrass import WeierstrassData, form_coefficient_window, immersion_eval, metric_order_at

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

BILINEAR_TOL = 1e-9   # |<a,a>| and |<a_-2, a_-1>| relative to |a_-2|^2
PLANAR_TOL = 1e-8     # b <= PLANAR_TOL * a classifies the end as planar
TAIL_REL = 1e-18      # local-immersion terms bounded below TAIL_REL * leading are cut


class EndType(str, Enum):
    CATENOID_TYPE = "catenoid-type"
    PLANAR = "planar"
    HIGHER_ORDER = "higher-order"


def _local_chart(w: WeierstrassData, p):
    """(to_global, convergence_radius) for the local coordinate at p."""
    if is_infinity(p):
        others = [abs(q) for q in w.finite_punctures if abs(q) > 0]
        conv = min((1.0 / q for q in others), default=math.inf)

        def to_global(t):
            return 1.0 / t

    else:
        p = complex(p)
        others = [abs(q - p) for q in w.finite_punctures if abs(q - p) > 0]
        conv = min(others, default=math.inf)

        def to_global(t):
            return p + t

    return to_global, conv


class LocalImmersion:
    """The immersion near one end, via its integrated Laurent expansion.

    f(t) = 2 Re( sum_{e != -1} c_e t^{e+1}/(e+1) + c_{-1} log t ) + C over 41
    Laurent terms, with the constant C fixed once by matching the closed-form
    immersion (``immersion_eval``) at a reference radius.  Valid for |t|
    below roughly half the distance to the next singularity; only Re(log)
    enters, so the log branch is immaterial (the residue vector is real).

    The integer powers t^p, p = lo..hi, come from one cumulative product
    started at t ** float(lo) -- for lo = -1 bitwise the 1/t of
    ``AsymptoticModel``, so an exact model cancels exactly.  Tail terms whose
    bound max|c| max|t|^p on the evaluation set is below ``TAIL_REL`` of the
    leading term's are dropped: at sphere-cut radii most of the 40 are.
    """

    def __init__(self, w: WeierstrassData, p):
        to_global, conv = _local_chart(w, p)
        self._to_global = to_global
        self.convergence_radius = conv
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
        anchor = immersion_eval(w, to_global(self.r_ref))
        self.constant = anchor - self._raw(np.array([self.r_ref + 0j]), self.r_ref)[:, 0]

    def _kept_terms(self, r_max: float) -> int:
        """Terms kept for |t| <= r_max: through the last whose bound is at
        least TAIL_REL of the leading term's (log of the ratio below)."""
        log_r = math.log(r_max) if r_max > 0.0 else -math.inf
        above = self._log_rel_mag + self._rel_power * log_r >= math.log(TAIL_REL)
        return above.size - int(np.argmax(above[::-1]))

    def _raw(self, t: np.ndarray, r_max: float) -> np.ndarray:
        K = self._kept_terms(r_max)
        steps = np.empty((K, t.size), dtype=complex)
        steps[0] = t ** float(self._lo)
        steps[1:] = t
        # the complex log goes before the matrix product: right after a complex
        # BLAS product the scalar libm code behind np.log ran ~13x slower on
        # the x86 machine this was measured on (dirty upper vector registers)
        val = np.multiply.outer(self.log_coeff, np.log(t))
        val += self._anti[:, :K] @ np.cumprod(steps, axis=0)
        return 2.0 * val.real

    def __call__(self, t) -> np.ndarray:
        """Immersion values at local coordinates t; shape (n, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        r_max = float(np.max(np.abs(t)))
        if r_max > self._cap:
            raise EvaluationNearSingularityError(
                f"local coordinate beyond the chart radius {self._cap:.3g}"
            )
        return self._raw(t, r_max) + self.constant[:, None]

    def global_point(self, t):
        return self._to_global(t)


@dataclass(slots=True)
class EndAnalysis:
    """Laurent data, adapted frame and classification of one end.

    Kept small, since reports are kept: the vectors are copies, not views
    into the Laurent window (``a_minus2`` is ``_lead`` itself when mu = -2),
    and ``frame`` is one (3, n) array of rows e1, e2, e3.
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
    _lead: np.ndarray = field(repr=False, default=None)
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
    the datum (or the tolerance regime) is inconsistent.
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

    scale = float(np.linalg.norm(lead)) ** 2
    null_pair = complex(np.sum(lead * lead))
    if abs(null_pair) > BILINEAR_TOL * scale:
        raise InternalConsistencyError(
            f"<a_lead, a_lead> = {null_pair:.3e} at end {p!r}: nullity violated"
        )
    if mu == -2:
        cross = complex(np.sum(a2 * a1c))
        if abs(cross) > BILINEAR_TOL * scale:
            raise InternalConsistencyError(
                f"<a_-2, a_-1> = {cross:.3e} at end {p!r}: Laurent relations violated"
            )

    re, im = lead.real, lead.imag
    a = float(np.linalg.norm(re))
    if abs(float(np.linalg.norm(im)) - a) > 1e-7 * max(a, 1e-300) or a == 0.0:
        raise InternalConsistencyError(f"|Re a_lead| != |Im a_lead| at end {p!r}")
    e1 = re / a
    e2 = im / a
    b_vec = a1 - (a1 @ e1) * e1 - (a1 @ e2) * e2
    b = float(np.linalg.norm(b_vec))
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
        _lead=lead,
        _w=w,
    )


@dataclass
class AsymptoticModel:
    """Catenoid/plane piece f0(t) = 2 Re(-a2/t) + 2 a1 log|t| + C in the end chart."""

    a2: np.ndarray
    log_vec: np.ndarray
    constant: np.ndarray
    r_ref: float

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        val = 2.0 * (-np.multiply.outer(self.a2, 1.0 / t)).real
        val = val + np.multiply.outer(2.0 * self.log_vec, np.log(np.abs(t)))
        return val + self.constant[:, None]


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
    a2 = e.a_minus2
    loc = e._local
    thetas = 2.0 * math.pi * np.arange(16) / 16.0
    t = loc.r_ref * np.exp(1j * thetas)
    leading = 2.0 * (-np.multiply.outer(a2, 1.0 / t)).real
    leading = leading + np.multiply.outer(2.0 * log_vec, np.log(np.abs(t)))
    constant = (loc(t) - leading).mean(axis=1)
    return AsymptoticModel(a2=a2, log_vec=log_vec, constant=constant, r_ref=loc.r_ref)


@dataclass(frozen=True)
class AsymptoticCheck:
    radii: tuple
    ratios: tuple
    bounded: bool


def verify_asymptotic(w: WeierstrassData, e: EndAnalysis, radii,
                      samples: int = 64, model: AsymptoticModel | None = None) -> AsymptoticCheck:
    """Sup of |f - f0| / |t| on circles of decreasing local radius.

    f is read from the local immersion of the end ``e`` of ``w``; the defining
    bound of a catenoid-type/planar end is that the ratio stays bounded as the
    radius shrinks.  The verdict compares the last three radii (with an
    absolute floor for exact models, whose ratios are all ~0).
    """
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if model is None:
        model = asymptotic_model(e)
    loc = e._local
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    ratios = []
    for r in radii:
        t = r * np.exp(1j * thetas)
        diff = loc(t) - model(t)
        ratios.append(float(np.max(np.linalg.norm(diff, axis=0))) / r)
    floor = 1e-9 * max(1.0, e.a, e.b)
    if len(ratios) >= 3:
        bounded = ratios[-1] <= 3.0 * ratios[-3] + floor
    else:
        bounded = ratios[-1] <= 3.0 * ratios[0] + floor
    return AsymptoticCheck(radii=tuple(radii), ratios=tuple(ratios), bounded=bounded)


def _solve_sphere_radii(loc: LocalImmersion, e: EndAnalysis, thetas: np.ndarray,
                        R: float):
    """Solve |f(r e^{i theta})| = R for r per angle; returns (r, f(r e^{i theta})).

    Quasi-Newton on log r with the exact asymptotic slope k-1 (|f| grows like
    2a/((k-1) r^{k-1}) toward the end), vectorized over all angles.  The
    immersion values are those of the converged step, so callers need not
    evaluate them again.
    """
    k, a = e.k, e.a
    r0 = (2.0 * a / ((k - 1) * R)) ** (1.0 / (k - 1))
    cap = loc._cap * 0.9
    x = np.full(thetas.shape, math.log(min(r0, cap)))
    phase = np.exp(1j * thetas)
    for _ in range(80):
        r = np.exp(x)
        f = loc(r * phase)
        g = np.log(np.linalg.norm(f, axis=0)) - math.log(R)
        if float(np.max(np.abs(g))) < 1e-13:
            return r, f
        x = np.minimum(x + g / (k - 1), math.log(cap))
    resid = float(np.max(np.abs(g)))
    if resid > 1e-9:
        raise NumericInstabilityError(
            f"sphere-cut radius solve stalled at residual {resid:.3e}",
            diagnostics={"R": R, "end": repr(e.puncture)},
        )
    r = np.exp(x)
    return r, loc(r * phase)


def _winding_number(xy_fn, samples: int, max_refine: int = 6) -> float:
    """Total turning (in turns) of the closed curve theta -> xy_fn(theta).

    Starts from a uniform angle grid, inserting midpoints wherever the
    projected angle jumps by more than pi/4.
    """
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    for _ in range(max_refine + 1):
        xy = xy_fn(thetas)
        ang = np.arctan2(xy[:, 1], xy[:, 0])
        d = np.diff(np.append(ang, ang[0]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        bad = np.nonzero(np.abs(d) > math.pi / 4.0)[0]
        if bad.size == 0:
            break
        nxt = np.append(thetas[1:], thetas[0] + 2.0 * math.pi)
        mids = ((thetas[bad] + nxt[bad]) / 2.0) % (2.0 * math.pi)
        thetas = np.sort(np.concatenate([thetas, mids]))
    return float(np.sum(d) / (2.0 * math.pi))


def rotation_index_numeric(w: WeierstrassData, p, R_list, samples: int = 720,
                           end: EndAnalysis | None = None) -> int:
    """Winding number of the normalized sphere cut of the end.

    For each radius R the curve {f/R : |f| = R} near the end is projected
    onto span(e1, e2) for an order -2 end, or onto the best-fit plane of the
    curve otherwise, and its winding about the origin counted.  The value
    must agree across all R; the analytic prediction is |k - 1|.
    """
    e = end if end is not None else analyze_end(w, p)
    loc = e._local
    windings = {}
    for R in sorted(float(R) for R in R_list):
        if e.k == 2:
            u1, u2 = e.frame[0], e.frame[1]
        else:
            thetas0 = 2.0 * math.pi * np.arange(samples) / samples
            pts0 = _solve_sphere_radii(loc, e, thetas0, R)[1] / R
            _u, _s, vt = np.linalg.svd(pts0.T, full_matrices=False)
            u1, u2 = vt[0], vt[1]

        def xy_fn(thetas):
            pts = _solve_sphere_radii(loc, e, thetas, R)[1] / R
            return np.column_stack([pts.T @ u1, pts.T @ u2])

        turns = _winding_number(xy_fn, samples)
        wind = int(round(turns))
        if abs(turns - wind) > 0.05:
            raise NumericInstabilityError(
                f"non-integer winding {turns:.4f} at R = {R:g}",
                diagnostics={"R": R, "turns": turns},
            )
        windings[R] = abs(wind)
    values = set(windings.values())
    if len(values) != 1:
        raise NumericInstabilityError(
            "winding number did not stabilize across radii",
            diagnostics=windings,
        )
    return values.pop()


def limit_circle_deviation(w: WeierstrassData, p, R: float, samples: int = 720,
                           end: EndAnalysis | None = None) -> float:
    """Sup distance of the normalized sphere cut from its limit circle.

    In the frame aligned with the leading coefficient the cut converges to
    the (k-1)-fold covered unit circle; the model curve below carries the
    phase that the integrated leading term actually produces.
    """
    e = end if end is not None else analyze_end(w, p)
    loc = e._local
    thetas = 2.0 * math.pi * np.arange(samples) / samples
    curve = _solve_sphere_radii(loc, e, thetas, float(R))[1] / float(R)
    alpha = (e.k - 1) * thetas
    model = -(np.multiply.outer(e.frame[0], np.cos(alpha))
              + np.multiply.outer(e.frame[1], np.sin(alpha)))
    return float(np.max(np.linalg.norm(curve - model, axis=0)))
