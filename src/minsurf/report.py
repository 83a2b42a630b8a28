"""Full analysis pipeline wiring and the machine-readable report.

The report is assembled strictly from the module outputs (no recomputation at
serialization time).  Values that are exact integer multiples of pi are
serialized symbolically as "k*pi" next to their float value, so downstream
tooling never does float equality on them.
"""

from __future__ import annotations

import hashlib
import json
from typing import NamedTuple

import numpy as np

from . import __version__
from .curvature import CurvatureReport, curvature_report
from .ends import EndAnalysis, EndType, analyze_end
from .rational import is_infinity
from .weierstrass import ValidationReport, WeierstrassData, validate

__all__ = ["AnalysisReport", "run_analysis", "report_to_json"]


class AnalysisReport(NamedTuple):
    """The analysis of one datum, its verdicts derived from it (None for an
    invalid datum).  The cross-check requires the three -- equality in the
    curvature bound, every end catenoid-type or planar, every end embedded --
    to agree: they are equivalent for complete finite-total-curvature surfaces."""

    label: str
    n: int
    input_sha256: str | None
    tool_version: str
    validation: ValidationReport
    curvature: CurvatureReport | None
    ends: list[EndAnalysis] | None

    @property
    def valid(self) -> bool:
        return self.validation.ok

    @property
    def co_equality(self) -> bool | None:
        return None if self.curvature is None else self.curvature.co_equality

    @property
    def all_ends_catenoid_or_planar(self) -> bool | None:
        return None if self.ends is None else all(
            e.classification is not EndType.HIGHER_ORDER for e in self.ends)

    @property
    def all_ends_embedded(self) -> bool | None:
        return None if self.ends is None else all(e.embedded for e in self.ends)

    @property
    def equality_consistent(self) -> bool | None:
        return None if self.curvature is None else (
            self.co_equality == self.all_ends_catenoid_or_planar == self.all_ends_embedded)


def run_analysis(w: WeierstrassData, input_sha256: str | None = None) -> AnalysisReport:
    """Validate, analyze every end, then the curvature.

    Analysis beyond validation is skipped for invalid data.  The ends are
    analysed before the curvature, so a datum that fails their bilinear
    checks is refused before the Green-identity total curvature is computed.
    """
    validation = validate(w)
    ends = curv = None
    if validation.ok:
        ends = [analyze_end(w, p) for p in w.punctures]
        curv = curvature_report(w)
    return AnalysisReport(label=w.label, n=w.n, input_sha256=input_sha256,
                          tool_version=__version__, validation=validation,
                          curvature=curv, ends=ends)


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _point(p):
    return "inf" if is_infinity(p) else [float(p.real), float(p.imag)]


def _cvec(v: np.ndarray):
    return [[float(c.real), float(c.imag)] for c in v]


def _pi_value(k: int):
    return {"symbolic": f"{int(k)}*pi", "value": float(k) * float(np.pi)}


def _validation_dict(v: ValidationReport):
    return {
        "null_ok": v.null.ok,
        "null_defect": v.null.defect,
        "residues_ok": v.residues.ok,
        "residue_worst_imag": v.residues.worst_imag,
        "end_orders": [{"puncture": _point(p), "mu": int(mu)} for p, mu in v.end_orders],
        "orders_ok": v.orders_ok,
        "punctures_ok": v.punctures_ok,
        "branch_points": [{"point": _point(p), "order": int(m)} for p, m in v.branch_points],
        "messages": list(v.messages),
        "ok": v.ok,
    }


def _curvature_dict(c: CurvatureReport):
    out = {
        "d": c.d,
        "genus": c.genus,
        "m": c.m,
        "chi": c.chi,
        "tc_algebraic": _pi_value(c.tc_pi),
        "co_rhs": _pi_value(c.co_rhs_pi),
        "co_equality": c.co_equality,
    }
    if c.tc_numeric is not None:
        out["tc_numeric"] = c.tc_numeric
    out["full"] = c.full
    out["l"] = c.l
    out["gackstatter_rhs"] = _pi_value(c.gackstatter_pi)
    out["gackstatter_applicable"] = c.gackstatter_applicable
    out["ejiri_rhs"] = _pi_value(c.ejiri_pi)
    out["ejiri_equality"] = c.ejiri_equality
    return out


def _end_dict(e: EndAnalysis):
    return {
        "puncture": _point(e.puncture),
        "mu": e.mu,
        "k": e.k,
        "a": e.a,
        "b": e.b,
        "a_minus2": _cvec(e.a_minus2),
        "a_minus1": [float(x) for x in e.a_minus1],
        "frame": [[float(x) for x in v] for v in e.frame],
        "classification": e.classification.value,
        "rotation_index": e.rotation_index,
        "embedded": e.embedded,
    }


def report_to_json(rep: AnalysisReport) -> str:
    """Deterministic JSON text of the analysis report."""
    obj = {
        "label": rep.label,
        "n": rep.n,
        "tool_version": rep.tool_version,
        "input_sha256": rep.input_sha256,
        "validation": _validation_dict(rep.validation),
    }
    if rep.curvature is not None:
        obj["curvature"] = _curvature_dict(rep.curvature)
        obj["ends"] = [_end_dict(e) for e in rep.ends]
        obj["verdicts"] = {
            "co_equality": rep.co_equality,
            "all_ends_catenoid_or_planar": rep.all_ends_catenoid_or_planar,
            "all_ends_embedded": rep.all_ends_embedded,
            "equality_consistent": rep.equality_consistent,
        }
    return json.dumps(obj, indent=2) + "\n"
