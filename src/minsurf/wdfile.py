"""The Weierstrass-data input format: a JSON document.

Layout::

    {
      "label": "catenoid",
      "n": 3,
      "components": [
        {"num": [[re, im], ...], "den": [[re, im], ...]},   # ascending powers
        ...
      ],
      "punctures": [[re, im], "inf", ...],   # optional; auto-detected if absent
      "basepoint": [re, im]                  # optional
    }

Documents round-trip exactly: parsing keeps the coefficient lists as written,
and serialization emits them unchanged.  ``to_data`` builds the (internally
reduced) WeierstrassData.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ParseError
from .rational import INF, RationalMap, is_infinity
from .weierstrass import WeierstrassData

__all__ = ["WdDocument", "load", "loads", "dump", "dumps", "document_from_data"]

FORMAT = "weierstrass-data/1"


@dataclass
class WdDocument:
    label: str
    n: int
    components: list       # [(num pairs, den pairs), ...]
    punctures: list | None
    basepoint: list | None

    def to_data(self) -> WeierstrassData:
        phi = []
        for num, den in self.components:
            phi.append(RationalMap(
                [complex(re, im) for re, im in num],
                [complex(re, im) for re, im in den],
            ))
        punctures = None
        if self.punctures is not None:
            punctures = [
                INF if isinstance(p, str) else complex(p[0], p[1]) for p in self.punctures
            ]
        basepoint = None if self.basepoint is None else complex(*self.basepoint)
        return WeierstrassData(phi, punctures=punctures, basepoint=basepoint, label=self.label)


def _is_number(x) -> bool:
    """A JSON number in the finite float range (booleans, NaN, infinities are not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _pairs(raw, what: str):
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{what} must be a non-empty list of [re, im] pairs")
    out = []
    for item in raw:
        if (not isinstance(item, list)) or len(item) != 2 or not all(map(_is_number, item)):
            raise ParseError(
                f"{what} entries must be [re, im] pairs of finite numbers, got {item!r}"
            )
        out.append([item[0], item[1]])
    return out


def loads(text: str) -> WdDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ParseError("top-level document must be an object")
    try:
        n = raw["n"]
        comps_raw = raw["components"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"'n' must be an integer, got {n!r}")
    if not isinstance(comps_raw, list) or len(comps_raw) != n:
        got = len(comps_raw) if isinstance(comps_raw, list) else "non-list"
        raise ParseError(f"expected {n} components, got {got}")
    components = []
    for k, comp in enumerate(comps_raw):
        if not isinstance(comp, dict) or "num" not in comp or "den" not in comp:
            raise ParseError(f"component {k} must be an object with 'num' and 'den'")
        components.append((_pairs(comp["num"], f"component {k} num"),
                           _pairs(comp["den"], f"component {k} den")))
    punctures = None
    if raw.get("punctures") is not None:
        if not isinstance(raw["punctures"], list):
            raise ParseError(f"'punctures' must be a list or null, got {raw['punctures']!r}")
        punctures = []
        for p in raw["punctures"]:
            if isinstance(p, str):
                if p.lower() not in ("inf", "infinity"):
                    raise ParseError(f"unknown puncture symbol {p!r}")
                punctures.append("inf")
            else:
                punctures.append(_pairs([p], "puncture")[0])
    basepoint = None
    if raw.get("basepoint") is not None:
        basepoint = _pairs([raw["basepoint"]], "basepoint")[0]
    return WdDocument(
        label=str(raw.get("label", "")),
        n=n,
        components=components,
        punctures=punctures,
        basepoint=basepoint,
    )


def load(path) -> WdDocument:
    """Read a ``.wd`` file; it is UTF-8 JSON, whatever the locale says."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                             f"at offset {exc.start}") from exc
    return loads(text)


def dumps(doc: WdDocument) -> str:
    obj = {"format": FORMAT, "label": doc.label, "n": doc.n}
    obj["components"] = [{"num": num, "den": den} for num, den in doc.components]
    if doc.punctures is not None:
        obj["punctures"] = doc.punctures
    if doc.basepoint is not None:
        obj["basepoint"] = doc.basepoint
    return json.dumps(obj, indent=2) + "\n"


def dump(doc: WdDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def document_from_data(w: WeierstrassData, label: str | None = None) -> WdDocument:
    components = []
    for r in w.phi:
        num = [[float(c.real), float(c.imag)] for c in r.num.coeffs] or [[0.0, 0.0]]
        den = [[float(c.real), float(c.imag)] for c in r.den.coeffs]
        components.append((num, den))
    punctures = ["inf" if is_infinity(p) else [float(p.real), float(p.imag)]
                 for p in w.punctures]
    return WdDocument(
        label=label if label is not None else w.label,
        n=w.n,
        components=components,
        punctures=punctures,
        basepoint=[float(w.basepoint.real), float(w.basepoint.imag)],
    )
