"""Spans around minsurf's public functions, installed from outside.

``install`` wraps each traced function and puts the wrapper at every
binding site: names are imported from one module into another (``roots``
into ``weierstrass`` and ``curvature``, ``immersion_eval`` into ``ends``,
...), and a wrapper on the defining module alone would miss those calls.
Spans are kept in memory as (name, start, end, parent) and written out when
the run ends.
"""

from __future__ import annotations

import os
import sys
import time

# (module, attribute, layer metric prefix); a class entry wraps its __init__.
TRACED = [
    ("rational", "roots", "rational.roots"),
    ("rational", "laurent_expand", "rational.laurent_expand"),
    ("weierstrass", "common_denominator", "weierstrass.common_denominator"),
    ("weierstrass", "validate", "weierstrass.validate"),
    ("weierstrass", "detect_punctures", "weierstrass.detect_punctures"),
    ("weierstrass", "immersion_eval", "weierstrass.immersion_eval"),
    ("weierstrass", "immersion_delta", "weierstrass.immersion_delta"),
    ("quadrature", "integrate_vector", "quadrature.integrate_vector"),
    ("curvature", "gauss_map", "curvature.gauss_map"),
    ("curvature", "chern_osserman", "curvature.chern_osserman"),
    ("curvature", "fullness_and_degeneracy", "curvature.fullness_and_degeneracy"),
    ("curvature", "total_curvature_numeric", "curvature.total_curvature_numeric"),
    ("ends", "analyze_end", "ends.analyze_end"),
    ("ends", "LocalImmersion", "ends.local_immersion"),
    ("ends", "rotation_index_numeric", "ends.rotation_index_numeric"),
    ("mesh", "sample_domain", "mesh.sample_domain"),
    ("mesh", "build_mesh", "mesh.build_mesh"),
    ("mesh", "export_obj", "mesh.export_obj"),
    ("wdfile", "load", "wdfile.load"),
    ("report", "run_analysis", "report.run_analysis"),
    ("report", "report_to_json", "report.report_to_json"),
]
EXPORT = "mesh.export_obj"


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self.export_bytes = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if name == EXPORT:
                self.export_bytes += sum(os.path.getsize(p) for p in result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function at every minsurf binding site."""
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == "minsurf" or k.startswith("minsurf."))}
        for mod, attr, name in TRACED:
            orig = getattr(mods[f"minsurf.{mod}"], attr)
            if isinstance(orig, type):
                orig.__init__ = self.wrap(name, orig.__init__)
                continue
            wrapper = self.wrap(name, orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)

    def totals(self) -> dict:
        """Per layer: calls and self time (duration minus traced children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - inner)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def load_totals(path: str) -> dict:
    """``Tracer.totals`` of a span file written by ``Tracer.dump``."""
    tracer = Tracer()
    with open(path) as fh:
        next(fh)
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            tracer.spans.append((name, float(start), float(end), int(parent)))
    return tracer.totals()
