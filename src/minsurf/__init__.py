"""minsurf: rational Weierstrass data of complete minimal surfaces.

Validation (conformality, real periods, completeness), per-end Laurent
analysis and classification, Gauss-map degree and total curvature with the
Chern-Osserman / Gackstatter / Ejiri bounds, and mesh export.

``import minsurf`` executes the analysis modules only.  ``catalog``, ``mesh``
and ``quadrature`` (the path-integral reference the tests check the closed
form against) are registered unexecuted and run on their first attribute
access; the catalog and mesh names exported here are looked up on first use.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureReport,
    GaussMap,
    chern_osserman,
    curvature_report,
    fullness_and_degeneracy,
    gauss_map,
    total_curvature_numeric,
)
from .ends import (
    EndAnalysis,
    EndType,
    LocalImmersion,
    analyze_end,
    limit_circle_deviation,
    rotation_index_numeric,
)
from .rational import (
    INF,
    ComplexPoly,
    LaurentSeries,
    RationalMap,
    is_infinity,
    laurent_expand,
    roots,
    shared_roots,
)
from .report import AnalysisReport, report_to_json, run_analysis
from .weierstrass import (
    WeierstrassData,
    check_residues_real,
    detect_punctures,
    immersion_eval,
    metric_order_at,
    mobius_precompose,
    validate_null,
)


def _lazy(name: str):
    """``minsurf.<name>`` put into ``sys.modules`` without executing it: its
    first attribute access runs it (``importlib.util.LazyLoader``)."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


quadrature = _lazy("quadrature")
catalog = _lazy("catalog")
mesh = _lazy("mesh")
_LAZY_EXPORTS = {
    "CatalogEntry": catalog, "catenoid": catalog, "enneper": catalog,
    "generalized_jorge_meeks": catalog, "holomorphic_counterexample": catalog, "plane": catalog,
    "SurfaceMesh": mesh, "build_mesh": mesh, "export_obj": mesh, "sample_domain": mesh,
}
__all__ = sorted(name for name in [*dir(), *_LAZY_EXPORTS] if not name.startswith("_"))


def __getattr__(name: str):
    """A catalog or mesh export, from its module on first lookup (PEP 562)."""
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_LAZY_EXPORTS[name], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
