"""minsurf: rational Weierstrass data of complete minimal surfaces.

Validation (conformality, real periods, completeness), per-end Laurent
analysis and classification, Gauss-map degree and total curvature with the
Chern-Osserman / Gackstatter / Ejiri bounds, and mesh export.
"""

__version__ = "0.1.0"

from . import quadrature  # path-integral reference evaluator for cross-checks
from .catalog import (
    CatalogEntry,
    catenoid,
    enneper,
    generalized_jorge_meeks,
    holomorphic_counterexample,
    plane,
)
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
    asymptotic_model,
    limit_circle_deviation,
    rotation_index_numeric,
    verify_asymptotic,
)
from .mesh import SurfaceMesh, build_mesh, export_obj, sample_domain
from .rational import (
    INF,
    ComplexPoly,
    LaurentSeries,
    RationalMap,
    is_infinity,
    laurent_expand,
    residue,
    roots,
    shared_roots,
)
from .report import AnalysisReport, report_to_json, run_analysis
from .weierstrass import (
    MetricSample,
    WeierstrassData,
    check_residues_real,
    conformal_factor,
    detect_punctures,
    immersion_eval,
    metric_order_at,
    mobius_precompose,
    validate_null,
)

__all__ = [name for name in dir() if not name.startswith("_")]
