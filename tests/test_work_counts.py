"""Deterministic work counts of the numeric cross-checks over the catalog.

Counts, not timings: a change that makes the Green-identity total curvature
take more rounds or evaluations, or the sphere cuts evaluate the local
immersion again, fails here on any machine.  The workload is that of the
benchmark's ``analyze-catalog``: catenoid, plane, Enneper, the holomorphic
counterexample and Jorge-Meeks m = 1..6, each analysed once, with the
numeric rotation index of every end at R = 1e2, 1e3, 1e4 and the limit-circle
deviation at R = 1e3.
"""

from collections import Counter

import minsurf as ms
from minsurf import curvature, ends

R_LIST = (1e2, 1e3, 1e4)
# Sums over the ten surfaces.  Before Aitken extrapolation and grouping by
# denominator the check took 63 rounds and 1600 polynomial evaluations;
# before the sphere-cut solver returned its last values, 795 local-immersion
# calls.
MAX_ROUNDS = 39
MAX_TC_EVALUATIONS = 650
MAX_LOCAL_IMMERSION_CALLS = 657


def test_catalog_work_counts(monkeypatch):
    counts = Counter()

    def counted(owner, name, key):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(curvature, "_round_fluxes", "rounds")
    counted(ms.rational.ComplexPoly, "__call__", "evaluations")
    counted(ends.LocalImmersion, "__call__", "local_immersion")
    real_tc = curvature.total_curvature_numeric

    def tc_counted(*args, **kwargs):
        before = counts["evaluations"]
        try:
            return real_tc(*args, **kwargs)
        finally:
            counts["tc_evaluations"] += counts["evaluations"] - before

    monkeypatch.setattr(curvature, "total_curvature_numeric", tc_counted)
    for entry in ms.catalog.entries(jm_range=range(1, 7)):
        w = entry.data
        rep = ms.run_analysis(w)
        assert rep.curvature.tc_numeric is not None, entry.name
        for e in rep.ends:
            ms.rotation_index_numeric(w, e.puncture, R_LIST, end=e)
            ends.limit_circle_deviation(w, e.puncture, 1e3, end=e)
    assert counts["rounds"] <= MAX_ROUNDS, counts
    assert counts["tc_evaluations"] <= MAX_TC_EVALUATIONS, counts
    assert counts["local_immersion"] <= MAX_LOCAL_IMMERSION_CALLS, counts
