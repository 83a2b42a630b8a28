"""Deterministic work counts of the numeric cross-checks over the catalog.

Counts, not timings: a change that makes the Green-identity total curvature
take more rounds or evaluations, or the sphere cuts take more Newton steps,
fails here on any machine.  The workload is that of the
benchmark's ``analyze-catalog``: catenoid, plane, Enneper, the holomorphic
counterexample and Jorge-Meeks m = 1..6, each analysed once, with the
numeric rotation index of every end at R = 1e2, 1e3, 1e4 and the limit-circle
deviation at R = 1e3.
"""

from collections import Counter

import pytest

import minsurf as ms
from minsurf import curvature, ends
from minsurf.errors import InternalConsistencyError

R_LIST = (1e2, 1e3, 1e4)
# Sums over the ten surfaces.  Before Aitken extrapolation and grouping by
# denominator the check took 63 rounds and 1600 polynomial evaluations.  The
# sphere cuts took 795 local-immersion calls before the solver returned its
# last values, and 657 before Newton on the exact radial derivative; now each
# evaluation is one call of a polar evaluator (``radial_jet``).
MAX_ROUNDS = 39
MAX_TC_EVALUATIONS = 650
MAX_SPHERE_CUT_EVALUATIONS = 369


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
    real_jet = ends.LocalImmersion.radial_jet

    def jet_counted(self, thetas, r_max):
        jet, K = real_jet(self, thetas, r_max)

        def evaluate(x):
            counts["sphere_cut"] += 1
            return jet(x)

        return evaluate, K

    monkeypatch.setattr(ends.LocalImmersion, "radial_jet", jet_counted)
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
    assert counts["sphere_cut"] <= MAX_SPHERE_CUT_EVALUATIONS, counts


def test_refused_ends_take_no_curvature_rounds(monkeypatch):
    # the catenoid with ends 1e-3 apart fails the bilinear check of its end
    # at 0.25; the ends are analysed first, so no Green-identity round is paid
    rounds = []
    real = curvature._round_fluxes
    monkeypatch.setattr(curvature, "_round_fluxes",
                        lambda *args, **kwargs: rounds.append(1) or real(*args, **kwargs))
    w = ms.mobius_precompose(ms.catenoid().data, (1, -0.25, 1, -0.251))
    with pytest.raises(InternalConsistencyError, match="Laurent relations violated"):
        ms.run_analysis(w)
    assert rounds == []
