"""Deterministic work counts of the numeric cross-checks over the catalog.

Counts, not timings: a change that makes the Green-identity total curvature
take more calls or evaluations fails here on any machine.  The workload is
that of the benchmark's ``analyze-catalog``: catenoid, plane, Enneper, the
holomorphic counterexample and Jorge-Meeks m = 1..6, each analysed once,
with the numeric rotation index of every end at R = 1e2, 1e3, 1e4.  The
witness reads only the rotation certificate, which covers those radii on
every catalog end.
"""

from collections import Counter

import numpy as np
import pytest

import minsurf as ms
from conftest import scaled
from minsurf import curvature, ends, rational, report, wdfile, weierstrass
from minsurf.errors import InternalConsistencyError

R_LIST = (1e2, 1e3, 1e4)
# Sums over the ten surfaces.  Before Aitken extrapolation and grouping by
# denominator the check took 63 rounds and 1600 polynomial evaluations, and 39
# and 650 before the Romberg stop and the denominators' evaluation from their
# roots (2 evaluations per component and call, num and num', remain).  With
# one round a call it took 32 calls and 376 evaluations, and 19 and 236 with
# two; with four rounds a call each surface took one call, as it does now
# that one round at fixed radii replaces the extrapolated rounds.
MAX_ROUND_CALLS = 10
MAX_TC_EVALUATIONS = 120


def test_catalog_work_counts(monkeypatch):
    counts = Counter()

    def counted(owner, name, key):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(curvature, "_round_fluxes", "round_calls")
    # the Green-identity numerators are coefficient arrays, evaluated by
    # curvature's Horner, not by ComplexPoly.__call__
    counted(curvature, "horner", "evaluations")
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
    assert counts["round_calls"] <= MAX_ROUND_CALLS, counts
    assert counts["tc_evaluations"] <= MAX_TC_EVALUATIONS, counts


def test_refused_ends_take_no_curvature_rounds(monkeypatch):
    # the catenoid with phi_1 off by one part in 1e7 is rejected by
    # validation, its leading Laurent vectors not null; and a datum that
    # validates but whose end analysis refuses it (analyze_end made to raise
    # here: no natural datum is known to) is refused before the curvature.
    # Neither pays a Green-identity round
    rounds = []
    real = curvature._round_fluxes
    monkeypatch.setattr(curvature, "_round_fluxes",
                        lambda *args, **kwargs: rounds.append(1) or real(*args, **kwargs))
    phi = ms.catenoid().data.phi
    rep = ms.run_analysis(ms.WeierstrassData([scaled(phi[0], 1 + 1e-7), *phi[1:]]))
    assert not rep.valid and rep.curvature is None and rep.ends is None
    assert any("leading Laurent vector not null" in m for m in rep.validation.messages)

    def refuse(w, p):
        raise InternalConsistencyError(f"at end {p!r}: nullity violated")

    monkeypatch.setattr(report, "analyze_end", refuse)
    w = ms.catenoid().data
    assert weierstrass.validate(w).ok
    with pytest.raises(InternalConsistencyError, match="at end 0j: nullity violated"):
        ms.run_analysis(w)
    assert rounds == []


def test_repeat_analysis_matches_no_pole_again(monkeypatch):
    # the listed punctures of JM m = 6 are not the table's poles bitwise,
    # so the build matches each to its pole by roots_coincide and keeps the
    # match: neither the first analysis nor the witnesses call it with a
    # listed point, a second analysis calls it not at all, and the table
    # holds one record per table point and none for a listed point
    calls = []
    real = rational.roots_coincide

    def counted(*args):
        calls.append(args)
        return real(*args)

    for owner in (rational, weierstrass):
        monkeypatch.setattr(owner, "roots_coincide", counted)
    w = ms.generalized_jorge_meeks(6).data
    listed = set(w.punctures) - set(w.end_poles)
    assert listed and any(args[0] in listed for args in calls)
    calls.clear()
    rep = ms.run_analysis(w)
    for e in rep.ends:
        ms.rotation_index_numeric(w, e.puncture, R_LIST, end=e)
        ms.limit_circle_deviation(w, e.puncture, R_LIST, end=e)
    assert not [args for args in calls if {args[0], args[2]} & listed]
    calls.clear()
    ms.run_analysis(w)
    assert calls == []
    table = w._laurent
    assert set(table._windows) == set(table.poles)
    assert len({id(win) for win in table._windows.values()}) == len(table._windows)


# roots() calls on JM m = 6, each distinct polynomial once: the forms of one
# build share a RootTable.  Without it, building the datum took 13 calls (one
# denominator, once per component), its first analysis 7 (2 distinct), its
# five conftest-rule Moebius charts after that analysis 130, and reading it
# back from its .wd file 13 (2 distinct).  The charts' 22 polynomials are
# those not rooted by the analysis already.  Each map roots its denominator
# at construction, the first component's reduced one too (after its
# cancellation), so the build takes 2 and the analysis 1.
MAX_ROOTS_BUILD = 2
MAX_ROOTS_ANALYSIS = 1
MAX_ROOTS_CHARTS = 22
MAX_ROOTS_FILE = 2


def test_each_distinct_polynomial_is_rooted_once(monkeypatch):
    from conftest import well_conditioned_mobius

    calls = []
    real = rational.roots
    monkeypatch.setattr(rational, "roots", lambda p: calls.append(p) or real(p))

    def count():
        n = len(calls)
        calls.clear()
        return n

    w = ms.generalized_jorge_meeks(6).data
    assert count() <= MAX_ROOTS_BUILD
    ms.run_analysis(w)
    assert count() <= MAX_ROOTS_ANALYSIS
    rng = np.random.default_rng(2001)
    for _ in range(5):
        ms.mobius_precompose(w, well_conditioned_mobius(w, rng))
    assert count() <= MAX_ROOTS_CHARTS
    wdfile.loads(wdfile.dumps(wdfile.document_from_data(w))).to_data()
    assert count() <= MAX_ROOTS_FILE


def test_witness_kernels_build_no_polynomial(monkeypatch):
    # on warm data (each datum analysed once) the Green-identity witness
    # reads the components' coefficient arrays and the rotation certificate
    # the local immersion's table: neither constructs a ComplexPoly.  The
    # witness built two per nonzero component and call, its numerator over
    # the unit and that numerator's derivative
    data = [entry.data for entry in ms.catalog.entries(jm_range=range(1, 7))]
    reports = [ms.run_analysis(w) for w in data]
    built = []
    real = rational.ComplexPoly.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(rational.ComplexPoly, "__init__", counted)
    for w, rep in zip(data, reports):
        assert curvature.total_curvature_numeric(w) == rep.curvature.tc_numeric
        for e in rep.ends:
            assert ends.certify_rotation_index(w, e.puncture, e) is not None
    assert built == []
