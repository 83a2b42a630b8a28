"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import minsurf as ms
from conftest import (
    laurent_coefficient,
    metric_sq,
    path_integral,
    sampled_deviation,
    well_conditioned_mobius,
)
from minsurf.ends import EndType, analyze_end
from minsurf.rational import INF, RationalMap, roots
from minsurf.weierstrass import (
    check_residues_real,
    immersion_delta,
    immersion_eval,
    mobius_precompose,
    validate_null,
)

R_LIST = (1e2, 1e3, 1e4)


def _verdict(number: int, label: str, checks):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {number}: {status} - {label}"
          + (f"  [failed: {', '.join(failed)}]" if failed else ""))
    assert not failed, f"criterion {number} failed: {failed}"


def test_criterion_1_catenoid():
    t0 = time.perf_counter()
    entry = ms.catenoid()
    w = entry.data
    rep = ms.curvature_report(w)
    checks = [
        ("d=2", rep.d == 2),
        ("tc_algebraic=-4pi", rep.tc_algebraic == -4.0 * math.pi),
        ("tc_numeric within 0.5%", abs(rep.tc_numeric + 4 * math.pi) <= 0.005 * 4 * math.pi),
        ("chi=0", rep.chi == 0),
        ("m=2", rep.m == 2),
        ("co_equality", rep.co_equality is True),
    ]
    for p in w.punctures:
        e = analyze_end(w, p)
        tag = "0" if p == 0 else "inf"
        checks += [
            (f"end {tag} catenoid-type", e.classification is EndType.CATENOID_TYPE),
            (f"end {tag} a=1/2", abs(e.a - 0.5) < 1e-12),
            (f"end {tag} b=1", abs(e.b - 1.0) < 1e-12),
            (f"end {tag} analytic index 1", e.rotation_index == 1),
            (f"end {tag} numeric index 1",
             ms.rotation_index_numeric(w, p, R_LIST, end=e) == 1),
        ]
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    _verdict(1, f"catenoid ({elapsed:.2f} s)", checks)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_criterion_2_generalized_jorge_meeks(m):
    t0 = time.perf_counter()
    w = ms.generalized_jorge_meeks(m).data
    null = validate_null(w)
    res = check_residues_real(w)
    rep = ms.chern_osserman(w)
    unity = [np.exp(2j * np.pi * k / (m + 1)) for k in range(m + 1)]
    ends_ok = len(w.punctures) == m + 1 and all(
        min(abs(p - u) for u in unity) < 1e-10 for p in w.punctures
    )
    checks = [
        ("null residual < 1e-12", null.defect < 1e-12),
        ("residues real to 1e-10", res.worst_imag < 1e-10),
        ("ends at roots of unity", ends_ok),
        ("d = 2m", rep.d == 2 * m),
        ("TC = -4m pi", rep.tc_pi == -4 * m),
        ("co_equality", rep.co_equality is True),
        ("full", rep.full is True),
        ("l = 0", rep.l == 0),
        ("ejiri rhs = -4m pi", rep.ejiri_pi == -4 * m),
        ("ejiri equality", rep.ejiri_equality is True),
        ("gackstatter holds", rep.tc_pi <= rep.gackstatter_pi),
    ]
    elapsed = time.perf_counter() - t0
    if m == 4:
        checks.append(("runtime < 30 s", elapsed < 30.0))
    _verdict(2, f"generalized Jorge-Meeks m={m} ({elapsed:.2f} s)", checks)


def test_criterion_3_counterexample():
    t0 = time.perf_counter()
    w = ms.holomorphic_counterexample().data
    rep = ms.chern_osserman(w)
    e0 = analyze_end(w, 0j)
    einf = analyze_end(w, INF)
    checks = [
        ("d=3", rep.d == 3),
        ("TC=-6pi", rep.tc_pi == -6),
        ("CO bound -4pi", rep.co_rhs_pi == -4),
        ("equality false", rep.co_equality is False),
        ("end 0 mu=-3", e0.mu == -3),
        ("end 0 numeric index = |k-1| = 2",
         ms.rotation_index_numeric(w, 0j, R_LIST, end=e0) == abs(e0.k - 1) == 2),
        ("end inf mu=-2", einf.mu == -2),
    ]
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    _verdict(3, f"holomorphic counterexample ({elapsed:.2f} s)", checks)


def test_criterion_4_enneper():
    t0 = time.perf_counter()
    w = ms.enneper().data
    rep = ms.chern_osserman(w)
    e = analyze_end(w, INF)
    checks = [
        ("TC=-4pi", rep.tc_pi == -4),
        ("CO bound 0", rep.co_rhs_pi == 0),
        ("strict inequality", rep.tc_pi < rep.co_rhs_pi and not rep.co_equality),
        ("single end", rep.m == 1),
        ("mu=-4", e.mu == -4),
        ("numeric index 3", ms.rotation_index_numeric(w, INF, R_LIST, end=e) == 3),
    ]
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 5 s", elapsed < 5.0))
    _verdict(4, f"Enneper control ({elapsed:.2f} s)", checks)


def test_criterion_5_equality_end_equivalence(all_entries):
    checks = []
    for entry in all_entries:
        rep = ms.chern_osserman(entry.data)
        ends = [analyze_end(entry.data, p) for p in entry.data.punctures]
        model = all(e.classification in (EndType.CATENOID_TYPE, EndType.PLANAR)
                    for e in ends)
        embedded = all(e.embedded for e in ends)
        checks.append((entry.name, rep.co_equality == model == embedded))
    _verdict(5, "equality <-> end-type <-> embeddedness across the catalog", checks)


def test_criterion_6_limit_curve_suite(all_entries):
    checks = []
    for entry in all_entries:
        for p in entry.data.punctures:
            e = analyze_end(entry.data, p)
            devs = [sampled_deviation(entry.data, p, R, end=e) for R in R_LIST]
            # exact-model ends (the plane) sit at rounding noise for every R
            decreasing = (devs[0] > devs[1] > devs[2]) or max(devs) < 1e-9
            wind = ms.rotation_index_numeric(entry.data, p, R_LIST, end=e)
            tag = f"{entry.name}@{p!r}"
            checks.append((f"{tag} deviation decreases", decreasing))
            checks.append((f"{tag} winding = |k-1|", wind == abs(e.k - 1)))
    _verdict(6, "Appendix limit-curve suite", checks)


def test_criterion_7_property_tests(all_entries):
    checks = []

    # residue sum zero on 100 random rational maps
    rng = np.random.default_rng(97)
    worst = 0.0
    done = 0
    while done < 100:
        num = rng.normal(size=rng.integers(1, 5)) + 1j * rng.normal(size=1)
        den = rng.normal(size=rng.integers(2, 6)) + 1j * rng.normal(size=1)
        r = RationalMap(num, den)
        if r.is_zero or r.den.degree() < 1:
            continue
        total = (sum(laurent_coefficient(r, z, -1) for z, _ in roots(r.den))
                 - laurent_coefficient(r, INF, 1))
        worst = max(worst, abs(total))
        done += 1
    checks.append(("residue sum zero (100 random)", worst < 1e-9))

    # conformality finite differences: 100 random points per catalog surface
    rng = np.random.default_rng(101)
    conf_ok = True
    for entry in all_entries:
        w = entry.data
        done = 0
        while done < 100:
            z = complex(rng.normal(), rng.normal()) * 1.2
            if any(abs(z - p) < 0.25 for p in w.finite_punctures) or abs(z) < 0.05:
                continue
            h = 1e-6 * np.exp(2j * np.pi * rng.random())
            df = immersion_delta(w, z, z + h)
            lam2 = metric_sq(w, z)
            if abs(float(df @ df) / abs(h) ** 2 - lam2) >= 1e-3 * lam2:
                conf_ok = False
            done += 1
    checks.append(("conformality rel err < 1e-3 (100 pts/surface)", conf_ok))

    # path independence: the closed form against 10 randomly perturbed
    # path integrals
    rng = np.random.default_rng(103)
    w = ms.generalized_jorge_meeks(2).data
    closed = immersion_eval(w, 1.5 + 0.5j)
    path_ok = True
    done = 0
    while done < 10:
        via = [complex(rng.normal() * 2, rng.normal() * 2) for _ in range(2)]
        if any(abs(v - p) < 0.1 for v in via for p in w.finite_punctures):
            continue
        alt = path_integral(w, [w.basepoint, *via, 1.5 + 0.5j])
        if np.max(np.abs(closed - alt)) >= 1e-8:
            path_ok = False
        done += 1
    checks.append(("path independence 1e-8 (10 paths)", path_ok))

    # Moebius invariance of the degree on 20 random reparametrizations
    rng = np.random.default_rng(107)
    surfaces = [ms.catenoid(), ms.enneper(), ms.holomorphic_counterexample(),
                ms.generalized_jorge_meeks(1), ms.generalized_jorge_meeks(2)]
    mob_ok = True
    for entry in surfaces:
        d0 = ms.gauss_map(entry.data)
        for _ in range(4):
            mob = well_conditioned_mobius(entry.data, rng)
            if ms.gauss_map(mobius_precompose(entry.data, mob)) != d0:
                mob_ok = False
    checks.append(("Moebius invariance of d (20 maps)", mob_ok))
    _verdict(7, "property tests", checks)


def test_criterion_8_asymptotic_bounds(all_entries):
    # each order -2 end's rescaled sphere cut tends to its great circle
    # covered once: the deviation falls across R_LIST, or is at the rounding
    # floor (the plane's cut is the circle)
    checks = []
    for entry in all_entries:
        for p in entry.data.punctures:
            e = analyze_end(entry.data, p)
            if e.mu != -2:
                continue
            devs = [sampled_deviation(entry.data, p, R, end=e) for R in R_LIST]
            ok = devs[0] > devs[1] > devs[2] or max(devs) < 1e-9
            checks.append((f"{entry.name}@{p!r} tends to its circle", ok))
    # negative control: the order -3 end, a double cover, read as a single one
    ce = ms.holomorphic_counterexample().data
    single = dataclasses.replace(analyze_end(ce, 0j), mu=-2)
    devs = [sampled_deviation(ce, 0j, R, end=single) for R in R_LIST]
    checks.append(("double cover read as a single one stays off", min(devs) > 1.0))
    _verdict(8, "limit-circle suite", checks)
