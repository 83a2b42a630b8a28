"""End classification: catenoid-type, planar, or higher-order.

At an end of metric order -2 the form expands as
phi = (a_-2 / t^2 + a_-1 / t + ...) dt with <a_-2, a_-2> = 0 and a_-1 real
and orthogonal to the plane spanned by Re a_-2, Im a_-2.  The end is then
asymptotic to a catenoid piece (b = |a_-1| > 0) or a flat plane (b = 0)
inside a 3-dimensional subspace, and is embedded.  Order -3 or lower admits
no such model.
"""

import dataclasses

import numpy as np

import minsurf as ms

for entry in ms.catalog.entries(jm_range=(2,)):
    w = entry.data
    print("=" * 64)
    print(f"{entry.name}  (R^{w.n}, {len(w.punctures)} end(s))")
    print("=" * 64)
    for p in w.punctures:
        e = ms.analyze_end(w, p)
        print(f"end {p!r}:")
        print(f"  metric order mu = {e.mu}  (k = {e.k})")
        print(f"  classification: {e.classification.value}")
        if e.mu == -2:
            print(f"  a = {e.a:.6g}, b = {e.b:.6g}")
            print(f"  a_-2 = {np.round(e.a_minus2, 6)}")
            print(f"  frame e1 = {np.round(e.frame[0], 6)}")
            print(f"        e2 = {np.round(e.frame[1], 6)}")
            print(f"        e3 = {np.round(e.frame[2], 6)}")
        print(f"  rotation index |k-1| = {e.rotation_index}, embedded: {e.embedded}")
    print()

print("Each embedded end is witnessed geometrically: its sphere cut, rescaled")
print("to the unit sphere, tends to a great circle covered once, so its")
print("deviation from that circle falls as R grows.  The cut is bisected on")
print("each ray inside the disc of the end's rotation certificate, where it")
print("has one root; a radius below the certified R0 is refused.")
print()
R_LIST = (1e2, 1e3, 1e4)
cat = ms.catenoid().data
e0 = ms.analyze_end(cat, 0j)
devs = [ms.limit_circle_deviation(cat, 0j, R, end=e0) for R in R_LIST]
print(f"catenoid end at 0 (k = 2):            deviations = {[f'{d:.3g}' for d in devs]}")

ce = ms.holomorphic_counterexample().data
e2 = ms.analyze_end(ce, 0j)
right = [ms.limit_circle_deviation(ce, 0j, R, end=e2) for R in R_LIST]
single = dataclasses.replace(e2, k=2)
wrong = [ms.limit_circle_deviation(ce, 0j, R, end=single) for R in R_LIST]
print(f"counterexample end at 0 (k = 3):      deviations = {[f'{d:.3g}' for d in right]}")
print(f"the same end read as k = 2 (wrong):   deviations = {[f'{d:.6f}' for d in wrong]}")
