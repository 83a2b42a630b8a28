"""End classification: catenoid-type, planar, or higher-order.

At an end of metric order -2 the form expands as
phi = (a_-2 / t^2 + a_-1 / t + ...) dt with <a_-2, a_-2> = 0 and a_-1 real
and orthogonal to the plane spanned by Re a_-2, Im a_-2.  The end is then
asymptotic to a catenoid piece (b = |a_-1| > 0) or a flat plane (b = 0)
inside a 3-dimensional subspace, and is embedded.  Order -3 or lower admits
no such model.
"""

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
print("to the unit sphere, tends to a great circle covered once.  The end's")
print("rotation certificate bounds the cut's distance from that circle for")
print("every R >= R0, without solving the cut: the cut lies in a disc whose")
print("radius falls like R^(-1/(k-1)), where the rest of the series is small")
print("against its leading term.  A radius below the certified R0 is refused.")
print()
R_LIST = (1e2, 1e3, 1e4)
cat = ms.catenoid().data
devs = ms.limit_circle_deviation(cat, 0j, R_LIST)
print(f"catenoid end at 0 (k = 2):        deviation bounds = {[f'{d:.3g}' for d in devs]}")

ce = ms.holomorphic_counterexample().data
devs = ms.limit_circle_deviation(ce, 0j, R_LIST)
print(f"counterexample end at 0 (k = 3):  deviation bounds = {[f'{d:.3g}' for d in devs]}")
