"""Rotation index of the sphere cut: |k - 1|, embedded exactly when k = 2.

Near an end of order -k the rescaled intersection of the surface with a
large sphere converges to a (k-1)-fold covered great circle.  Each end's
rotation certificate bounds the rest of the end's series against its
leading term on a punctured disc 0 < |t| <= r0 of the local coordinate:
there |f| falls strictly along every ray, and the cut's projection onto the
asymptotic plane stays within delta of the leading term's (k-1)-fold
circle, so every cut |f| = R with R >= R0 winds exactly k - 1 times.  The
margin is 1 - delta at r0.  The certificate is the only witness of the
index, and the limit-circle deviation keeps its regime: a radius below R0
is refused by both, not sampled.  The deviation is a bound read off the
same certificate: the cut |f| = R lies in |t| <= r0 (R0/R)^(1/(k-1)), where
the rest of the series is within a proved fraction of the leading term.
Here every radius is at least R0.
"""

import minsurf as ms
from minsurf.ends import certify_rotation_index
from minsurf.rational import INF

R_LIST = (1e2, 1e3, 1e4)

cases = [
    ("catenoid", ms.catenoid().data, 0j),
    ("plane", ms.plane().data, INF),
    ("Enneper", ms.enneper().data, INF),
    ("counterexample (z, 1/z^2) at 0", ms.holomorphic_counterexample().data, 0j),
    ("counterexample (z, 1/z^2) at inf", ms.holomorphic_counterexample().data, INF),
]

print(f"{'end':<36}{'k':>3}{'|k-1|':>7}{'numeric':>9}{'embedded':>10}{'R0':>10}{'margin':>8}")
print("-" * 83)
for label, w, p in cases:
    e = ms.analyze_end(w, p)
    idx = ms.rotation_index_numeric(w, p, R_LIST, end=e)
    cert = certify_rotation_index(w, p, end=e)
    print(f"{label:<36}{e.k:>3}{e.rotation_index:>7}{idx:>9}{str(e.embedded):>10}"
          f"{cert.R0:>10.3g}{cert.margin:>8.3f}")

print()
print("Convergence to the limit circle (a proved bound of the sup distance of")
print("the normalized cut from the (k-1)-fold circle in the aligned frame):")
for label, w, p in cases:
    devs = ms.limit_circle_deviation(w, p, R_LIST)
    print(f"  {label:<36}" + "  ".join(f"R=1e{int(2 + i)}: {d:.2e}"
                                       for i, d in enumerate(devs)))

print()
print("Enneper's index-3 cut is the classical picture of its non-embedded")
print("end; the counterexample's order -3 end double-covers its circle even")
print("though the surface itself is injective.")
