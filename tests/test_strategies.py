"""The drawn data of ``strategies`` analyse to the integers they are built with,
and every end of a valid draw has a rotation certificate of its index."""

import numpy as np
import pytest
from strategies import null_curve

import minsurf as ms
from minsurf.ends import certify_rotation_index


# the ends of the valid draws, each with a certificate
CERTIFIED_ENDS = {2: 596, 3: 573}


@pytest.mark.parametrize("k", [2, 3])
def test_null_curves_analyse_to_their_constructed_integers(k):
    # each of 200 draws analyses to its constructed degree and end orders, or
    # is refused by validation for a non-real residue: every residue is zero
    # by construction, and a few are read as not real within tolerance.
    # Every end of a valid draw has a rotation certificate of index |k - 1|
    rng = np.random.default_rng(11)
    refused = certified = 0
    for _ in range(200):
        curve = null_curve(rng, k)
        rep = ms.run_analysis(curve.data)
        if rep.curvature is None:
            assert any("non-real residue" in m for m in rep.validation.messages), curve
            refused += 1
            continue
        assert rep.curvature.d == curve.d, curve
        assert tuple(sorted(o for _p, o in rep.validation.end_orders)) == curve.orders, curve
        for e in rep.ends:
            cert = certify_rotation_index(curve.data, e.puncture, end=e)
            assert cert is not None and cert.index == abs(e.k - 1), (curve, e.puncture)
            certified += 1
    assert refused <= 3
    assert certified == CERTIFIED_ENDS[k]
