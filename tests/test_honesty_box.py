"""The box-wide honesty gate: where each evaluator's err_est is below its error.

tests/test_err_est_honesty.py holds err_est to its bound at the benchmark's
points, all with Re s in [-5, 6].  The known gaps lie outside that range,
so this gate reads four samples that reach them, frozen at 34 digits in
tests/honesty_refs.json (tools/freeze_honesty_refs.py, offline, with
mpmath): the critical line 0.5 + i k/10, k = 0 .. 600; 100 points far left,
Re s in [-20, -10]; 180 points of the axis form, Re s down to -300; and
2,000 points of the box, Re s in [-20, 10], |Im s| <= 60.

Each sample's points whose error exceeds err_est are listed by index, and
so are those of them that say converged=True.  The test fails when a point
joins either list, and when a listed point leaves it: a change that mends
a point shortens the list.  A point that raises is plainly flagged and is
in neither list.  Errors are measured in Decimal against the reference
itself, with tests/test_err_est_honesty.py's helper.
"""

import json
from decimal import Decimal
from pathlib import Path

import pytest
from test_err_est_honesty import _abs_error

from zetaline import contour
from zetaline.errors import ZetalineError

SAMPLES = json.loads((Path(__file__).resolve().parent / "honesty_refs.json").read_text())["samples"]

# the line's node rounding far left (exp((1-s) ln z) carries about
# eps |1-s| |ln z|, which the sum's noise term leaves out) and the axis
# form's node rounding in integrate_mellin, far left too
OUTSIDE = {
    "critical": [],
    "far-left": [1, 3, 8, 14, 30, 76],
    "axis": [159, 171],
    "box": [153, 156, 269, 475, 711, 760, 804, 871, 935, 961, 1009, 1065, 1092, 1112, 1344,
            1374, 1394, 1414, 1433, 1623, 1642, 1650, 1660, 1720, 1744, 1882, 1977],
}
CONVERGED_OUTSIDE = {"critical": [], "far-left": [1, 3, 8, 30, 76], "axis": [], "box": [269]}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_points_outside_err_est_are_the_listed_ones(name):
    sample = SAMPLES[name]
    evaluate = getattr(contour, sample["evaluator"])
    outside, converged = [], []
    for i, ((re, im), (ref_re, ref_im)) in enumerate(zip(sample["points"], sample["E"])):
        try:
            r = evaluate(complex(float(re), float(im)), sample["tol"])
        except ZetalineError:
            continue
        if _abs_error(r.value, (Decimal(ref_re), Decimal(ref_im))) > Decimal(r.err_est):
            outside.append(i)
            if r.converged:
                converged.append(i)
    assert outside == OUTSIDE[name]
    assert converged == CONVERGED_OUTSIDE[name]
