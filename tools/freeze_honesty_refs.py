"""Freeze the references of the box-wide honesty gate with mpmath.

    python3 tools/freeze_honesty_refs.py [--out tests/honesty_refs.json]

Run from the repository root, offline.  Writes (s-1) zeta(s) at every point
of four seeded samples, as decimal strings with DIGITS significant digits
computed at DPS working digits, next to each point's coordinates (the repr
of each double, which round-trips) and the evaluator and tol it is judged
at (tests/test_honesty_box.py):

    critical  0.5 + i k/10, k = 0 .. 600, entire_e_line at tol 1e-12;
    far-left  random.Random(10): 100 points, Re s in [-20, -10],
              |Im s| <= 6.2, entire_e_line at tol 1e-12;
    axis      random.Random(11): 150 points with Re s in [-20, -0.05] and
              30 with Re s in [-300, -20], |Im s| <= 60, entire_e_axis at
              tol 1e-12;
    box       random.Random(3): 2,000 points, Re s in [-20, 10],
              |Im s| <= 60, entire_e_line at tol 1e-12.

mpmath is used only here: the package and the tests never import it.
"""

from __future__ import annotations

import argparse
import json
import os
import random

DPS = 40
DIGITS = 34
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def samples() -> dict[str, tuple[str, float, list[complex]]]:
    """Each sample's name, evaluator, tol and points."""
    rng = random.Random(10)
    far_left = [complex(rng.uniform(-20.0, -10.0), rng.uniform(-6.2, 6.2)) for _ in range(100)]
    rng = random.Random(11)
    axis = [complex(rng.uniform(-20.0, -0.05), rng.uniform(-60.0, 60.0)) for _ in range(150)]
    axis += [complex(rng.uniform(-300.0, -20.0), rng.uniform(-60.0, 60.0)) for _ in range(30)]
    rng = random.Random(3)
    box = [complex(rng.uniform(-20.0, 10.0), rng.uniform(-60.0, 60.0)) for _ in range(2000)]
    return {
        "critical": ("entire_e_line", 1e-12, [complex(0.5, k / 10.0) for k in range(601)]),
        "far-left": ("entire_e_line", 1e-12, far_left),
        "axis": ("entire_e_axis", 1e-12, axis),
        "box": ("entire_e_line", 1e-12, box),
    }


def compute() -> dict:
    import mpmath

    mpmath.mp.dps = DPS

    def text(x) -> str:
        return mpmath.nstr(x, DIGITS, min_fixed=1, max_fixed=0)

    out = {"dps": DPS, "digits": DIGITS, "samples": {}}
    for name, (evaluator, tol, pts) in samples().items():
        values = []
        for s in pts:
            x = mpmath.mpc(s.real, s.imag)  # exact: doubles convert exactly
            e = (x - 1) * mpmath.zeta(x)
            values.append([text(e.real), text(e.imag)])
        out["samples"][name] = {"evaluator": evaluator, "tol": tol,
                                "points": [[repr(s.real), repr(s.imag)] for s in pts],
                                "E": values}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "tests", "honesty_refs.json"))
    args = parser.parse_args()
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(compute(), fh, indent=0)
        fh.write("\n")
    os.replace(tmp, args.out)


if __name__ == "__main__":
    main()
