"""Reference values for one workload and seed, computed with mpmath.

    python3 perfbench/references.py --workload eval-strip --seed 1 --out refs.json

run.py calls it for a seed whose references are not committed; README.md
lists the commands that rewrite the committed perfbench/refs/*.json.

Writes (s-1) zeta(s) for every "E" point and Gamma(s) zeta(s) for every
Mellin point of the workload (see workloads.reference_points), as decimal
strings with DIGITS significant digits, computed at DPS working digits.
mpmath is used only here, in a process of its own: the package never
imports it and the measured process only reads the JSON this writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import DEFAULT_SEED, WORKLOADS, reference_points  # noqa: E402

DPS = 40
DIGITS = 34


def _pair(z) -> list[str]:
    import mpmath

    return [mpmath.nstr(z.real, DIGITS, min_fixed=1, max_fixed=0),
            mpmath.nstr(z.imag, DIGITS, min_fixed=1, max_fixed=0)]


def compute(workload: str, seed: int) -> dict:
    import mpmath

    mpmath.mp.dps = DPS
    out = {"workload": workload, "seed": seed, "dps": DPS, "points": {}, "values": {}}
    for kind, pts in reference_points(workload, seed).items():
        vals = []
        for s in pts:
            x = mpmath.mpc(s.real, s.imag)  # exact: doubles convert exactly
            if kind == "E":
                v = (x - 1) * mpmath.zeta(x) if x != 1 else mpmath.mpf(1)
            else:
                v = mpmath.gamma(x) * mpmath.zeta(x)
            vals.append(_pair(v))
        out["points"][kind] = [[repr(s.real), repr(s.imag)] for s in pts]
        out["values"][kind] = vals
    return out


def write(data: dict, path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "fixed"), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    write(compute(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
