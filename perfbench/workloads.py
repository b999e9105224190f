"""Seeded inputs of the four benchmark workloads (standard library only).

Both the measured process (run.py) and the reference generator
(references.py) build their inputs here, so the two agree point for point.
Points are drawn by stratified sampling: the region is cut into a fixed
grid of cells and the seed places one point uniformly inside each cell,
then shuffles their order.  Every seed therefore covers the whole region
with the same density, which keeps the mean cost of a round of operations
nearly independent of the seed while the points themselves change.
"""

from __future__ import annotations

import random

WORKLOADS = ("eval-strip", "eval-tall", "scan-grid", "verify")

# eval-strip: zeta(s) in the strip Re s in [-5, 6], |Im s| <= 6.5.  The
# line form stops converging at scattered points with Re s near 4.5-5.2 and
# |Im s| above about 7.3 at tol 1e-12 (see CHANGES.md), which would fail on
# some seeds only, so the strip stops at 6.5.
STRIP_BOX = (-5.0, 6.0, -6.5, 6.5)
STRIP_CELLS = (20, 20)
# every CONJ_EVERY-th eval-strip point is re-evaluated at conj(s) after the
# timed loop to check zeta(conj s) == conj zeta(s) bitwise
CONJ_EVERY = 8

# eval-tall: a fixed grid with 12 <= |Im s| <= 60, the same for every seed.
# Every point fails today (converged=False); keeping the points fixed makes
# the failed share exactly 1 on any seed until the line form is mended.
TALL_RE = (-5.0, -2.8, -0.6, 1.6, 3.8, 6.0)
TALL_IM = (12.0, 18.5, 25.0, 31.5, 38.0, 44.5, 51.0, 57.5)

# scan-grid: a 40 x 25 grid near Re s in [-2, 3], Im s in [0, 5]; the seed
# pulls each edge inward by up to SCAN_JITTER
SCAN_BOX = (-2.0, 3.0, 0.0, 5.0)
SCAN_STEPS = (40, 25)
SCAN_JITTER = 0.1
SCAN_TOL = 1e-8

# verify: VERIFY_N triples (mellin_check, feq_check, entire_e_axis), each
# set a Latin hypercube over its box: Re s and Im s each cut into VERIFY_N
# strata, one point per stratum, strata paired at random.  Mellin points
# use fixed Re levels (stratum centres) instead: mellin_check costs about
# 1/(Re s - 1), 20x more at Re s = 1.15 than at 3, so a seeded Re near the
# left edge would make a round's cost depend on the seed.
VERIFY_N = 48
FEQ_BOX = (-5.0, 6.0, -8.0, 8.0)
MELLIN_BOX = (1.1, 6.0, -5.0, 5.0)
# the axis form's err_est understates the error at scattered points with
# -1 < Re s <= -0.05 (see CHANGES.md), so the axis points stop at Re s = -1
AXIS_BOX = (-5.0, -1.0, -8.0, 8.0)
# every MELLIN_REAL_EVERY-th Re level of the Mellin points is put on the real
# axis, where the acceptance tolerance is 1e-9 rather than 1e-8; real s takes
# cpow_principal's cheaper real path, so which levels are real is fixed too
MELLIN_REAL_EVERY = 4
FEQ_GUARD = 1e-3  # feq_check refuses |s| < 1e-3 and |s - 1| < 1e-3

# The fixed scan that measures scan_points_per_s_* on the workloads that do
# not scan; the same for every seed.
PROBE_GRID = {"re_min": -2.0, "re_max": 3.0, "im_min": 0.5, "im_max": 4.5,
              "steps_re": 40, "steps_im": 3, "tol": SCAN_TOL}


DEFAULT_SEED = 1
SEED_FREE = ("eval-tall", "fixed")  # inputs that do not depend on the seed


def ref_filename(workload: str, seed: int) -> str:
    return f"{workload}.json" if workload in SEED_FREE else f"{workload}-seed{seed}.json"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def stratified(rng: random.Random, box: tuple[float, float, float, float],
               cells: tuple[int, int], keep=lambda s: True) -> list[complex]:
    """One uniform point per cell of a cells[0] x cells[1] grid over box,
    redrawn inside its cell until keep(s) holds, in seeded random order."""
    re_lo, re_hi, im_lo, im_hi = box
    n_re, n_im = cells
    dre, dim = (re_hi - re_lo) / n_re, (im_hi - im_lo) / n_im
    pts = []
    for i in range(n_re):
        for j in range(n_im):
            while True:
                s = complex(re_lo + (i + rng.random()) * dre,
                            im_lo + (j + rng.random()) * dim)
                if keep(s):
                    break
            pts.append(s)
    rng.shuffle(pts)
    return pts


def strip_points(seed: int) -> list[complex]:
    return stratified(_rng("eval-strip", seed), STRIP_BOX, STRIP_CELLS,
                      keep=lambda s: abs(s - 1.0) > 1e-3)


def tall_points() -> list[complex]:
    """Fixed points, alternating the sign of Im s; independent of the seed."""
    pts = []
    for k, im in enumerate(TALL_IM):
        for j, re in enumerate(TALL_RE):
            sign = 1.0 if (j + k) % 2 == 0 else -1.0
            pts.append(complex(re, sign * im))
    return pts


def scan_grid(seed: int) -> dict:
    """Keyword arguments of one `zetaline scan` run (minus --out and --jobs)."""
    rng = _rng("scan-grid", seed)
    re_lo, re_hi, im_lo, im_hi = SCAN_BOX
    return {
        "re_min": re_lo + SCAN_JITTER * rng.random(),
        "re_max": re_hi - SCAN_JITTER * rng.random(),
        "im_min": im_lo + SCAN_JITTER * rng.random(),
        "im_max": im_hi - SCAN_JITTER * rng.random(),
        "steps_re": SCAN_STEPS[0],
        "steps_im": SCAN_STEPS[1],
        "tol": SCAN_TOL,
    }


def grid_points(grid: dict) -> list[complex]:
    """Row-major grid points (Im outer, Re inner), endpoints included."""
    def axis(lo: float, hi: float, n: int) -> list[float]:
        return [lo] if n == 1 else [lo + k * (hi - lo) / (n - 1) for k in range(n)]

    res = axis(grid["re_min"], grid["re_max"], grid["steps_re"])
    ims = axis(grid["im_min"], grid["im_max"], grid["steps_im"])
    return [complex(re, im) for im in ims for re in res]


def scan_argv(grid: dict, out: str, jobs: int) -> list[str]:
    return [
        "scan",
        "--re-min", repr(grid["re_min"]), "--re-max", repr(grid["re_max"]),
        "--im-min", repr(grid["im_min"]), "--im-max", repr(grid["im_max"]),
        "--steps-re", str(grid["steps_re"]), "--steps-im", str(grid["steps_im"]),
        "--tol", repr(grid["tol"]), "--out", out, "--jobs", str(jobs),
    ]


def latin(rng: random.Random, box: tuple[float, float, float, float], n: int,
          keep=lambda s: True, fixed_re: bool = False) -> list[complex]:
    """n points, one in each of n strata of Re s and of Im s, strata paired
    at random; with fixed_re, Re s sits at the centre of its stratum."""
    re_lo, re_hi, im_lo, im_hi = box
    dre, dim = (re_hi - re_lo) / n, (im_hi - im_lo) / n
    im_strata = list(range(n))
    rng.shuffle(im_strata)
    pts = []
    for i, j in enumerate(im_strata):
        while True:
            re = re_lo + (i + (0.5 if fixed_re else rng.random())) * dre
            s = complex(re, im_lo + (j + rng.random()) * dim)
            if keep(s):
                break
        pts.append(s)
    rng.shuffle(pts)
    return pts


def verify_points(seed: int) -> dict[str, list[complex]]:
    rng = _rng("verify", seed)
    feq = latin(rng, FEQ_BOX, VERIFY_N,
                keep=lambda s: abs(s) >= FEQ_GUARD and abs(s - 1.0) >= FEQ_GUARD)
    mellin = latin(rng, MELLIN_BOX, VERIFY_N, fixed_re=True)
    width = (MELLIN_BOX[1] - MELLIN_BOX[0]) / VERIFY_N
    mellin = [complex(s.real, 0.0)
              if int((s.real - MELLIN_BOX[0]) / width) % MELLIN_REAL_EVERY == MELLIN_REAL_EVERY - 1
              else s for s in mellin]
    axis = latin(rng, AXIS_BOX, VERIFY_N)
    return {"feq": feq, "mellin": mellin, "axis": axis}


def reference_points(workload: str, seed: int) -> dict[str, list[complex]]:
    """The points whose references are needed, by kind.

    "fixed" is not a workload: it names the seed-independent PROBE_GRID
    points, whose references every workload shares.  "E" points need
    (s-1) zeta(s); "gamma_zeta" points need Gamma(s) zeta(s).
    """
    if workload == "eval-strip":
        return {"E": strip_points(seed)}
    if workload == "eval-tall":
        return {"E": tall_points()}
    if workload == "scan-grid":
        return {"E": grid_points(scan_grid(seed))}
    if workload == "verify":
        v = verify_points(seed)
        return {"E": v["axis"], "gamma_zeta": v["mellin"]}
    if workload == "fixed":
        return {"E": grid_points(PROBE_GRID)}
    raise ValueError(f"unknown workload {workload!r}")
