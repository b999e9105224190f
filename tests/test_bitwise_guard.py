"""Bits of the package's outputs, pinned: a change that only speeds a path
up keeps every one of them.

The first three SHA-256 digests below were taken before the line's
per-point set-up was reworked (one height search in a few tail calls, one
pass for the residues, per-step tables for the bound and the correction).
They cover the fixed probe scan of perfbench/workloads.py (PROBE_GRID),
zeta on eval-tall's 48 points and mellin_check on verify seed 1's 48 Mellin
points, with value, err_est, n_evals, converged and truncation_height where
the result has them.  The other three were taken before the Mellin check's
repeated work was taken out (the Euler-Maclaurin reference in one pass,
one Lanczos sum per head Gamma, one pass for the strip bound's M): feq_check
and entire_e_axis on verify seed 1's feq and axis points, and
zeta_euler_maclaurin's value and bound on its Mellin and feq points.  The
seventh was taken before the Mellin heads' Gamma chain was folded into one
function: every field of bose and J on the Mellin points at two tols.

The bits are those of CPython 3.11's float arithmetic and of x86-64 glibc's
libm: CPython 3.12 adds compensation to sum() over floats, which the line's
strip bound uses, so elsewhere the digests are not expected to match.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

from zetaline import entire_e_axis, feq_check, mellin, mellin_check, zeta
from zetaline.cli import ScanGrid, scan_csv_lines
from zetaline.oracle import zeta_euler_maclaurin

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFS = PERFBENCH / "refs"

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or sys.platform != "linux"
    or platform.machine() != "x86_64",
    reason="the digests are CPython 3.11's bits on x86-64 Linux")


def _points(name: str, kind: str = "E") -> list[complex]:
    data = json.loads((REFS / name).read_text())
    return [complex(float(a), float(b)) for a, b in data["points"][kind]]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_probe_scan_bits():
    """scan_csv_lines on PROBE_GRID (Re s in [-2, 3], Im s in [0.5, 4.5],
    40 x 3, tol 1e-8), whose points fixed.json lists."""
    grid = ScanGrid(-2.0, 3.0, 0.5, 4.5, 40, 3)
    assert grid.points() == _points("fixed.json")
    lines, missed = scan_csv_lines(grid, 1e-8)
    assert missed == []
    assert _sha("\n".join(lines) + "\n") == (
        "44f94d0d342f091eddbc60ab83d58f06b50935fd88faec528ab91f685dad2fb7")


def test_eval_tall_bits():
    results = [zeta(s) for s in _points("eval-tall.json")]
    assert len(results) == 48
    assert _sha("".join(f"{r.value!r} {r.err_est!r} {r.n_evals} {r.converged} "
                        f"{r.truncation_height!r}\n" for r in results)) == (
        "179a86ecfd3a043aa5d2c5f0ee86394a5cf30e4b1934007829ce534ca2133e47")


def test_verify_mellin_bits():
    reports = [mellin_check(s) for s in _points("verify-seed1.json", "gamma_zeta")]
    assert len(reports) == 48
    assert _sha("".join(f"{r!r}\n" for r in reports)) == (
        "4ec5d91802ab8618d9710ebdc10f92d01002b5b049df500c12a3d77873bfe1ab")


def _verify_points(seed: int) -> dict[str, list[complex]]:
    """perfbench/workloads.py's verify points: "feq", "mellin" and "axis"."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.verify_points(seed)


def test_verify_feq_bits():
    reports = [feq_check(s) for s in _verify_points(1)["feq"]]
    assert len(reports) == 48
    assert _sha("".join(f"{r!r}\n" for r in reports)) == (
        "bf49f87a273cab2df8f1a4d4af9154982ad755784711cc46097cbba1acb3727d")


def test_verify_axis_bits():
    points = _points("verify-seed1.json")
    assert points == _verify_points(1)["axis"]
    results = [entire_e_axis(s) for s in points]
    assert _sha("".join(f"{r.value!r} {r.err_est!r} {r.n_evals} {r.converged} "
                        f"{r.truncation_height!r}\n" for r in results)) == (
        "0b1f0d4f230f038b405c8f5045efa536d277e02d9e8175e90b45c3baeb52d307")


def test_verify_oracle_bits():
    """Value and bound at verify seed 1's 48 Mellin and 48 feq points."""
    points = _verify_points(1)
    assert points["mellin"] == _points("verify-seed1.json", "gamma_zeta")
    pairs = [zeta_euler_maclaurin(s) for s in points["mellin"] + points["feq"]]
    assert _sha("".join("%r %r\n" % pair for pair in pairs)) == (
        "6133cb6abddf87568be8a661769b29a7f39f24882a00f08bf39442b8f9592055")


def test_verify_mellin_integrals_bits():
    """Every field of mellin._bose and mellin._sinh_sq_integral at verify
    seed 1's 48 Mellin points, at tol 1e-12 and 1e-8: the value and err_est
    of the heads and the remainders, not only mellin_check's values."""
    points = _points("verify-seed1.json", "gamma_zeta")
    assert len(points) == 48
    results = [f(s, tol) for tol in (1e-12, 1e-8) for s in points
               for f in (mellin._bose, mellin._sinh_sq_integral)]
    assert _sha("".join(f"{r.value!r} {r.err_est!r} {r.n_evals} {r.converged} "
                        f"{r.truncation_height!r}\n" for r in results)) == (
        "a39c328af7a7e5b5499e49679c683b747c1945d5517da8c2817cde74bc611b11")
