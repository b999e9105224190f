"""The benchmark's checks reject wrong results, and its files agree.

    python3 -m pytest -q perfbench

Uses the committed references only; mpmath is not needed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks as C  # noqa: E402
import run  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

zl = run._import_package()


@pytest.fixture(scope="module")
def fixed_refs():
    return run.load_refs("fixed", 0)


def test_estimate_check_rejects_perturbed_and_nonconverged():
    s = W.strip_points(W.DEFAULT_SEED)[0]
    ref = C.zeta_from_e(s, run.load_refs("eval-strip", W.DEFAULT_SEED)["E"][0])
    r = zl.zeta(s)
    assert C.check_estimate(r.value, r.err_est, r.converged, ref) is None
    assert C.check_estimate(r.value + 2.0 * r.err_est, r.err_est, True, ref)
    assert C.check_estimate(r.value, r.err_est, False, ref) == "converged=False"
    assert C.check_estimate(complex(math.nan, 0.0), r.err_est, True, ref)


def test_conjugation_check_is_bitwise():
    v = 0.5 - 0.25j
    assert C.check_conjugate(v, v.conjugate()) is None
    assert C.check_conjugate(v, complex(0.5, math.nextafter(0.25, 1.0)))
    assert C.check_conjugate(complex(1.0, 0.0), complex(1.0, 0.0))  # -0.0 expected
    assert C.check_conjugate(complex(1.0, 0.0), complex(1.0, -0.0)) is None


def test_feq_check_threshold():
    assert C.check_feq(9e-9) is None
    assert C.check_feq(2e-8)
    assert C.check_feq(math.nan)


def test_mellin_check_tolerances():
    # the cheapest complex Mellin point of the default seed (largest Re s)
    pts = W.verify_points(W.DEFAULT_SEED)["mellin"]
    k = max((i for i, s in enumerate(pts) if s.imag != 0.0), key=lambda i: pts[i].real)
    s = pts[k]
    rep = zl.mellin_check(s)
    ints = {"bose": rep.bose, "exp_sq": rep.exp_sq, "sinh_form": rep.sinh_form}
    ref = run.load_refs("verify", W.DEFAULT_SEED)["gamma_zeta"][k]
    assert C.check_mellin(s, ints, ref) is None
    assert C.check_mellin(s, dict(ints, exp_sq=rep.exp_sq + 2e-8), ref)
    # 5e-9 is inside the complex-s tolerance but outside the real-s one
    assert C.check_mellin(s, dict(ints, bose=rep.bose + 5e-9), ref) is None
    assert C.check_mellin(complex(s.real, 0.0), dict(ints, bose=rep.bose + 5e-9), ref)


@pytest.fixture(scope="module")
def probe_scan(tmp_path_factory):
    from zetaline import cli

    out = tmp_path_factory.mktemp("scan")
    texts = {}
    for jobs in (1, 2):
        path = out / f"jobs{jobs}.csv"
        assert cli.main(W.scan_argv(W.PROBE_GRID, str(path), jobs)) == 0
        texts[jobs] = path.read_bytes()
    return texts


def test_scan_csv_check_accepts_program_output(probe_scan, fixed_refs):
    pts, refs = W.grid_points(W.PROBE_GRID), fixed_refs["E"]
    bad, acc = C.check_scan_csv(probe_scan[1].decode(), pts, refs)
    assert bad is None and 0.0 < acc["worst_err_over_est"] <= 1.0
    assert C.check_same_csv(probe_scan[1], probe_scan[2]) is None


def _edit_row(text: str, k: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[k + 1].split(",")
    cells[col] = value
    lines[k + 1] = ",".join(cells)
    return "\n".join(lines)


def test_scan_csv_check_rejects_wrong_output(probe_scan, fixed_refs):
    pts, refs = W.grid_points(W.PROBE_GRID), fixed_refs["E"]
    good = probe_scan[1].decode()
    lines = good.split("\n")
    row5 = lines[6].split(",")
    wrong = {
        "header": good.replace("re_zeta", "rezeta", 1),
        "row count": "\n".join(lines[:-2]) + "\n",
        "order": "\n".join([lines[0], lines[2], lines[1], *lines[3:]]),
        "E value": _edit_row(good, 5, 2, repr(float(row5[2]) + 3.0 * float(row5[7]))),
        "zeta value": _edit_row(good, 5, 4, repr(float(row5[4]) * (1.0 + 1e-6))),
        "abs zeta": _edit_row(good, 5, 6, repr(float(row5[6]) * (1.0 + 1e-12))),
        "CRLF": good.replace("\n", "\r\n"),
    }
    for what, text in wrong.items():
        assert C.check_scan_csv(text, pts, refs)[0], what


def test_scan_csvs_that_differ_between_jobs_are_rejected(probe_scan):
    other = bytearray(probe_scan[2])
    other[-3] = ord("0") if other[-3] != ord("0") else ord("1")
    assert C.check_same_csv(probe_scan[1], bytes(other))


def test_a_repeat_that_differs_fails_every_repeat():
    s = W.strip_points(W.DEFAULT_SEED)[1]  # not one of the conjugation points
    refs = run.load_refs("eval-strip", W.DEFAULT_SEED)
    r = zl.zeta(s)
    good = (r.value, r.err_est, r.converged)
    off = (complex(r.value.real, math.nextafter(r.value.imag, math.inf)), r.err_est, True)

    def tallies(*recs):
        t = run.Tally(recs[0], 1)
        for rec in recs:
            t.add(rec, 0.0, 1.0)
        return {("zeta", s): t}

    def failed(*parts):
        attempted, n, _, _ = run.check_records("eval-strip", W.DEFAULT_SEED, list(parts), zl, refs)
        return attempted, n

    assert failed(tallies(good, good, good)) == (3, 0)
    assert failed(tallies(good, off, good)) == (3, 3)
    assert failed(tallies(good, good), tallies(off)) == (3, 3)


def test_committed_references_match_workload_points():
    for w in (*W.WORKLOADS, "fixed"):
        refs = run.load_refs(w, W.DEFAULT_SEED)
        for kind, pts in W.reference_points(w, W.DEFAULT_SEED).items():
            assert len(refs[kind]) == len(pts)


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v for k, v in T.PER_LAYER.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_package_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-strip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
