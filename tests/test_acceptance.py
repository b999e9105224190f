"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-8 come from zetaline.acceptance (the same checks the CLI
selftest runs); criterion 9 exercises determinism end to end through the
command line: selftest's own criterion 9 scans, and its output repeats.
Each test prints a "criterion N PASS/FAIL" line to the live terminal so the
gate's verdict is readable straight off the run log.
"""

import subprocess
import sys

import pytest

from zetaline import acceptance
from zetaline.acceptance import run_criteria


@pytest.fixture(scope="module")
def criteria():
    return {r.number: r for r in run_criteria()}


def _emit(capsys, number: int, passed: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        sys.stdout.write(f"\ncriterion {number} {verdict} {name}: {detail}\n")


@pytest.mark.parametrize("number", range(1, 9))
def test_criterion(number, criteria, capsys):
    r = criteria[number]
    _emit(capsys, r.number, r.passed, r.name, r.detail)
    assert r.passed, f"criterion {r.number} ({r.name}): {r.detail}"


def test_criterion_7_fails_off_the_first_zero(monkeypatch):
    """Criterion 7 compares the located zero with the first zero's frozen
    ordinate: 5e-5 off, where |zeta(1/2 + it)| is still below its 1e-4,
    it fails."""
    t = acceptance._FIRST_ZERO + 5e-5
    monkeypatch.setattr(acceptance, "locate_first_zero", lambda: t)
    r = acceptance._check_oracle_agreement()
    assert abs(acceptance.zeta(complex(0.5, t)).value) < 1e-4
    assert not r.passed and "5.0e-05 from the first zero" in r.detail


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "zetaline", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_9_determinism(capsys):
    """Two selftest runs: each exits 0 only if its own criterion 9 finds the
    10^4-point scan byte-identical when repeated in one process (the second
    scan on warm node tables), and the two print byte-identical output.
    The CLI's CSV file across --jobs is
    test_cli.py::test_scan_jobs_byte_identical."""
    first = _cli("selftest")
    second = _cli("selftest")
    passed = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout != ""
    )
    _emit(
        capsys, 9, passed, "determinism",
        f"selftest passes and is byte-identical across runs: {passed}",
    )
    assert passed
