"""End-to-end CLI checks, mostly via subprocess: formats, exit codes, determinism."""

import hashlib
import math
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from zetaline import cli, contour
from zetaline.cli import ScanGrid
from zetaline.errors import DomainError


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "zetaline", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_eval_basic_format():
    r = run_cli("eval", "--re", "2")
    assert r.returncode == 0
    assert r.stderr == ""
    tokens = r.stdout.split()
    assert len(tokens) == 5
    value = complex(float(tokens[0]), float(tokens[1]))
    assert abs(value - math.pi**2 / 6.0) <= 1e-12
    assert float(tokens[2]) < 1e-10
    assert tokens[3] == "line"
    assert int(tokens[4]) > 0


def test_eval_pole_message():
    r = run_cli("eval", "--re", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == "pole at s=1; evaluate E instead"
    r = run_cli("eval", "--re", "1", "--im", "1e-8")
    assert r.returncode == 2


def test_removed_forks_are_usage_errors():
    """eval has one method and feq one rule for its form: the old flags exit 1."""
    for args in (("eval", "--re", "2", "--method", "axis"),
                 ("feq", "--re", "-3", "--form", "sine")):
        r = run_cli(*args)
        assert r.returncode == 1, args
        assert r.stdout == ""
        assert "unrecognized arguments" in r.stderr


def test_eval_contract_box():
    r = run_cli("eval", "--re", "2", "--im", "75")
    assert r.returncode == 2


def test_eval_unconverged_exit():
    # |E(-5+57.5i)| is about 1.1e7, so an absolute 1e-12 lies below double
    # round-off and the evaluation says so
    r = run_cli("eval", "--re", "-5", "--im", "57.5")
    assert r.returncode == 3
    assert len(r.stdout.split()) == 5  # the best value is still printed
    r = run_cli("eval", "--re", "-5", "--im", "57.5", "--tol", "1e-6")
    assert r.returncode == 0


def test_main_reuses_one_parser(capsys):
    """main builds its parser once per process, and a usage error, a domain
    error or another subcommand in between leaves it as it was."""
    assert cli.main(["eval", "--re", "2"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        cli.main(["eval", "--re", "two"])
    assert usage.value.code == 1
    assert cli.main(["eval", "--re", "2", "--tol", "0"]) == 2
    assert cli.main(["feq", "--re", "0.5", "--im", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--re", "2"]) == 0
    assert capsys.readouterr().out == first
    assert cli._build_parser() is cli._build_parser()


def test_eval_deterministic():
    a = run_cli("eval", "--re", "0.3", "--im", "2.7")
    b = run_cli("eval", "--re", "0.3", "--im", "2.7")
    assert a.stdout == b.stdout


def test_usage_errors_exit_one():
    for args in (
        (),                             # missing subcommand
        ("bogus",),                     # unknown subcommand
        ("eval",),                      # missing --re
        ("eval", "--re", "x"),          # unparseable float
        ("eval", "--re", "2", "--method", "simpson"),  # bad choice
        ("residues", "--re", "3"),      # missing --n-max
    ):
        r = run_cli(*args)
        assert r.returncode == 1, args


def test_feq_format_and_exit():
    r = run_cli("feq", "--re", "-3")
    assert r.returncode == 0
    tokens = r.stdout.split()
    assert len(tokens) == 8
    assert tokens[6] in ("sine", "cosine")
    assert tokens[7] == "direct"
    assert float(tokens[5]) <= 1e-8
    r = run_cli("feq", "--re", "3")
    assert r.returncode == 0
    assert r.stdout.split()[7] == "reflected"


def test_feq_guard_disk():
    r = run_cli("feq", "--re", "0")
    assert r.returncode == 2


def test_lemma_format():
    r = run_cli("lemma", "--re", "2")
    assert r.returncode == 0
    tokens = r.stdout.split()
    assert len(tokens) == 10
    ref = complex(float(tokens[6]), float(tokens[7]))
    assert abs(ref - math.pi**2 / 6.0) <= 1e-10
    assert float(tokens[8]) <= 1e-9
    assert tokens[9] == "0"
    r = run_cli("lemma", "--re", "3", "--im", "2")
    assert r.stdout.split()[9] == "1"


def test_lemma_exit_three_above_criterion_bound():
    """lemma prints its line, then exits 3 when the deviation is not below
    selftest criterion 5's bound (1e-9 at real s)."""
    r = run_cli("lemma", "--re", "2", "--tol", "1e-6")
    assert r.returncode == 3
    tokens = r.stdout.split()
    assert len(tokens) == 10
    assert float(tokens[8]) > 1e-9


def test_lemma_domain_guard():
    r = run_cli("lemma", "--re", "0.5")
    assert r.returncode == 2


def test_residues_doubling_schedule():
    r = run_cli("residues", "--re", "3", "--n-max", "20")
    assert r.returncode == 0
    rows = [line.split() for line in r.stdout.splitlines()]
    assert [int(row[0]) for row in rows] == [1, 2, 4, 8, 16, 20]
    # tail bound at s = 3 is |s-1| N^{-2} / 2 = N^{-2}
    for row in rows:
        n = int(row[0])
        assert float(row[3]) == pytest.approx(n**-2.0, rel=1e-12)
    # partial values drift toward E(3) = 2 zeta(3)
    last = complex(float(rows[-1][1]), float(rows[-1][2]))
    assert abs(last - 2.0 * 1.2020569031595942854) <= float(rows[-1][3])


def test_residues_power_of_two_max_not_duplicated():
    r = run_cli("residues", "--re", "2.5", "--n-max", "16")
    sizes = [int(line.split()[0]) for line in r.stdout.splitlines()]
    assert sizes == [1, 2, 4, 8, 16]


def test_residues_guards():
    assert run_cli("residues", "--re", "1", "--n-max", "8").returncode == 2
    assert run_cli("residues", "--re", "3", "--n-max", "0").returncode == 2


def test_residues_n_max_cap(monkeypatch, capsys):
    """--n-max above 10^6 exits 2 before any term is built; 10^6 itself runs."""
    def no_terms(s, sizes):
        raise AssertionError(f"built {sizes[-1]} terms")

    monkeypatch.setattr(cli, "residue_partial_sums", no_terms)
    assert cli.main(["residues", "--re", "3", "--n-max", "1000001"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --n-max must be in [1, 1000000], got 1000001\n"

    monkeypatch.setattr(cli, "residue_partial_sums", lambda s, sizes: [(0j, 0.0)] * len(sizes))
    assert cli.main(["residues", "--re", "3", "--n-max", "1000000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[0] == "1000000"


def test_residues_builds_each_term_once(monkeypatch, capsys):
    """The doubling table builds each n^{-s} once, not once per row, in
    chunks that cover k = 1 .. N in order."""
    chunks = []
    neg_powers = contour._neg_powers

    def chunked(s, ks):
        chunks.append(ks)
        return neg_powers(s, ks)

    monkeypatch.setattr(contour, "_neg_powers", chunked)
    assert cli.main(["residues", "--re", "3", "--im", "2", "--n-max", "40000"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17
    assert [k for ks in chunks for k in ks] == list(range(1, 40001))
    assert len(chunks) > 1


# sha256 of `zetaline residues --re 2 --im 3 --n-max 4096`, from the
# revision that kept the terms in lists of floats
RESIDUES_4096_SHA256 = "cf465b8df807840764c6b44000cab08660b085ca90d54c9ba3551cbfd323f679"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_residues_table_bytes_and_peak_memory():
    """The residue table keeps its bytes, and the table to N = 10^6 peaks
    below 40 MB resident (its terms packed, 16 bytes each), read from
    RUSAGE_CHILDREN in a process whose one child is that table."""
    r = run_cli("residues", "--re", "2", "--im", "3", "--n-max", "4096")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == RESIDUES_4096_SHA256
    code = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'zetaline', 'residues', '--re', '2', '--im', '3',\n"
        "                '--n-max', '1000000'], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    peak = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=600)
    assert int(peak.stdout) <= 40 * 1024, f"{int(peak.stdout) / 1024:.1f} MB"


def test_scan_csv_shape(tmp_path):
    out = tmp_path / "grid.csv"
    r = run_cli(
        "scan", "--re-min", "-1", "--re-max", "2", "--im-min", "0", "--im-max", "1",
        "--steps-re", "4", "--steps-im", "3", "--out", str(out),
    )
    assert r.returncode == 0
    assert r.stdout == ""
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings on every platform
    lines = raw.decode().splitlines()
    assert lines[0] == "re_s,im_s,re_E,im_E,re_zeta,im_zeta,abs_zeta,err_est"
    assert len(lines) == 1 + 4 * 3
    # row-major: im outer, re inner
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == 0.0
    second = lines[2].split(",")
    assert float(second[0]) == 0.0 and float(second[1]) == 0.0
    for line in lines[1:]:
        assert len(line.split(",")) == 8


def test_scan_empty_zeta_fields_at_pole(tmp_path):
    out = tmp_path / "pole.csv"
    r = run_cli(
        "scan", "--re-min", "0", "--re-max", "2", "--im-min", "0", "--im-max", "0",
        "--steps-re", "3", "--steps-im", "1", "--out", str(out),
    )
    assert r.returncode == 0
    rows = out.read_text().splitlines()[1:]
    cells = [row.split(",") for row in rows]
    assert cells[1][0] == "1.0"
    assert cells[1][4] == "" and cells[1][5] == "" and cells[1][6] == ""
    assert cells[1][2] != "" and cells[1][7] != ""  # E and err still present
    assert cells[0][4] != "" and cells[2][4] != ""


def test_scan_matches_eval(tmp_path):
    """CSV zeta values agree with eval output to the last printed digit."""
    out = tmp_path / "one.csv"
    run_cli(
        "scan", "--re-min", "0.5", "--re-max", "0.5", "--im-min", "3", "--im-max", "3",
        "--steps-re", "1", "--steps-im", "1", "--out", str(out),
    )
    row = out.read_text().splitlines()[1].split(",")
    ev = run_cli("eval", "--re", "0.5", "--im", "3").stdout.split()
    assert float(row[4]) == float(ev[0])
    assert float(row[5]) == float(ev[1])


_SCAN_9X5 = [
    "scan", "--re-min", "-2", "--re-max", "3", "--im-min", "0", "--im-max", "4",
    "--steps-re", "9", "--steps-im", "5", "--tol", "1e-10",
]


def test_scan_jobs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*_SCAN_9X5, "--out", str(a), "--jobs", "1").returncode == 0
    assert run_cli(*_SCAN_9X5, "--out", str(b), "--jobs", "3").returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_starts_no_thread(tmp_path, monkeypatch):
    """--jobs 4 scans on the calling thread, to the bytes of --jobs 1."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*_SCAN_9X5, "--out", str(a), "--jobs", "1"]) == 0

    def refuse(self):
        raise RuntimeError("scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert cli.main([*_SCAN_9X5, "--out", str(b), "--jobs", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_unconverged_cells_exit_three(tmp_path):
    """Cells that do not converge are still written, then counted on stderr."""
    out = tmp_path / "tall.csv"
    r = run_cli(
        "scan", "--re-min", "-5", "--re-max", "-5", "--im-min", "50", "--im-max", "57.5",
        "--steps-re", "1", "--steps-im", "2", "--out", str(out),
    )
    assert r.returncode == 3
    assert r.stdout == ""
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    worst = max(float(row.split(",")[7]) for row in rows[1:])
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("scan: 2 of 2 cells did not converge at --tol 1e-12;")
    assert float(r.stderr.split()[-1]) == worst


def test_scan_unwritable_path_exit_two(tmp_path):
    r = run_cli(
        "scan", "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
        "--steps-re", "2", "--steps-im", "2",
        "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert r.returncode == 2


@pytest.mark.parametrize("cmd", [
    "eval --re -150",    # exp of a line node
    "feq --re 150.5",    # gamma through chi
    "feq --re -150.5",
])
def test_overflow_exits_three(cmd):
    """A floating-point overflow at a finite s inside the box is a failure to
    evaluate: one error line, no output, exit 3, no traceback."""
    r = run_cli(*cmd.split())
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("re", ["-350", "-400", "-450"])
def test_eval_far_left_truncation_exits_three(re):
    """Far left the truncation height passes the line kernel's range: a
    failure to evaluate a valid s, so exit 3 with one error line, as at
    --re -300 (overflow) and --re -500, not a usage error."""
    r = run_cli("eval", "--re", re)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, line, y", [
    ("--re -300", "Re z = 0.5", "y = 10.75"),
    ("--re -200 --im 10", "Re z = 1.5", "y = 32.0"),
])
def test_eval_line_overflow_is_named(args, line, y):
    """Far left the kernel's power z^(1-s) overflows at a line node before
    the sech^2 weight can scale it: exit 3 with one error line that names
    the overflow, the line, the node and s, not a bare "math range error"."""
    r = run_cli("eval", *args.split())
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and "range error" not in r.stderr
    assert r.stderr.startswith("error: z^(1-s) overflows")
    assert line in r.stderr and y in r.stderr and "s = (" in r.stderr


def test_eval_residue_overflow_is_named():
    """At -310+59i, on the line N = 9, the residue power 10^{-s} overflows
    before any node is read: exit 3 with one error line that names the
    residue power, the line and s, not a bare "math range error"."""
    r = run_cli("eval", "--re", "-310", "--im", "59")
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and "range error" not in r.stderr
    assert r.stderr.startswith("error: the residue power k^(-s)")
    assert "overflows" in r.stderr and "Re z = 9.5" in r.stderr and "s = (" in r.stderr


def test_eval_far_right_does_not_overflow():
    """At Re s = 1e308 the line crosses the poles at 1 and 2, so nothing
    overflows: eval prints zeta = 1, and exits 3 only because an absolute
    --tol 1e-12 on E(s) = s - 1 lies below its round-off."""
    r = run_cli("eval", "--re", "1e308")
    assert r.returncode == 3
    assert r.stdout.split()[:2] == ["1", "0"]
    assert r.stderr == ""


@pytest.mark.parametrize("im_max, out", [(75.0, "x.csv"), (5.0, "missing_dir/x.csv")],
                         ids=["im-axis-outside-box", "unwritable-out"])
def test_scan_refuses_before_evaluating(im_max, out, tmp_path, monkeypatch, capsys):
    """An Im axis that leaves the box and an unwritable --out exit 2 before
    scan evaluates a single point."""
    def refuse(s, tol):
        raise AssertionError(f"scan evaluated {s}")

    monkeypatch.setattr(cli, "entire_e_line", refuse)
    path = tmp_path / out
    argv = ["scan", "--re-min", "-2", "--re-max", "3", "--im-min", "0",
            "--im-max", repr(im_max), "--steps-re", "100", "--steps-im", "100",
            "--tol", "1e-8", "--out", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert not path.exists()


def _assert_domain_error(cmd: str, tmp_path) -> subprocess.CompletedProcess:
    """cmd exits 2 with a one-line message, no output and no scan file."""
    out = tmp_path / "x.csv"
    args = cmd.split()
    if args[0] == "scan":
        args += ["--out", str(out)]
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert not out.exists()
    return r


_SCAN_2X2 = "scan --re-min 0 --re-max 1 --im-min 0 --steps-re 2 --steps-im 2"


@pytest.mark.parametrize("cmd", [
    "eval --re 0.5 --im nan",
    "eval --re nan",
    "eval --re inf",
    "feq --re inf",
    "lemma --re inf",
    "residues --re 2 --im nan --n-max 2",
    f"{_SCAN_2X2} --im-max=inf",
])
def test_nonfinite_s_exits_two(cmd, tmp_path):
    _assert_domain_error(cmd, tmp_path)


@pytest.mark.parametrize("cmd", [
    "eval --re -2.5",
    "feq --re -3",
    "lemma --re 2",
    f"{_SCAN_2X2} --im-max 1",
])
def test_zero_tol_exits_two(cmd, tmp_path):
    r = _assert_domain_error(f"{cmd} --tol 0", tmp_path)
    assert r.stderr == "error: tol must be finite and >= 1e-14, got 0.0\n"


@pytest.mark.parametrize("cmd", [
    "eval --re 2",
    "feq --re -3",
    "lemma --re 2",
    f"{_SCAN_2X2} --im-max 1",
])
def test_infinite_tol_exits_two(cmd, tmp_path):
    """--tol inf is refused by name, not as an internal tolerance."""
    r = _assert_domain_error(f"{cmd} --tol inf", tmp_path)
    assert r.stderr == "error: tol must be finite and >= 1e-14, got inf\n"


def test_scan_refusing_tol_leaves_the_out_file(tmp_path):
    """A scan that refuses its --tol leaves an existing --out as it was."""
    out = tmp_path / "o.csv"
    out.write_bytes(b"re_s,im_s\n1,2\n")
    for tol in ("inf", "0"):
        r = run_cli(*_SCAN_2X2.split(), "--im-max", "1", "--tol", tol, "--out", str(out))
        assert r.returncode == 2 and r.stderr.startswith("error: tol must be finite")
        assert out.read_bytes() == b"re_s,im_s\n1,2\n"


def test_scan_jobs_zero_exits_two(tmp_path):
    r = _assert_domain_error(f"{_SCAN_2X2} --im-max 1 --jobs 0", tmp_path)
    assert r.stderr == "error: --jobs must be >= 1, got 0\n"


def test_scan_grid_validation():
    r = run_cli(
        "scan", "--re-min", "2", "--re-max", "1", "--im-min", "0", "--im-max", "1",
        "--steps-re", "2", "--steps-im", "2", "--out", "/tmp/unused.csv",
    )
    assert r.returncode == 2
    r = run_cli(
        "scan", "--re-min", "0", "--re-max", "1", "--im-min", "0", "--im-max", "1",
        "--steps-re", "1001", "--steps-im", "1001", "--out", "/tmp/unused.csv",
    )
    assert r.returncode == 2


def test_scan_grid_points_order():
    g = ScanGrid(0.0, 1.0, 0.0, 2.0, 2, 3)
    assert g.points() == [
        0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 1.0j, 1.0 + 1.0j, 0.0 + 2.0j, 1.0 + 2.0j,
    ]
    assert ScanGrid(0.5, 0.5, 1.0, 1.0, 1, 1).points() == [0.5 + 1.0j]
    with pytest.raises(DomainError):
        ScanGrid(1.0, 0.0, 0.0, 1.0, 2, 2)
    with pytest.raises(DomainError):
        ScanGrid(0.0, 1.0, 0.0, 1.0, 0, 2)
    for steps in (2.5, 2.0, True):  # a step count is an int, and bool is not one
        with pytest.raises(DomainError, match="must be integers"):
            ScanGrid(0.0, 1.0, 0.0, 1.0, steps, 2)
        with pytest.raises(DomainError, match="must be integers"):
            ScanGrid(0.0, 1.0, 0.0, 1.0, 2, steps)
    # one step keeps one point, so it cannot span two bounds
    with pytest.raises(DomainError):
        ScanGrid(0.0, 5.0, 1.0, 2.0, 1, 2)
    with pytest.raises(DomainError):
        ScanGrid(0.0, 1.0, 1.0, 2.0, 2, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ScanGrid(0.0, 1.0, bad, 1.0, 2, 2)


def test_readme_commands_run():
    """Each zetaline line of the README's sh block exits 0 (scan and selftest
    run in their own tests)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```sh\n(zetaline .*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].split()[1:] for line in block.replace("\\\n", " ").splitlines()]
    cmds = [args for args in lines if args[0] not in ("scan", "selftest")]
    assert cmds
    for args in cmds:
        r = run_cli(*args)
        assert r.returncode == 0, (args, r.stderr)
