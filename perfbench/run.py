"""zetaline benchmark: end-to-end and per-layer figures of four workloads.

    python3 perfbench/run.py --workload eval-strip --seed 1 --seconds 15 --trace 0

Run from the repository root.  One process, one caller, closed loop: each
operation starts when the previous one has returned (the scan workload's
`--jobs 2` runs use two threads inside the package).  The loop repeats
whole rounds of the workload's operations until their time adds up to
--seconds, then checks every output against mpmath references computed in
a separate process (references.py) and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (E2E below), measured
untraced, every time scaled to a reference machine (refclock.py).  With
--trace 1 the run spends half of --seconds untraced and
half with tracing.py's wrappers installed, and reports the per-layer
metrics (tracing.PER_LAYER) plus the tracing overhead between the halves.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")
REF_CACHE = os.path.join(OUT, "refcache")
sys.path.insert(0, HERE)

import checks as C  # noqa: E402
from refclock import RefClock  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

E2E = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "scan_points_per_s_jobs1": "1/s",
    "scan_points_per_s_jobs2": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 11  # fresh interpreters per run; setup_s is their median
PROBE_SCANS = 8    # probe scans per --jobs value on workloads that do not scan
REF_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, references, mpmath)."""


# -- references --------------------------------------------------------------

def _ref_path(workload: str, seed: int) -> str:
    name = W.ref_filename(workload, seed)
    committed = os.path.join(REFS, name)
    return committed if os.path.isfile(committed) else os.path.join(REF_CACHE, name)


def ensure_refs(workload: str, seed: int) -> None:
    """Compute missing references in a child process (mpmath stays out of
    the measured process)."""
    path = _ref_path(workload, seed)
    if os.path.isfile(path):
        return
    os.makedirs(REF_CACHE, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "references.py"),
         "--workload", workload, "--seed", str(seed), "--out", path],
        capture_output=True, text=True, timeout=REF_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.isfile(path):
        raise BenchError(f"computing references for {workload} seed {seed} failed:\n{proc.stderr}")


def load_refs(workload: str, seed: int) -> dict[str, list]:
    with open(_ref_path(workload, seed), encoding="utf-8") as fh:
        data = json.load(fh)
    for kind, pts in W.reference_points(workload, seed).items():
        if data["points"].get(kind) != [[repr(s.real), repr(s.imag)] for s in pts]:
            raise BenchError(f"references for {workload} seed {seed} ({kind}) do not match "
                             f"the workload's points; delete {_ref_path(workload, seed)}")
    return {k: [C.ref_complex(p) for p in v] for k, v in data["values"].items()}


# -- operations ----------------------------------------------------------------

class Op:
    """One operation: `call` is timed; `record` turns its result into what
    the checks need, outside the timing.  Equal `key`s repeat the same call
    and must return the same record bitwise.  `threads` is how many threads
    the call computes on, which picks the reference kernel that scales it."""

    __slots__ = ("key", "kind", "call", "record", "threads")

    def __init__(self, key, kind, call, record, threads=1):
        self.key, self.kind, self.call, self.record = key, kind, call, record
        self.threads = threads


def _eval_record(r):
    return (r.value, r.err_est, r.converged)


def build_ops(workload: str, seed: int, zl) -> list[Op]:
    """One round of the workload."""
    if workload in ("eval-strip", "eval-tall"):
        pts = W.strip_points(seed) if workload == "eval-strip" else W.tall_points()
        return [Op(("zeta", s), "zeta", (lambda s=s: zl.zeta(s)), _eval_record) for s in pts]
    if workload == "verify":
        v = W.verify_points(seed)
        ops = []
        for sm, sf, sa in zip(v["mellin"], v["feq"], v["axis"]):
            ops.append(Op(("mellin_check", sm), "mellin_check", (lambda s=sm: zl.mellin_check(s)),
                          lambda r: (r.bose, r.exp_sq, r.sinh_form)))
            ops.append(Op(("feq_check", sf), "feq_check", (lambda s=sf: zl.feq_check(s)),
                          lambda r: (r.lhs, r.rhs, r.rel_residual)))
            ops.append(Op(("entire_e_axis", sa), "entire_e_axis",
                          (lambda s=sa: zl.entire_e_axis(s)), _eval_record))
        return ops
    if workload == "scan-grid":
        return scan_ops(W.scan_grid(seed), zl, "scan")
    raise ValueError(workload)


def scan_ops(grid: dict, zl, tag: str) -> list[Op]:
    """A --jobs 1 and a --jobs 2 scan of grid through zetaline.cli.main."""
    from zetaline import cli

    os.makedirs(OUT, exist_ok=True)
    ops = []
    for jobs in (1, 2):
        path = os.path.join(OUT, f"{tag}-jobs{jobs}.csv")
        argv = W.scan_argv(grid, path, jobs)

        def record(rc, path=path):
            with open(path, "rb") as fh:
                return (rc, fh.read())

        ops.append(Op(("scan", jobs), f"scan.jobs{jobs}", (lambda argv=argv: cli.main(argv)),
                      record, threads=jobs))
    return ops


class Tally:
    """What a loop keeps of one distinct operation, whatever its number of
    repeats: the first result, whether a later repeat returned a different
    one, the repeat count, and each repeat's start and end in an array
    (16 bytes a repeat), so the loop's own memory stays out of peak_rss_mb."""

    __slots__ = ("first", "differed", "count", "spans", "threads")

    def __init__(self, first, threads: int) -> None:
        self.first, self.differed, self.count, self.spans = first, False, 0, array("d")
        self.threads = threads

    def add(self, rec, t0: float, t1: float) -> None:
        if self.count and not self.differed:
            self.differed = repr(rec) != repr(self.first)
        self.count += 1
        self.spans.extend((t0, t1))


def run_loop(ops: list[Op], seconds: float, ref: RefClock, tracer=None, between=None):
    """Whole rounds of ops until their time adds up to `seconds`, calling
    between(time so far) after each round, outside the timing, and sampling
    the reference kernel between operations.  Returns {op.key: Tally} in
    the order of ops."""
    tallies: dict = {}
    clock = time.perf_counter
    elapsed = 0.0
    ref.sample()
    while True:
        t_round = clock()
        for op in ops:
            if ref.due():
                ref.sample()
            t0 = clock()
            try:
                res = op.call() if tracer is None else tracer.span(f"op.{op.kind}", op.call)
            except Exception as exc:  # an operation that raises counts as failed
                t1, rec = clock(), exc
            else:
                t1 = clock()
                rec = op.record(res)
            tally = tallies.get(op.key)
            if tally is None:
                tally = tallies[op.key] = Tally(rec, op.threads)
            tally.add(rec, t0, t1)
            ref.after(t0, t1)
        elapsed += clock() - t_round
        if elapsed >= seconds:
            ref.sample()
            return tallies
        if between is not None:
            between(elapsed)


def typical_latencies(tallies: dict, ref: RefClock) -> dict:
    """Each distinct operation's median latency over its repeats, every
    repeat scaled to the reference machine (refclock.py)."""
    out = {}
    for key, tally in tallies.items():
        sp = tally.spans
        out[key] = statistics.median(
            (sp[i + 1] - sp[i]) * ref.scale(sp[i], sp[i + 1], tally.threads)
            for i in range(0, len(sp), 2))
    return out


# -- checks --------------------------------------------------------------------

def _fmt_s(s: complex) -> str:
    return f"{s.real!r}{s.imag:+.17g}i"


class Checker:
    """Checks single results against one set of references, keeping the
    accuracy reached by the results that pass."""

    def __init__(self, points: dict[str, list[complex]], refs: dict[str, list],
                 grid: list[complex], grid_refs: list) -> None:
        self.e = dict(zip(points.get("E", []), refs.get("E", [])))
        self.gz = dict(zip(points.get("gamma_zeta", []), refs.get("gamma_zeta", [])))
        self.grid, self.grid_refs = grid, grid_refs
        self.scan_first = None
        self.acc = {"worst_abs_err": 0.0, "worst_err_over_est": 0.0, "failed_worst_abs_err": 0.0}

    def _note(self, err: float, est: float, bad: str | None) -> str | None:
        acc = self.acc
        if bad:
            acc["failed_worst_abs_err"] = max(acc["failed_worst_abs_err"], err)
        else:
            acc["worst_abs_err"] = max(acc["worst_abs_err"], err)
            if est > 0.0:
                acc["worst_err_over_est"] = max(acc["worst_err_over_est"], err / est)
        return bad

    def check(self, key, rec) -> str | None:
        """None if the result `rec` of call `key` is right, else why not."""
        if isinstance(rec, Exception):
            return f"raised {type(rec).__name__}: {rec}"
        kind, arg = key
        acc = self.acc
        if kind in ("zeta", "entire_e_axis"):
            value, est, conv = rec
            ref = C.zeta_from_e(arg, self.e[arg]) if kind == "zeta" else self.e[arg]
            return self._note(C.abs_error(value, ref), est, C.check_estimate(value, est, conv, ref))
        if kind == "mellin_check":
            worst = max(C.abs_error(v, self.gz[arg]) for v in rec)
            acc["mellin_worst_abs_err"] = max(acc.get("mellin_worst_abs_err", 0.0), worst)
            return C.check_mellin(arg, dict(zip(("bose", "exp_sq", "sinh_form"), rec)), self.gz[arg])
        if kind == "feq_check":
            acc["feq_worst_rel_residual"] = max(acc.get("feq_worst_rel_residual", 0.0), rec[2])
            return C.check_feq(rec[2])
        rc, data = rec  # a scan
        self.scan_first = self.scan_first or data
        bad = (None if rc == 0 else f"exit code {rc}") or C.check_same_csv(self.scan_first, data)
        if bad:
            return bad
        bad, sacc = C.check_scan_csv(data.decode("utf-8"), self.grid, self.grid_refs)
        acc["worst_abs_err"] = max(acc["worst_abs_err"], sacc["worst_abs_err"])
        acc["worst_err_over_est"] = max(acc["worst_err_over_est"], sacc["worst_err_over_est"])
        return bad


def check_records(workload: str, seed: int, parts: list[dict], zl, refs) -> tuple[int, int, list[str], dict]:
    """Attempted and failed operation counts, reasons, and accuracy reached,
    over the tallies of one or more loops.

    Each distinct call is checked once against its reference; every repeat
    of it must return the same record bitwise, else all its repeats fail.
    """
    first: dict = {}
    count: dict = {}
    reasons: dict = {}
    for tallies in parts:
        for key, t in tallies.items():
            count[key] = count.get(key, 0) + t.count
            if t.differed or (key in first and repr(t.first) != repr(first[key])):
                reasons.setdefault(key, "repeat returned a different result")
            first.setdefault(key, t.first)

    pts = W.reference_points(workload, seed)
    checker = Checker(pts, refs, pts["E"], refs["E"])
    for key, rec in first.items():
        bad = checker.check(key, rec)
        if bad:
            reasons.setdefault(key, bad)

    if workload == "eval-strip":
        for s in W.strip_points(seed)[::W.CONJ_EVERY]:
            key = ("zeta", s)
            if key in first and key not in reasons:
                bad = C.check_conjugate(first[key][0], zl.zeta(s.conjugate()).value)
                if bad:
                    reasons[key] = "conjugation: " + bad

    failed = sum(count[k] for k in reasons)
    msgs = [f"{k[0]}({_fmt_s(k[1]) if isinstance(k[1], complex) else k[1]}): {r}"
            for k, r in reasons.items()]
    return sum(count.values()), failed, msgs, checker.acc


def check_probe_scans(recs, refs) -> list[str]:
    """Checks of the fixed probe scans; any failure here makes the run
    incorrect (they are not workload operations)."""
    checker = Checker(W.reference_points("fixed", 0), refs, W.grid_points(W.PROBE_GRID), refs["E"])
    bad = []
    for op, rec in recs:
        why = checker.check(op.key, rec)
        if why:
            bad.append(f"{op.kind}: {why}")
    return bad


# -- set-up probe --------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> tuple[list[str], str]:
    """argv for first_op.py, and a tag for comparing its output."""
    if workload in ("eval-strip", "eval-tall"):
        s = (W.strip_points(seed) if workload == "eval-strip" else W.tall_points())[0]
        return ["zeta", repr(s.real), repr(s.imag)], "zeta"
    if workload == "verify":
        s = W.verify_points(seed)["mellin"][0]
        return ["mellin_check", repr(s.real), repr(s.imag)], "mellin_check"
    # the scan's first row only: set-up, not a 1,000-point scan
    grid = dict(W.scan_grid(seed), im_max=W.scan_grid(seed)["im_min"], steps_im=1)
    return ["scan", *W.scan_argv(grid, os.path.join(OUT, "setup-row.csv"), 1)], "scan"


class SideMeasurements:
    """Set-up probes and probe scans, spread evenly over the loop's time:
    between rounds, step() runs those whose share of the run has passed;
    finish() runs the rest after the loop.  Each is followed by a sample
    of the reference kernel, so its time can be scaled like the loop's."""

    def __init__(self, workload: str, seed: int, zl, seconds: float, ref: RefClock) -> None:
        self.seconds, self.ref = seconds, ref
        argv, self.setup_kind = setup_probe(workload, seed)
        self.setup_cmd = [sys.executable, os.path.join(HERE, "first_op.py"), *argv]
        self.setup_times: list[float] = []
        self.setup_outs: set = set()
        self.probe = [] if workload == "scan-grid" else scan_ops(W.PROBE_GRID, zl, "probe")
        self.probe_times: dict[int, list[float]] = {1: [], 2: []}
        self.probe_recs: list = []

    def _timed(self, fn, threads: int = 1):
        t0 = time.perf_counter()
        res = fn()
        t1 = time.perf_counter()
        self.ref.sample()
        self.ref.after(t0, t1)
        return res, (t1 - t0) * self.ref.scale(t0, t1, threads)

    def _spawn(self) -> None:
        proc, dt = self._timed(lambda: subprocess.run(
            self.setup_cmd, capture_output=True, text=True, timeout=120))
        self.setup_times.append(dt)
        self.setup_outs.add((proc.returncode, proc.stdout.strip()))

    def _probe_scan(self) -> None:
        op = self.probe[len(self.probe_recs) % 2]
        rc, dt = self._timed(op.call, op.threads)
        self.probe_times[op.key[1]].append(dt)
        self.probe_recs.append((op, op.record(rc)))

    def step(self, elapsed: float) -> None:
        def due(done: int, total: int) -> bool:
            return done < total and elapsed >= self.seconds * (done + 1) / (total + 1)

        while due(len(self.setup_times), SETUP_SPAWNS):
            self._spawn()
        while self.probe and due(len(self.probe_recs), 2 * PROBE_SCANS):
            self._probe_scan()

    def finish(self) -> None:
        while len(self.setup_times) < SETUP_SPAWNS:
            self._spawn()
        while self.probe and len(self.probe_recs) < 2 * PROBE_SCANS:
            self._probe_scan()

    def check_setup(self, first_rec) -> list[str]:
        """The probes' output must equal the loop's first operation."""
        if isinstance(first_rec, Exception):
            return []  # already a failed operation
        bad = []
        if self.setup_kind == "zeta":
            want = repr(first_rec[0])
        elif self.setup_kind == "mellin_check":
            want = repr(first_rec)
        else:
            want = "0"
            with open(os.path.join(OUT, "setup-row.csv"), "rb") as fh:
                row = fh.read().split(b"\n")
            if row[:-1] != first_rec[1].split(b"\n")[:len(row) - 1]:
                bad.append("set-up probe's one-row scan differs from the first row of the full scan")
        if self.setup_outs != {(0, want)}:
            bad.append(f"set-up probe printed {sorted(self.setup_outs)!r}, the loop got {want!r}")
        return bad


# -- main ----------------------------------------------------------------------

def _p99(xs: list[float]) -> float:
    ys = sorted(xs)
    return ys[math.ceil(0.99 * len(ys)) - 1]


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "zetaline", "__init__.py")):
        raise BenchError(f"no zetaline sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import zetaline

    if os.path.dirname(os.path.dirname(os.path.abspath(zetaline.__file__))) != SRC:
        raise BenchError(f"imported zetaline from {zetaline.__file__}, not from {SRC}")
    return zetaline


def measure_untraced(args, zl, ops):
    """The end-to-end metrics.  Returns (metrics, loop tallies, records of
    the probe scans, problems that make the run incorrect)."""
    ref = RefClock()
    side = SideMeasurements(args.workload, args.seed, zl, args.seconds, ref)
    tallies = run_loop(ops, args.seconds, ref, between=side.step)
    side.finish()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_key = typical_latencies(tallies, ref)
    typical = list(by_key.values())
    if args.workload == "scan-grid":
        scan_s = {j: by_key[("scan", j)] for j in (1, 2)}
        npts = len(W.grid_points(W.scan_grid(args.seed)))
    else:
        scan_s = {j: statistics.median(v) for j, v in side.probe_times.items()}
        npts = len(W.grid_points(W.PROBE_GRID))
    metrics = {
        "setup_s": statistics.median(side.setup_times),
        "ops_per_s": len(typical) / math.fsum(typical),
        "op_ms_p50": statistics.median(typical) * 1e3,
        "op_ms_p99": _p99(typical) * 1e3,
        "scan_points_per_s_jobs1": npts / scan_s[1],
        "scan_points_per_s_jobs2": npts / scan_s[2],
        "peak_rss_mb": rss_mb,
    }
    first = tallies[ops[0].key].first
    return metrics, [tallies], side.probe_recs, side.check_setup(first)


def measure_traced(args, zl, ops):
    """The per-layer metrics: half the time untraced, half traced.  A time
    metric of a function the loop never calls reads 0, as its count does.
    Returns (metrics, the two loops' tallies)."""
    ref = RefClock()
    plain = run_loop(ops, args.seconds / 2.0, ref)
    tracer = T.Tracer()
    tracer.install()
    try:
        traced = run_loop(ops, args.seconds / 2.0, ref, tracer)
    finally:
        tracer.uninstall()
    metrics = T.layer_metrics(tracer.spans, tracer.counts(), tracer.replay(),
                              sum(t.count for t in traced.values()))
    metrics["trace.overhead_pct"] = 100.0 * (
        math.fsum(typical_latencies(traced, ref).values())
        / math.fsum(typical_latencies(plain, ref).values()) - 1.0)
    _write_trace(args, tracer.spans)
    return metrics, [plain, traced]


def run(args) -> dict:
    zl = _import_package()
    for w in (args.workload, "fixed"):
        ensure_refs(w, args.seed)
    ops = build_ops(args.workload, args.seed, zl)
    if args.trace == 0:
        metrics, parts, probe_recs, incorrect = measure_untraced(args, zl, ops)
        units = E2E
        incorrect += check_probe_scans(probe_recs, load_refs("fixed", 0))
    else:
        metrics, parts = measure_traced(args, zl, ops)
        units, incorrect = {k: v[0] for k, v in T.PER_LAYER.items()}, []

    attempted, failed, reasons, acc = check_records(args.workload, args.seed, parts, zl,
                                                    load_refs(args.workload, args.seed))
    for msg in reasons[:5]:
        print(f"failed: {msg}", file=sys.stderr)
    for msg in incorrect:
        print(f"incorrect: {msg}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "distinct_failed": len(reasons), "accuracy": acc}))
    return {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _write_trace(args, spans) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(sp) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
