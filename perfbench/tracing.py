"""In-memory tracing of zetaline's layers, installed from outside the package.

Tracer.install() replaces each traced public function, in every zetaline
module namespace that holds it, by a wrapper; uninstall() puts the
originals back.  Calls made inside the package look their callees up in
module globals at call time, so they go through the wrappers too.

Two kinds of wrapper:
  * span: records (id, name, start_ns, end_ns, parent_id, info) in memory,
    with the parent taken from a per-thread stack; `info` keeps what the
    result says about the work (n_evals, truncation height, converged);
  * count: for the scalar kernels, called thousands of times per operation,
    only counts calls (itertools.count is atomic under the GIL) and keeps
    every SAMPLE_EVERY-th argument tuple (the first call's included), which
    replay() later times with tracing off.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import threading
import time

SAMPLE_EVERY = 61
SAMPLE_MAX = 3000

KERNELS = ("cpow_principal", "sech_sq_pi", "sin_pi_z", "sinhc_half", "log_gamma")
SPANS = {
    "quadrature": ("integrate_interval", "integrate_line_decaying", "integrate_mellin"),
    "contour": ("zeta", "entire_e_line", "entire_e_axis"),
    "functional_equation": ("feq_check", "chi"),
    "mellin": ("bose_integral", "exp_sq_integral", "sinh_integral", "mellin_check"),
    "oracle": ("zeta_euler_maclaurin",),
    "cli": ("scan_csv_lines",),
}


def _info(res):
    """What a traced call's result says about its work, or None."""
    n = getattr(res, "n_evals", None)
    if n is None:
        return None
    return (n, getattr(res, "truncation_height", None), getattr(res, "converged", None))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._ticks: dict[str, itertools.count] = {}
        self.samples: dict[str, list[tuple]] = {}
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span_wrapper(self, name: str, f):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                res = f(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, t0, clock(), parent, None))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, name, t0, t1, parent, _info(res)))
            return res

        return traced

    def _count_wrapper(self, name: str, f):
        tick = self._ticks[name] = itertools.count(1)
        sample = self.samples[name] = []

        def counted(*args):
            if next(tick) % SAMPLE_EVERY == 1 and len(sample) < SAMPLE_MAX:
                sample.append(args)
            return f(*args)

        return counted

    def span(self, name: str, fn):
        """Run fn() as a span of the benchmark's own (an operation)."""
        return self._span_wrapper(name, fn)()

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        import zetaline.complex_core as cc

        wrappers = {}
        for k in KERNELS:
            f = getattr(cc, k)
            self.originals[k] = f
            wrappers[id(f)] = self._count_wrapper(k, f)
        for layer, names in SPANS.items():
            mod = importlib.import_module(f"zetaline.{layer}")
            for k in names:
                f = getattr(mod, k)
                self.originals[k] = f
                wrappers[id(f)] = self._span_wrapper(f"{layer}.{k}", f)
        for modname, mod in list(sys.modules.items()):
            if modname != "zetaline" and not modname.startswith("zetaline."):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and callable(val):
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def counts(self) -> dict[str, int]:
        """Calls per kernel so far; call once, after uninstall()."""
        return {k: next(t) - 1 for k, t in self._ticks.items()}

    def replay(self, repeats: int = 5) -> dict[str, float]:
        """ns per call of each kernel over its sampled arguments, untraced."""
        out = {}
        for k, sample in self.samples.items():
            if not sample:
                continue
            f = self.originals[k]
            runs = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                for args in sample:
                    f(*args)
                runs.append((time.perf_counter_ns() - t0) / len(sample))
            out[k] = statistics.median(runs)
        return out


# Per-layer metrics: name -> (unit, better).  A metric of a function the
# workload never calls reads 0; the layer-to-workload table in README.md
# names the workload where each one is measured.
PER_LAYER: dict[str, tuple[str, str]] = {}
for _k in KERNELS:
    PER_LAYER[f"complex_core.{_k}.calls_per_op"] = ("count", "lower")
    PER_LAYER[f"complex_core.{_k}.ns_per_call"] = ("ns", "lower")
PER_LAYER.update({
    "quadrature.integrand_evals_per_op": ("count", "lower"),
    "quadrature.integrate_interval.calls_per_op": ("count", "lower"),
    "quadrature.self_ms_per_op": ("ms", "lower"),
    "contour.entire_e_line.ms_per_call": ("ms", "lower"),
    "contour.entire_e_axis.ms_per_call": ("ms", "lower"),
    "contour.truncation_height_mean": ("1", "lower"),
    "contour.nonconverged_per_op": ("count", "lower"),
    "contour.self_ms_per_op": ("ms", "lower"),
    "functional_equation.feq_check.ms_per_call": ("ms", "lower"),
    "functional_equation.chi.us_per_call": ("us", "lower"),
    "functional_equation.self_ms_per_op": ("ms", "lower"),
    "mellin.bose_integral.ms_per_call": ("ms", "lower"),
    "mellin.exp_sq_integral.ms_per_call": ("ms", "lower"),
    "mellin.sinh_integral.ms_per_call": ("ms", "lower"),
    "mellin.mellin_check.self_ms_per_op": ("ms", "lower"),
    "oracle.zeta_euler_maclaurin.calls_per_op": ("count", "lower"),
    "oracle.zeta_euler_maclaurin.us_per_call": ("us", "lower"),
    "cli.scan.format_write_ms": ("ms", "lower"),
    "cli.scan.jobs2_busy_share": ("1", "higher"),
    "trace.overhead_pct": ("%", "lower"),
})

_EVAL_SPAN = "contour.entire_e_line"


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans: list[tuple], counts: dict[str, int],
                  replay_ns: dict[str, float], n_ops: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_pct, from one trace."""
    name_of = {sp[0]: sp[1] for sp in spans}
    child_ns: dict[int, int] = {}
    for sid, _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    dur: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    evals = 0
    heights: list[float] = []
    nonconv = 0
    for sid, name, t0, t1, parent, info in spans:
        dur.setdefault(name, []).append(t1 - t0)
        layer = name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0 - child_ns.get(sid, 0))
        if layer == "quadrature" and info and not name_of.get(parent, "").startswith("quadrature."):
            evals += info[0]
        if name in ("contour.entire_e_line", "contour.entire_e_axis") and info:
            if info[1]:
                heights.append(info[1])
            nonconv += info[2] is False

    def mean(name: str, scale: float) -> float:
        d = dur.get(name)
        return sum(d) / len(d) / scale if d else 0.0

    def self_of(prefix: str) -> float:
        tot = sum(t1 - t0 - child_ns.get(sid, 0) for sid, name, t0, t1, _, _ in spans
                  if name == prefix)
        return tot / 1e6 / n_ops

    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"complex_core.{k}.calls_per_op"] = counts.get(k, 0) / n_ops
        m[f"complex_core.{k}.ns_per_call"] = replay_ns.get(k, 0.0)
    m["quadrature.integrand_evals_per_op"] = evals / n_ops
    m["quadrature.integrate_interval.calls_per_op"] = len(dur.get("quadrature.integrate_interval", ())) / n_ops
    m["quadrature.self_ms_per_op"] = self_ns.get("quadrature", 0) / 1e6 / n_ops
    m["contour.entire_e_line.ms_per_call"] = mean("contour.entire_e_line", 1e6)
    m["contour.entire_e_axis.ms_per_call"] = mean("contour.entire_e_axis", 1e6)
    m["contour.truncation_height_mean"] = sum(heights) / len(heights) if heights else 0.0
    m["contour.nonconverged_per_op"] = nonconv / n_ops
    m["contour.self_ms_per_op"] = self_ns.get("contour", 0) / 1e6 / n_ops
    m["functional_equation.feq_check.ms_per_call"] = mean("functional_equation.feq_check", 1e6)
    m["functional_equation.chi.us_per_call"] = mean("functional_equation.chi", 1e3)
    m["functional_equation.self_ms_per_op"] = self_ns.get("functional_equation", 0) / 1e6 / n_ops
    for k in ("bose_integral", "exp_sq_integral", "sinh_integral"):
        m[f"mellin.{k}.ms_per_call"] = mean(f"mellin.{k}", 1e6)
    m["mellin.mellin_check.self_ms_per_op"] = self_of("mellin.mellin_check")
    m["oracle.zeta_euler_maclaurin.calls_per_op"] = len(dur.get("oracle.zeta_euler_maclaurin", ())) / n_ops
    m["oracle.zeta_euler_maclaurin.us_per_call"] = mean("oracle.zeta_euler_maclaurin", 1e3)

    # cli: evaluation spans inside each scan operation's window (any thread)
    evals_iv = sorted((sp[2], sp[3]) for sp in spans if sp[1] == _EVAL_SPAN)
    fmt, busy = [], []
    for sid, name, t0, t1, _, _ in spans:
        if not name.startswith("op.scan.jobs"):
            continue
        inside = [iv for iv in evals_iv if t0 <= iv[0] and iv[1] <= t1]
        wall = t1 - t0
        if name == "op.scan.jobs1":
            fmt.append((wall - _union_ns(inside)) / 1e6)
        else:
            busy.append(sum(b - a for a, b in inside) / (2.0 * wall))
    m["cli.scan.format_write_ms"] = statistics.median(fmt) if fmt else 0.0
    m["cli.scan.jobs2_busy_share"] = statistics.median(busy) if busy else 0.0
    return m

