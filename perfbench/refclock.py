"""Machine-speed reference: times are reported scaled to a steady machine.

A shared host can run every operation 1.6-2x slower for seconds or whole
minutes while a neighbour is busy; no estimator over one run removes that,
and runs taken minutes apart disagree by that factor.  So the benchmark
times, all along the run, a fixed reference kernel (stdlib float work of
the same kind as zetaline's integrands, independent of the package) and
scales every time it reports by REF_NOMINAL_S / (the kernel's time next to
the measurement).  A figure then reads as the time on a machine where the
kernel takes REF_NOMINAL_S, and a change to zetaline moves it exactly as it
moves the raw time, since the kernel does not touch the package.

On a shared 2-vCPU host, eval-strip's ops_per_s, op_ms_p50 and op_ms_p99
spread 33 %, 43 % and 63 % (IQR over median) over ten seeds when each
operation counted at its best unscaled time, and 2.7 %, 3.5 % and 5.1 %
over ten seeds once scaled.
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time

REF_NOMINAL_S = 0.005  # about the kernel's time on an idle 2-vCPU host
REF_EVERY_S = 0.25     # kernel samples at least this often during a loop
LONG_S = 1.0           # measurements longer than this use the run's median sample
LONG_SAMPLES = 4       # samples taken after each such measurement


def _term(y: float) -> float:
    lr = math.log(math.hypot(0.5, y))
    th = math.atan2(y, 0.5)
    m = math.exp(-0.3 * lr - 2.0 * th)
    q = math.exp(-6.283185307179586 * y)
    return m * math.cos(2.0 * lr - 0.3 * th) * 4.0 * q / ((1.0 + q) * (1.0 + q))


def reference_kernel() -> float:
    acc = 0.0
    for k in range(1, 8000):
        acc += _term(0.002 * k)
    return acc


def _two_threads() -> None:
    workers = [threading.Thread(target=reference_kernel) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class RefClock:
    """Samples of the reference kernel's time, run on one thread and on two
    threads at once, and the scale factor for a measurement taken between
    two instants.

    A measurement made on two threads (a `--jobs 2` scan) is scaled by the
    two-thread samples.  Under the GIL the two threads hand the interpreter
    back and forth, and that hand-over slows down more than a single thread
    does when other processes hold the second core, which the one-thread
    kernel cannot see."""

    def __init__(self) -> None:
        self._t: list[float] = []
        self._d: dict[int, list[float]] = {1: [], 2: []}

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            _two_threads()
            t2 = time.perf_counter()
            self._t.append(t0)
            self._d[1].append(t1 - t0)
            self._d[2].append(t2 - t1)

    def due(self) -> bool:
        return not self._t or time.perf_counter() - self._t[-1] >= REF_EVERY_S

    def after(self, t0: float, t1: float) -> None:
        """Called after each measurement: a long one adds LONG_SAMPLES
        samples, so the run median that scales it rests on enough of them."""
        if t1 - t0 > LONG_S:
            self.sample(LONG_SAMPLES)

    def scale(self, t0: float, t1: float, threads: int = 1) -> float:
        """The nominal kernel time (REF_NOMINAL_S a thread) over the
        kernel's time on `threads` threads around [t0, t1]: the mean of the
        last sample before t0 and the first after t1, or of the samples
        inside when there are any.  A measurement longer than LONG_S
        outlasts what its neighbouring samples can tell about it, so it
        takes the median of all the run's samples instead."""
        d, nominal = self._d[threads], REF_NOMINAL_S * threads
        if t1 - t0 > LONG_S:
            return nominal / statistics.median(d)
        lo = bisect.bisect_left(self._t, t0)
        hi = bisect.bisect_left(self._t, t1)
        near = d[max(lo - 1, 0):min(hi + 1, len(d))]
        return nominal / math.fsum(near) * len(near)
