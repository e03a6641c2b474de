"""Machine-speed probe: a fixed stdlib kernel timed every few milliseconds.

The VMs this benchmark runs on change speed by up to 1.8x within seconds
(a fixed pure-Python task takes 18 ms in one stretch and 32 ms in the
next), so a raw time mostly measures how long the host kept the slow
state.  The probe tracks that speed while the program runs: a SIGALRM
timer fires every ``INTERVAL`` seconds of wall time and the handler times
``kernel()``, a fixed loop of tuple-keyed dict updates (the operation mix
of qcpn's rewriting memos and Q(s) dicts) that uses only the standard
library and never touches qcpn.  A time span is then converted to
reference seconds, the time it would have taken at the speed at which
``kernel()`` takes ``REF_KERNEL_S``: the span is scaled by the mean of
``REF_KERNEL_S / kernel time`` over the samples inside it.  Handler time is
not counted.

Of the kernels tried (this one, an int loop over a list, a strided walk
over a 300k-element list and a small numpy matmul), this one cancelled the
most run-to-run spread on every workload.  The collector is off while it
runs, and its objects are all freed before it returns, so it leaves the
program's garbage-collection schedule as it found it.  Python runs the
handler only between bytecodes, so it cannot observe a half-updated qcpn
object.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL = 0.02
# kernel() on a 2-vCPU x86-64 VM (Python 3.11.7) in its fast state; any
# fixed value works, it only sets the scale of the reported seconds.
REF_KERNEL_S = 0.00033
_clock = time.perf_counter


def kernel() -> int:
    table = {}
    acc = 0
    for i in range(1200):
        key = (i & 63, (i * 7) & 15)
        acc = (acc + table.get(key, i) * 3) & 0xFFFFF
        table[key] = acc
    return acc


class SpeedProbe:
    """Samples the kernel time from a timer signal; converts spans to reference seconds."""

    def __init__(self):
        self.times = []  # start of each sample
        self.kernel_s = []  # kernel time of each sample
        self.paused = [0.0]  # handler time up to and including each sample
        self._old = None
        self.started = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = _clock()
        kernel()
        t1 = _clock()
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)
        self.paused.append(self.paused[-1] + _clock() - t0)

    def start(self) -> None:
        self.started = _clock()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def paused_between(self, t0: float, t1: float) -> float:
        """Handler time inside [t0, t1]."""
        i, j = bisect.bisect_left(self.times, t0), bisect.bisect_left(self.times, t1)
        return self.paused[j] - self.paused[i]

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed factor REF_KERNEL_S / kernel time over [t0, t1].

        Samples inside the span are averaged; a span shorter than the
        interval uses the samples on either side of it.
        """
        i, j = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        lo, hi = max(0, i - 1), min(len(self.times), j + 1)
        if hi <= lo:
            raise RuntimeError("no speed samples near the span")
        window = self.kernel_s[lo:hi] if j - i < 2 else self.kernel_s[i:j]
        return statistics.fmean(REF_KERNEL_S / k for k in window)

    def reference_s(self, t0: float, t1: float) -> float:
        """The span [t0, t1] minus handler time, in reference seconds."""
        return (t1 - t0 - self.paused_between(t0, t1)) * self.scale(t0, t1)
