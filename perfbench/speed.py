"""Host-speed probe: scales wall time to the host's reference speed.

The speed of the 2-vCPU host the reference figures come from swings 1.7-1.9x
in phases that last from under a second to more than 15 minutes (README,
"Host"), so a plain wall time measures the phase as much as the program.
While a run times its ops, a timer signal runs a fixed pure-Python kernel in
the benchmark process every ``PERIOD_S`` and records how long it took.  An interval's wall time, multiplied
by the mean speed of the kernels run during it relative to their speed at
``REF_KERNEL_S``, is the interval's time at the reference speed:

    scaled = wall * mean(REF_KERNEL_S / d_k)   over kernels k in the interval

The benchmark process and its children are pinned to one CPU (each CPU of
that host changes speed on its own), so the kernel measures the CPU that ran
the op, also when a child process ran it.  No program change touches the
kernel, so a faster program gives a proportionally smaller scaled time.
Standard library only.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

PERIOD_S = 0.01
KERNEL_ITERS = 200
# median kernel time, with the timer running, in the host's fast state
# (2.1 GHz Xeon vCPU, Python 3.11): scaled figures read as fast-state seconds
REF_KERNEL_S = 35e-6
# a short op is scaled by the kernels of a window this wide around it
MIN_WINDOW_S = 0.2
MIN_KERNELS = 5


def pin_one_cpu() -> None:
    """Pin this process, and the children it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel() -> dict:
    # calls, dict lookups and small-object churn: of the kernels tried, the one
    # whose speed tracked the mp eigensolve's most closely (README, "Scaling")
    counts: dict = {}
    for i in range(KERNEL_ITERS):
        counts[i & 15] = counts.get(i & 15, 0) + len(str(i))
    return counts


class SpeedProbe:
    """Runs the kernel on SIGALRM every PERIOD_S while entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Time at the reference speed of the wall interval [t0, t1] (perf_counter)."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        window = self.durations[lo:hi]
        if len(window) < MIN_KERNELS:
            raise RuntimeError(f"speed probe ran {len(window)} times in a "
                               f"{t1 - t0 + 2 * pad:.3f} s window")
        return (t1 - t0) * statistics.fmean(REF_KERNEL_S / d for d in window)
