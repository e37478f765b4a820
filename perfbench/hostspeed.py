"""Host-speed normalisation: a fixed kernel timed next to the measured work.

The hosts the benchmark runs on are shared, and their speed drifts by up to
2x over minutes; the process's CPU time drifts with the wall time, so it
does not help.  A fixed kernel that exercises the machinery pfold runs on
(scipy's ``DOP853`` stepping a small numpy system from Python, then scalar
float math) slows down with the host.  Dividing a wall time by the mean
time of the kernel runs around it cancels most of the drift: on a 2-core
2.1 GHz Xeon guest, the mean sweep query varied by +-25% between 10 s
windows, its ratio to the kernel run in between by +-3%.

The kernel does not follow the start-up of a fresh process (exec,
imports, page faults) from one run to the next: over 13 minutes the median
``cli`` query (a fresh ``pfold`` process) went from 1.1 s to 0.85 s while
the kernel stayed at 13-17 ms, and neither the kernel nor a fresh
reference interpreter made those times steadier, so the ``cli`` queries
are wall times.  Over longer spans it does: in six 10-minute spans of one
session the median set-up time went between 0.68 s and 0.94 s, its ratio
to the kernel's mean time between 57 and 62.  So ``setup_s``, whose bound
compares medians of many runs, is normalised by all the kernel runs of
its run.

``REFERENCE_S`` turns the ratio back into seconds: a normalised time is the
wall time the same work takes on a host where the kernel takes
``REFERENCE_S``.  It is a fixed constant of the benchmark; changing it
rescales every normalised time.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

#: Seconds the kernel takes on the reference host speed (about the kernel's
#: median on the machine above when it was quiet).
REFERENCE_S = 0.010

#: Kernel time per second of measured work, at the reference speed.  The
#: kernel's time is bimodal at a fine grain (about 10 ms and 17 ms on the
#: machine above), so one sample says little; a long query gets as many
#: samples as it needs for their mean to follow the host's mean speed.
SHARE = 0.1

#: The host's speed changes within seconds, so a piece of work is
#: normalised by the kernel samples taken up to this long before or after it.
WINDOW_S = 1.0


def kernel() -> float:
    """Fixed work: no input, no output but a checksum."""
    import numpy as np
    from scipy.integrate import DOP853

    def rhs(t, y):
        return np.array([y[1], -y[0] - 0.1 * y[1] * abs(y[1])])

    solver = DOP853(rhs, 0.0, np.array([1.0, 0.0]), 20.0, rtol=1e-10, atol=1e-12)
    while solver.status == "running":
        solver.step()
    acc = float(solver.y[0])
    for i in range(1000):
        acc += math.sin(i * 1e-3) * math.exp(-i * 1e-4)
    return acc


class HostSpeed:
    """Kernel times sampled in between the measured work of one run."""

    def __init__(self):
        kernel()  # imports and first-call costs stay out of the samples
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def sample(self, work_s: float = 0.0) -> None:
        """Time the kernel once, plus once per ``REFERENCE_S / SHARE`` of
        ``work_s``, the duration of the work it stands next to."""
        for _ in range(1 + int(SHARE * work_s / REFERENCE_S)):
            t0 = perf_counter()
            kernel()
            self.samples.append((t0, perf_counter() - t0))

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Normalised seconds per wall second for work done from ``start`` to
        ``end``: the reference over the mean time of the kernel samples taken
        within ``WINDOW_S`` of that interval, without their lowest and
        highest tenth."""
        times = sorted(s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S)
        cut = len(times) // 10
        return REFERENCE_S / statistics.fmean(times[cut:len(times) - cut])
