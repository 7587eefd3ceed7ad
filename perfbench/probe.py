"""Host-speed probes: fixed pieces of work, timed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within a minute, and by half from one second to the next: a fixed
loop that takes 0.11 s at one moment takes 0.17 s twenty seconds later, in
wall time and in CPU time alike.  While the worker runs an untraced pass, a
``Sampler`` times a probe every ``PERIOD_S`` of wall time, from a signal
handler, so also in the middle of a long library call.  Each stretch of
CPU time between two probes is rescaled to the speed the probe read when
the benchmark was made (``REF_S``), so that the drift of the host cancels
while a change in the library's own work does not.  Probes and stretches
are timed in the CPU time of the calling thread, so that the moments it
does not run at all (another process or the hypervisor has its core)
count nowhere.  The thread's clock, not the process's: the process's CPU
clock moves in scheduler ticks (4 ms) while a process CPU timer, such as
the isomonodromy deadline, is armed.

The drift slows pure-Python code more than numpy calls, so there are two
probes, each doing the kind of work one layer spends its time on:
``exact`` (small-int arithmetic, tuple hashing, dict updates) for the
exact layer, and ``float`` (3x3 numpy products in a Python loop, as in a
``solve_ivp`` right-hand side) for the float layer.  Neither imports
anything from reflpvi.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

REPEATS = 3            # timed repetitions per probe; the median is kept
EXACT_N = 12_000       # loop length of one exact repetition, about 6 ms
FLOAT_N = 1_000        # loop length of one float repetition, about 5 ms
# Median probe times on the 2-core Xeon host the benchmark was made on.
REF_S = {"exact": 0.0065, "float": 0.0055}
PERIOD_S = 0.25        # wall time from the end of one sampled probe to the next


def _exact_work() -> int:
    table = {}
    acc = 1
    for i in range(EXACT_N):
        key = (i % 61, i % 17, i & 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i * i) % 1_000_000_007
    return acc + len(table)


def _float_work() -> float:
    import numpy as np
    a = np.array([[1.0, 0.5, 0.2], [0.1, 1.0, 0.3], [0.2, 0.4, 1.0]])
    x = a.copy()
    acc = 0.0
    for _ in range(FLOAT_N):
        y = x @ a
        x = (y - y.T) * 0.01 + a
        acc += float(x[0, 1])
    return acc


WORK = {"exact": _exact_work, "float": _float_work}


def probe_s(kind: str = "exact") -> float:
    """The median CPU time of a few repetitions of the fixed work, in
    seconds."""
    times = []
    for _ in range(REPEATS):
        start = thread_time()
        WORK[kind]()
        times.append(thread_time() - start)
    return statistics.median(times)


def scale(before: float, after: float, kind: str = "exact", power: float = 1.0) -> float:
    """The factor that rescales a time measured between two probes of
    `kind` to the reference speed.  `power` below 1 is for work that the
    host's drift slows less than it slows the probe."""
    return (REF_S[kind] / ((before + after) / 2.0)) ** power


class Sampler:
    """Probes of one kind taken at the start, every PERIOD_S of wall time
    while running, and at the end of a stretch of work; `rescale` turns an
    interval of the thread's CPU time into its CPU time without the
    probes, raw and at the reference speed."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples = []          # (CPU start, CPU end, probe seconds), in time order
        self.wall_spent = 0.0      # wall time the probes took

    def _sample(self) -> None:
        wall, start = perf_counter(), thread_time()
        speed = probe_s(self.kind)
        self.samples.append((start, thread_time(), speed))
        self.wall_spent += perf_counter() - wall

    def _on_alarm(self, signum, frame) -> None:
        try:
            self._sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def rescale(self, start: float, end: float):
        """The CPU seconds of [start, end] outside the probes, and the same
        seconds rescaled by the probes on either side of each stretch."""
        raw = ref = 0.0
        for (_, lo, before), (hi, _, after) in zip(self.samples, self.samples[1:]):
            part = min(end, hi) - max(start, lo)
            if part > 0:
                raw += part
                ref += part * scale(before, after, self.kind)
        return raw, ref
