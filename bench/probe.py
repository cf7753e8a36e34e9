"""A speed probe that runs inside the measured process.

The machine the benchmark targets is a few cores of a shared host, and those
cores can run at half speed for a minute and at full speed the next, for
every kind of code alike.  Wall time alone then measures the host more than the
program.  ``Probe`` samples the core's speed while the program runs: a
periodic timer signal interrupts the program every ``INTERVAL_S`` seconds and
runs a fixed kernel of small and batched numpy linear algebra, the kind of
work restent does.  The kernel is timed with the thread's CPU clock, so time
the program's own threads or processes take from it does not count as a
slower machine.

``wall_s`` is the program's wall time with the probe's ticks taken out.
``norm_wall_s`` rescales each stretch of program time between two ticks by
``REF_TICK_S`` over the CPU time of the tick that ends it: it is the wall
time the program would have taken on a core that runs the kernel in
``REF_TICK_S``, about the median on the 2-vCPU machine the benchmark was
written on.  The probe touches no state of the program; Python runs the
handler between bytecodes, so a long numpy call only delays a tick.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# CPU time of one tick that counts as reference speed.  A constant, so that
# figures stay comparable across runs and versions.
REF_TICK_S = 0.017
INTERVAL_S = 0.25

_SMALL = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_ROWS = np.ones((515, 3))
_BATCH = np.random.default_rng(0).standard_normal((600, 3, 3))
_BATCH = _BATCH @ _BATCH.transpose(0, 2, 1)


def kernel():
    """The fixed work of one tick: per-call-bound 3x3 eigendecompositions
    and row updates, then batched products and eigenvalues of 600 3x3 SPD
    matrices."""
    a, y = _SMALL, _ROWS
    for _ in range(240):
        w, v = np.linalg.eigh(a)
        a = (v * w) @ v.T
        y = y + 0.001 * np.sin(y) * y
    for _ in range(12):
        np.linalg.eigvalsh(_BATCH @ _BATCH)


class Probe:
    """Use as a context manager around the measured work."""

    def __init__(self):
        self.ticks = []            # (wall start, wall end, CPU seconds)
        self.start = self.end = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.ticks.append((t0, t1, c1 - c0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def wall_s(self) -> float:
        return self.end - self.start - sum(t1 - t0 for t0, t1, _ in self.ticks)

    def norm_wall_s(self) -> float:
        if not self.ticks:         # too short for a tick: no speed reading
            return self.wall_s()
        total, previous = 0.0, self.start
        for t0, t1, cpu in self.ticks:
            total += (t0 - previous) * REF_TICK_S / cpu
            previous = t1
        return total + (self.end - previous) * REF_TICK_S / self.ticks[-1][2]

    def summary(self) -> dict:
        cpus = sorted(cpu for _, _, cpu in self.ticks)
        return {"wall_s": self.wall_s(), "norm_wall_s": self.norm_wall_s(),
                "probe_ticks": len(cpus),
                "probe_tick_s": cpus[len(cpus) // 2] if cpus else None}
