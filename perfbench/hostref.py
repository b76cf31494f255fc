"""Measure how fast the host runs while a workload runs.

Shared hosts change speed by a third or more over minutes, as neighbours
load the machine, and that drift moves a workload's wall time far more than
the changes the benchmark must see.  ``Sampler`` runs a small fixed kernel
from a SIGALRM handler every ``PERIOD_S`` seconds, in the middle of the
workload, and records how long each call took.  The kernel does a fixed
amount of the kinds of work lyaplab does: scalar float arithmetic in a
Python loop and small numpy matrix products and QR steps.  It never calls
lyaplab, so no change to the program moves it.

A piece's time, less the time spent in the handler, divided by the mean
kernel time sampled during it is the piece's cost in host-independent
units; ``KERNEL_NOMINAL_S`` turns that back into seconds at the speed of a
quiet host.
"""

import gc
import math
import signal
import time

import numpy as np

PERIOD_S = 0.05  # two kernel calls per 50 ms: about 3% of the run
# kernel time on a quiet 2-core x86-64 host, Python 3.11, numpy 2.4
KERNEL_NOMINAL_S = 0.0006

_STEP = np.array([[0.9, 0.1, 0.0], [0.05, 1.0, 0.2], [0.0, 0.3, 1.1]])


def kernel():
    x, y, acc = 0.3, 1.1, 0.0
    for _ in range(1500):
        a = x * y + 0.5
        b = (a - y) / (a + 1.0)
        x, y = 0.9 * b + 0.1, math.sqrt(abs(a)) + 0.5
        acc += math.atan2(x, y)
    m = np.eye(3)
    for i in range(24):
        m = m @ _STEP
        if i % 8 == 7:
            m, _ = np.linalg.qr(m)
    return acc + float(m[0, 0])


def warm_kernel_s(calls=20):
    """Mean time of `calls` warm kernel calls made now."""
    kernel()
    start = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - start) / calls


class Sampler:
    """Time one kernel call every PERIOD_S seconds of wall time."""

    def __init__(self):
        self.samples = []  # seconds per timed kernel call, in call order
        self.spent = 0.0  # seconds spent in the handler in all

    def _tick(self, signum, frame):
        # Time a second, warm call with no garbage collection: a cold call's
        # cache misses and a collection's cost grow with the workload's
        # memory, which would tie the yardstick to the program.
        enabled = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - entered
        if enabled:
            gc.enable()

    def __enter__(self):
        kernel()  # warm-up: the first call pays for lazy numpy set-up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
