"""Timing that corrects for the host's changing speed.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds, for every process alike: another tenant takes half of the core,
then leaves.  A fixed probe (a short interpreter-and-small-numpy task) is
timed before, after, and every TICK_S during each timed call, from a
SIGALRM handler on the main thread.  The call's scaled time is the time it
would take on a host where the probe takes PROBE_REFERENCE_S:

    scaled = sum over the call's ticks of  tick length * PROBE_REFERENCE_S / probe

A change to the program moves the call and not the probe, so it shows in
full.  The probes cost about 1% of the call's wall time.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np

# Time scale: roughly what one probe takes on a quiet 2-core x86-64 host
# (Python 3.11, numpy 2.4).
PROBE_REFERENCE_S = 0.0008
TICK_S = 0.1


def _probe_work() -> float:
    w = np.arange(12.0).reshape(3, 4)
    x = np.ones(4)
    total = 0.0
    for i in range(500):
        total += float(np.tanh(w @ x)[i % 3])
    return total


def probe_once() -> float:
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def probe() -> float:
    """Best of three probes: the host's speed right now."""
    return min(probe_once() for _ in range(3))


def pin_to_current_cpu() -> int | None:
    """Keep this process (and its children) on the CPU it is running on.

    A probe describes the CPU it runs on; a process that migrates between
    CPUs would be timed on one and probed on another.
    """
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        cpu = int(fields[36])  # field 39, "processor", counted from field 3
        os.sched_setaffinity(0, {cpu})
    except (OSError, IndexError, ValueError, AttributeError):
        return None
    return cpu


class Clock:
    """Times calls in wall seconds and in probe-scaled seconds."""

    def __init__(self):
        self.probes: list[float] = []
        self._ticks: list[float] = []

    def _on_tick(self, signum, frame):
        self._ticks.append(probe_once())

    @contextlib.contextmanager
    def _sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, call):
        """(result, wall seconds, scaled seconds) of ``call()``."""
        before = probe()
        self._ticks = []
        with self._sampling():
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start
        after = probe()
        samples = [before, *self._ticks, after]
        self.probes.extend(samples)
        speed = statistics.fmean(PROBE_REFERENCE_S / p for p in samples)
        return result, wall, wall * speed
