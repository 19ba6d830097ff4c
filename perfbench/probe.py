"""Host-speed probe: a fixed computation sampled throughout every timed region.

On a shared host the same pure-Python work can take twice as long from one
minute to the next, and within a command the speed flips between a fast and
a slow state in well under a second.  The swing hits the program and any
other interpreter-bound loop alike.  The probe is such a loop, pinned in the
benchmark (one pass of the reference evaluator of ``workloads.py`` over a
fixed circuit), so no change to ``gatefuzz`` can move it.

While a region runs, a ``SIGALRM`` timer runs one probe pass every
``INTERVAL_S`` and records its time; the region's clock excludes the time
spent in the probe.  A region's time is reported in *normalised seconds*:
its raw time scaled by ``NOMINAL_S`` over its mean probe reading, i.e. the
time it would take on a host where a probe pass takes ``NOMINAL_S``.  Raw
times and readings are kept beside them in the run records.
"""

from __future__ import annotations

import functools
import random
import signal
import statistics
import time
from contextlib import contextmanager

import workloads as W

# One probe pass on the 2-vCPU host the bounds were set on; normalised
# seconds are expressed against it.
NOMINAL_S = 0.005
INTERVAL_S = 0.25


@functools.cache
def _inputs():
    """The pinned circuit and patterns, built on first use and warmed up once."""
    rng = random.Random("probe-patterns")
    inputs = (W.random_circuit(random.Random("probe"), 64, 5000),
              ["".join(rng.choice("01") for _ in range(64)) for _ in range(16)])
    W.evaluate(*inputs)
    return inputs


def probe_pass() -> float:
    """Time of one probe pass, in seconds."""
    circuit, patterns = _inputs()
    t0 = time.perf_counter()
    W.evaluate(circuit, patterns)
    return time.perf_counter() - t0


class Region:
    """Probe readings of one timed region, and the time spent taking them."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def _take(self, *_signal_args):
        t0 = time.perf_counter()
        self.readings.append(probe_pass())
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the probe."""
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        """Factor that turns this region's raw seconds into normalised seconds."""
        return NOMINAL_S / statistics.fmean(self.readings)


@contextmanager
def sampling():
    """Take a reading, then one every ``INTERVAL_S`` while the block runs.
    Time the block with the yielded region's ``clock``."""
    region = Region()
    region._take()
    previous = signal.signal(signal.SIGALRM, region._take)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield region
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
