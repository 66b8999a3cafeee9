"""How fast the machine runs right now, measured with fixed reference work.

The speed of a shared VM drifts by up to 30 % over minutes. The benchmark
divides its times by the duration of `reference_work`, measured at the
same moment, so that the drift cancels. The reference work always runs on
the benchmark's own thread, in the gaps between the program's work, so
the program never runs at the same time as it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# `reference_work` takes about this long on the 2-vCPU VM the baseline was
# measured on; `setup_s` is scaled to a machine of that speed.
NOMINAL_REFERENCE_S = 1.8e-3


def reference_work() -> int:
    """A fixed mix of interpreter, small-array and JSON work; how long it
    takes tracks how fast the machine runs at that moment."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    values = np.arange(64.0)
    for _ in range(50):
        values = np.sqrt(values * values + 1.0)
    json.dumps(list(range(200)))
    return total


class SpeedProbe:
    """Collects `reference_work` times taken during one iteration.

    `sample()` runs at fixed points (start, between commands, end);
    `maybe_sample()` runs at request boundaries, at most every PERIOD_S.
    `spent_s` is the wall time the probe took, which the iteration's wall
    time leaves out.
    """

    PERIOD_S = 0.2

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self, repeats: int = 1):
        start = time.perf_counter()
        for _ in range(repeats):
            begin = time.thread_time()
            reference_work()
            self.samples.append(time.thread_time() - begin)
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.PERIOD_S:
            self.sample()

    def reference_s(self) -> float:
        return statistics.median(self.samples)


def reference_seconds(samples: int = 5) -> float:
    """Median thread CPU time of a few runs of `reference_work`."""
    probe = SpeedProbe()
    probe.sample(samples)
    return probe.reference_s()
