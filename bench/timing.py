"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import random
from array import array

import numpy as np

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer than 4x as many samples only the median is reported.
TAIL_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def percentile(ordered, p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not len(ordered):
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summarize(samples) -> dict:
    """Sample count, median, and the highest tail percentile that has at
    least ten samples beyond it (none below forty samples)."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    out = {"n": n, "p50": percentile(ordered, 50.0)}
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            out[f"p{p:g}"] = percentile(ordered, p)
            break
    return out


class Reservoir:
    """A uniform sample of at most ``capacity`` values from a stream.

    Runs of tens of thousands of ops keep a fixed-size sample (reservoir
    sampling with a fixed seed), so the memory the benchmark itself holds
    does not grow with the program's speed; shorter runs keep every value.
    """

    def __init__(self, capacity: int = 1 << 16, seed: int = 0):
        self.capacity = capacity
        self.values = array("d")
        self.count = 0
        self._rng = random.Random(seed)

    def extend(self, xs) -> None:
        for x in xs:
            if len(self.values) < self.capacity:
                self.values.append(x)
            else:
                j = self._rng.randrange(self.count + 1)
                if j < self.capacity:
                    self.values[j] = x
            self.count += 1
