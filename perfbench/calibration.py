"""Machine-speed probe: a fixed kernel timed between operations.

On a shared 2-core virtual machine, core throughput swings by up to 2x over
stretches of seconds to a minute as other tenants come and go, which no
amount of repetition inside one 30-second run averages out. Every latency
the benchmark reports is therefore scaled by how slow the machine was right
then: the operation's wall time times ``REFERENCE_MS`` over the median time
of the kernel runs nearest to it. Values read as milliseconds on a machine
where the kernel takes ``REFERENCE_MS``.

The kernel never calls the engine, so a faster engine still reads faster.
It mixes what the engine's hot paths do, on a working set of similar size:
dot products and norms over a megabyte of 256-d vectors visited in a
scattered order, keyed hashing of short strings, and dict and string churn.
On such a machine (2.1 GHz Xeon) it tracks the slowdown of steps, answers
and snapshots to within a few percent over stretches where raw latency
moves by half.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import statistics
import time

import numpy as np

REFERENCE_MS = 1.2          # the kernel's time on an undisturbed 2.1 GHz Xeon core
PROBE_EVERY_NS = 200_000_000
NEIGHBOURS = 5

_VECTORS = [np.random.default_rng(0).standard_normal(256) for _ in range(512)]
_ORDER = random.Random(0).sample(range(len(_VECTORS)), len(_VECTORS))
_WORDS = [f"w{i:04d}" for i in range(len(_VECTORS))]
_KEY = b"perfbench"


def kernel() -> float:
    """About a millisecond of engine-like work; the result only keeps it from being skipped."""
    query = _VECTORS[0]
    table = {}
    total = 0.0
    for position, index in enumerate(_ORDER):
        vector = _VECTORS[index]
        total += float(np.dot(query, vector)) / float(np.linalg.norm(vector))
        if position % 4 == 0:
            word = _WORDS[index]
            digest = hashlib.blake2b(word.encode(), key=_KEY, digest_size=8).digest()
            table[word] = (int.from_bytes(digest, "little") % 256, " ".join((word, _WORDS[position])))
    return total + len(table)


class SpeedProbe:
    """Kernel timings along the run, and the slowdown factor they imply at any instant."""

    def __init__(self) -> None:
        self.at: list[int] = []      # midpoint of each kernel run, perf_counter_ns
        self.cost: list[int] = []    # its duration in ns
        self._due = 0

    def probe(self) -> None:
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.at.append((start + end) // 2)
        self.cost.append(end - start)
        self._due = end + PROBE_EVERY_NS

    def maybe(self) -> None:
        """Probe if the last probe is more than PROBE_EVERY_NS old."""
        if time.perf_counter_ns() >= self._due:
            self.probe()

    def scale(self, at: int) -> float:
        """REFERENCE_MS over the median kernel time of the NEIGHBOURS probes nearest ``at``."""
        if not self.at:
            raise ValueError("no probes recorded")
        i = bisect.bisect_left(self.at, at)
        lo, hi = i, i
        while hi - lo < min(NEIGHBOURS, len(self.at)):
            if lo > 0 and (hi >= len(self.at) or at - self.at[lo - 1] <= self.at[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS * 1e6 / statistics.median(self.cost[lo:hi])
