"""Order statistics and span arithmetic for the benchmark, free of engine imports."""

from __future__ import annotations

import math
from typing import Sequence

# Tail percentiles the benchmark may report; it picks the highest with enough samples beyond.
PERCENTILE_GRID = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float:
    """Highest grid percentile that leaves at least MIN_BEYOND of n samples above its rank."""
    eligible = [p for p in PERCENTILE_GRID if n - rank(p, n) >= MIN_BEYOND]
    if not eligible:
        raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond the median")
    return eligible[-1]


def tail(values: Sequence[float], p: float) -> tuple[float, int]:
    """(value at percentile p, number of samples ranked beyond it)."""
    return percentile(values, p), len(values) - rank(p, len(values))


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time of each (start, end, parent) span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlaps between them
    are counted once, so the result never goes below zero.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][0]):
            lo = max(spans[child][0], cursor)
            hi = min(spans[child][1], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result
