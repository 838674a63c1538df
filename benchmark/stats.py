"""Summaries shared by the workloads."""
from __future__ import annotations

import math


def pct(sorted_vals: list, q: float):
    """Nearest-rank percentile of an ascending list: the smallest value with
    at least a share q of the samples at or below it."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def longest_gap(times: list[int], lo: int, hi: int) -> int:
    """Longest stretch of [lo, hi] that holds none of `times` (ascending)."""
    prev, gap = lo, 0
    for t in times:
        if t < lo:
            continue
        if t > hi:
            break
        gap = max(gap, t - prev)
        prev = t
    return max(gap, hi - prev)
