"""Workload generation and latency summaries, shared by the simulator's
clients and the live bench: key names, the zipf key distribution, the
`distribution` and `mode` fields of workload files, the op generator, and
the latency summary both report."""
from __future__ import annotations

import bisect
import random

from .model import SettingError


def key_name(i: int, key_len: int) -> bytes:
    """Name of key number `i`: "k" and zero-padded digits, `key_len` bytes
    (at least 2)."""
    return (b"k%0*d" % (max(1, key_len - 1), i))[: max(2, key_len)]


def zipf_cdf(n: int, theta: float) -> list[float]:
    """Cumulative probabilities of ranks 0..n-1 under zipf(theta)."""
    weights = [1.0 / ((i + 1) ** theta) for i in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def zipf_pick(rng: random.Random, cdf: list[float]) -> int:
    """One rank drawn from `cdf`. The float sum may end below 1.0, so a draw
    above its last entry takes the last rank."""
    return min(bisect.bisect_left(cdf, rng.random()), len(cdf) - 1)


def parse_distribution_mode(d: dict) -> tuple[float, float]:
    """(zipf theta, open-loop rate per second) from a workload dict's
    `distribution` ("uniform" or {"zipf": theta}) and `mode` ("closed" or
    {"open_rate_per_s": r}); 0.0 stands for uniform and for closed loop.
    Raises SettingError naming the field."""
    dist = d.get("distribution", "uniform")
    theta = 0.0
    if isinstance(dist, dict):
        theta = float(dist.get("zipf", 0.99))
    elif dist != "uniform":
        raise SettingError("distribution", "must be 'uniform' or {'zipf': theta}")
    mode = d.get("mode", "closed")
    rate = 0.0
    if isinstance(mode, dict):
        rate = float(mode.get("open_rate_per_s", 0.0))
    elif mode != "closed":
        raise SettingError("mode", "must be 'closed' or {'open_rate_per_s': r}")
    return theta, rate


class OpGen:
    """Draws a client's next op: the key first, then the write coin. A
    put's value names the client and its op number, padded to
    `value_len`."""

    def __init__(self, keys: int, key_len: int, value_len: int, write_ratio: float,
                 zipf_theta: float) -> None:
        self.keys = [key_name(i, key_len) for i in range(keys)]
        self.cdf = zipf_cdf(keys, zipf_theta) if zipf_theta > 0.0 else None
        self.value_len = value_len
        self.write_ratio = write_ratio

    def draw(self, rng: random.Random, cid: str, n: int) -> tuple[bytes, bytes | None]:
        """(key, value) of op number `n`; value is None for a get."""
        if self.cdf is None:
            key = self.keys[rng.randrange(len(self.keys))]
        else:
            key = self.keys[zipf_pick(rng, self.cdf)]
        if rng.random() < self.write_ratio:
            return key, (f"v.{cid}.{n}.".encode() + b"x" * self.value_len)[: self.value_len]
        return key, None


def latency_summary(samples_us: list[int]) -> dict:
    """{count, mean_ms, p50_ms, p99_ms} of latencies in microseconds."""
    if not samples_us:
        return {"count": 0}
    s = sorted(samples_us)
    return {
        "count": len(s),
        "mean_ms": round(sum(s) / len(s) / 1000.0, 3),
        "p50_ms": round(s[len(s) // 2] / 1000.0, 3),
        "p99_ms": round(s[min(len(s) - 1, int(len(s) * 0.99))] / 1000.0, 3),
    }
