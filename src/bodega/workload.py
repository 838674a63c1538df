"""Workloads, shared by the simulator's clients and the live bench: the
`Workload` spec and its file reader, key names, the zipf key distribution,
the op generator, and the latency summary both report."""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from .model import SettingError, convert, count, listed, ms_to_us, number, read_settings


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


@dataclass(slots=True)
class Workload:
    """The clients of a simulation or of a bodega-bench run, and the ops
    they draw. Microseconds here; files give milliseconds (WORKLOAD_KEYS)."""

    start: int = 500_000  # a client's delay before its first op
    duration: int = 3_000_000  # no op starts after start + duration
    keys: int = 100
    key_len: int = 8
    value_len: int = 16
    write_ratio: float = 0.1
    clients: list[tuple[int, int]] = field(default_factory=list)  # (site, count)
    open_rate_per_s: float = 0.0  # 0 = closed loop
    zipf_theta: float = 0.0  # 0 = uniform
    think: int = 0  # a closed-loop client's pause after each op
    op_timeout: int = 30_000_000


def _choice(word: str, key: str, conv, default: float):
    """Converter of a setting that is `word`, read as 0.0, or an object
    {key: number}, read as `default` when the key is absent."""
    table = {key: (key, conv)}

    def read(v) -> float:
        if v == word:
            return 0.0
        if type(v) is not dict:
            raise ValueError(f"must be {word!r} or {{{key!r}: number}}")
        return float(read_settings(v, table).get(key, default))
    return read


_CLIENT_KEYS = {"site": ("site", count), "count": ("count", count)}


def _client(v) -> tuple[int, int]:
    kw = read_settings(v, _CLIENT_KEYS)
    if "site" not in kw:
        raise SettingError("site", "required")
    return kw["site"], kw.get("count", 1)


# A workload as scenario files and bodega-bench files spell it:
# key -> (Workload field, conversion). An open-loop rate is at most 1e6/s,
# as a client's period is a whole number of microseconds.
WORKLOAD_KEYS = {
    "start_ms": ("start", ms_to_us),
    "duration_ms": ("duration", ms_to_us),
    "keys": ("keys", count),
    "key_len": ("key_len", count),
    "value_len": ("value_len", count),
    "write_ratio": ("write_ratio", number(0, 1)),
    "clients": ("clients", listed(_client)),
    "distribution": ("zipf_theta", _choice("uniform", "zipf", number(0, math.inf), 0.99)),
    "mode": ("open_rate_per_s", _choice("closed", "open_rate_per_s", number(0, 1e6), 0.0)),
    "think_ms": ("think", ms_to_us),
    "op_timeout_ms": ("op_timeout", ms_to_us),
}


def workload_from_dict(d: dict, n: int) -> Workload:
    """Workload from the keys of WORKLOAD_KEYS, for a cluster of `n` nodes.
    Raises SettingError naming an unknown, ill-typed or out-of-range key."""
    w = Workload(**read_settings(d, WORKLOAD_KEYS))
    if w.keys == 0:
        raise SettingError("keys", "must be at least 1")
    # the largest power `zipf_cdf` takes, so a theta it cannot use fails here
    convert("distribution.zipf", pow, float(w.keys), w.zipf_theta)
    for i, (site, _count) in enumerate(w.clients):
        if site >= n:
            raise SettingError(f"clients[{i}].site", f"node id {site} not in [0, {n})")
    return w


class OpGen:
    """Draws a client's next op: the key first, then the write coin. A
    put's value names the client and its op number, padded to
    `value_len` but never cut, so no two puts of one client write one
    value."""

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
            return key, f"v.{cid}.{n}.".encode().ljust(self.value_len, b"x")
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
