"""A history checker that shares no code with `bodega.lincheck`.

Every workload writes unique values, so a read names the one put it can
have observed. That makes the per-key checks below linear-time rules in
the spirit of Lowe, "Testing for linearizability" (2017): a history that
breaks any of them has no linearization. Times are integers on one clock;
`response` is None for an op that never returned ok (it may or may not
have taken effect).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

NEG = float("-inf")
POS = float("inf")


@dataclass(slots=True)
class Op:
    client: str
    kind: str  # "get" | "put"
    key: bytes
    value: bytes | None  # written value for puts, returned value for gets
    invoke: int
    response: int | None


def check_history(ops: list[Op]) -> list[str]:
    """Every problem found, as one line each; empty when none."""
    problems = _check_clients(ops)
    per_key: dict[bytes, list[Op]] = {}
    for o in ops:
        per_key.setdefault(o.key, []).append(o)
    for key in sorted(per_key):
        problems += _check_key(key, per_key[key])
    return problems


def _check_clients(ops: list[Op]) -> list[str]:
    """A client never has two ops in flight. An op that never returned ok
    ended when the client gave up on it, which the history does not record,
    so it only has to start before the client's next op."""
    per_client: dict[str, list[Op]] = {}
    for o in ops:
        per_client.setdefault(o.client, []).append(o)
    out = []
    for cid, seq in per_client.items():
        seq.sort(key=lambda o: o.invoke)
        for a, b in zip(seq, seq[1:]):
            if (a.invoke >= b.invoke if a.response is None else a.response > b.invoke):
                out.append(f"client {cid}: two ops in flight at {b.invoke}")
    return out


def _check_key(key: bytes, ops: list[Op]) -> list[str]:
    out: list[str] = []
    writer: dict[bytes, Op] = {}
    for o in ops:
        if o.kind == "put":
            if o.value in writer:
                out.append(f"key {key!r}: value {o.value!r} written twice")
            writer[o.value] = o
    # completed puts by response time, with the latest invoke among them
    done = sorted((o for o in ops if o.kind == "put" and o.response is not None),
                  key=lambda o: o.response)
    done_resp = [o.response for o in done]
    done_max_inv = []
    m = NEG
    for o in done:
        m = max(m, o.invoke)
        done_max_inv.append(m)

    def bounds(r: Op) -> tuple[float, float]:
        """(invoke, response) of the put read by `r`; the initial empty value
        precedes everything."""
        if r.value is None:
            return NEG, NEG
        w = writer[r.value]
        return w.invoke, POS if w.response is None else w.response

    reads = []
    for r in ops:
        if r.kind != "get" or r.response is None:
            continue
        if r.value is not None:
            w = writer.get(r.value)
            if w is None:
                out.append(f"key {key!r}: read at {r.invoke} returned {r.value!r}, never written")
                continue
            if w.invoke > r.response:
                out.append(f"key {key!r}: read at {r.invoke} returned {r.value!r}, "
                           f"written only at {w.invoke}")
                continue
        reads.append(r)
        # stale: a put that began after the read's put ended, and ended
        # before the read began, overwrote the value
        w_resp = bounds(r)[1]
        i = bisect.bisect_left(done_resp, r.invoke)
        if i and done_max_inv[i - 1] > w_resp:
            out.append(f"key {key!r}: read at {r.invoke} returned {r.value!r}, "
                       f"overwritten before it began")
    # read order: a read that ends before another begins may not see a
    # put that is strictly older than the one it saw
    reads.sort(key=lambda r: r.response)
    resp = [r.response for r in reads]
    max_inv = []
    m = NEG
    for r in reads:
        m = max(m, bounds(r)[0])
        max_inv.append(m)
    for r in reads:
        i = bisect.bisect_left(resp, r.invoke)
        if i and max_inv[i - 1] > bounds(r)[1]:
            out.append(f"key {key!r}: read at {r.invoke} returned {r.value!r}, "
                       f"older than what an earlier read returned")
    return out


def final_values(ops: list[Op]) -> dict[bytes, set[bytes]]:
    """Per key, the values a read after every op may return: those of puts
    that no completed put of the key follows in real time."""
    per_key: dict[bytes, list[Op]] = {}
    for o in ops:
        if o.kind == "put":
            per_key.setdefault(o.key, []).append(o)
    out = {}
    for key, puts in per_key.items():
        last_start = max((p.invoke for p in puts if p.response is not None), default=NEG)
        out[key] = {p.value for p in puts if p.response is None or p.response >= last_start}
    return out
