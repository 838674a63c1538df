"""Workload driver against a live cluster: closed- or open-loop clients,
per-client latency samples (CSV), a JSON summary, and a history file the
linearizability checker can consume. An open-loop client issues its ops on a
fixed schedule, so a slow op delays the ones behind it and their latencies
show that wait. Client ids are `b<site>.<index>.<run token>`: a client id
names one incarnation, so no run may reuse another's."""
from __future__ import annotations

import asyncio
import csv
import json
import random
import secrets

from ..workload import OpGen, Workload, latency_summary
from . import loop_us
from .client import KvClient


async def _client_task(cid: str, site: int, addrs: list[str], w: Workload, ops: OpGen,
                       seed: int, begin: int, stop_at: int, unhold_floor_ms: float,
                       records: list[dict]) -> None:
    """Run one client from `begin` until `stop_at` (`loop_us()`, the clock
    that times the client's ops too).
    Closed loop: the next op starts `w.think` after the last one ends. Open
    loop: op k is due at k / rate after `begin`; one that comes due while
    the previous op is in flight starts as soon as that op ends, and its
    invoke and latency count from its due time. No op starts after
    `stop_at`."""
    rng = random.Random(seed)
    cli = KvClient(addrs, site, cid, unhold_floor_ms, w.op_timeout / 1e6)
    period = int(1_000_000 / w.open_rate_per_s) if w.open_rate_per_s > 0 else 0
    due = begin
    n = 0
    name = cid.partition(".")[2]  # values leave out the site, to fit value_len
    try:
        while (now := loop_us()) < stop_at and due < stop_at:
            if due > now:
                await asyncio.sleep((due - now) / 1e6)
            invoke = due if period else loop_us()
            n += 1
            key, value = ops.draw(rng, name, n)
            op = "get" if value is None else "put"
            outcome, got, _lat = await cli.op(op, key, value)  # seq n
            end = loop_us()
            due = invoke + period if period else end + w.think
            if op == "get":
                value = got
            records.append({
                "client": cid, "site": site, "op": op,
                "key": key.decode("latin-1"),
                "value": None if value is None else value.decode("latin-1"),
                "invoke": invoke, "response": end if outcome == "ok" else None,
                "outcome": outcome, "latency_us": end - invoke,
                "request_id": f"{cid}.{n}",
            })
    finally:
        await cli.close()


_HISTORY_FIELDS = ("client", "request_id", "op", "key", "value", "invoke", "response", "outcome")


def _ok_latencies(rows: list[dict]) -> list[int]:
    return [r["latency_us"] for r in rows if r["outcome"] == "ok"]


def _summary(records: list[dict], wall_s: float) -> dict:
    reads = [r for r in records if r["op"] == "get"]
    writes = [r for r in records if r["op"] == "put"]
    ok = [r for r in records if r["outcome"] == "ok"]
    sites = sorted({r["site"] for r in records})
    return {
        "wall_s": round(wall_s, 3),
        "throughput_ops_s": round(len(ok) / wall_s, 1) if wall_s else 0,
        "reads": latency_summary(_ok_latencies(reads)),
        "writes": latency_summary(_ok_latencies(writes)),
        "per_site": {
            str(s): {
                "reads": latency_summary(_ok_latencies([r for r in reads if r["site"] == s])),
                "writes": latency_summary(_ok_latencies([r for r in writes if r["site"] == s])),
            }
            for s in sites
        },
    }


async def bench(w: Workload, client_addrs: list[str], seed: int = 0,
                unhold_floor_ms: float = 50.0, csv_path: str | None = None,
                summary_path: str | None = None, history_path: str | None = None) -> dict:
    """Run the workload; returns (and optionally writes) the summary. Its
    wall time counts from the end of the workload's `start` delay."""
    records: list[dict] = []
    ops = OpGen(w.keys, w.key_len, w.value_len, w.write_ratio, w.zipf_theta)
    begin = loop_us() + w.start
    stop_at = begin + w.duration
    tasks = []
    idx = 0
    run = secrets.token_hex(2)
    for site, count in w.clients:
        for _ in range(count):
            cid = f"b{site}.{idx}.{run}"
            idx += 1
            tasks.append(asyncio.create_task(
                _client_task(cid, site, client_addrs, w, ops, seed * 1009 + idx,
                             begin, stop_at, unhold_floor_ms, records)))
    await asyncio.gather(*tasks)
    wall = max(0, loop_us() - begin) / 1e6
    summary = _summary(records, wall)
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["client", "site", "op", "key", "invoke_us", "latency_us", "outcome"])
            for r in records:
                w.writerow([r["client"], r["site"], r["op"], r["key"],
                            r["invoke"], r["latency_us"], r["outcome"]])
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    if history_path:
        with open(history_path, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps({k: r[k] for k in _HISTORY_FIELDS}, sort_keys=True) + "\n")
    return summary
