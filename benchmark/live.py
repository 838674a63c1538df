"""The live-mixed workload: a real 3-node localhost cluster.

The daemons run in a child process (cluster.py). This process drives them
with two closed-loop `KvClient` sessions, at sites 1 and 2, doing 10%
writes of unique 64-byte values over 1000 uniform keys. It times every op
itself, then reads every written key once at each node and checks the
whole history with `lincheck.check` per key and with its own checker.
"""
from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from statistics import median

from bodega import lincheck
from bodega.service.client import KvClient

import inputs
from histcheck import Op, check_history, final_values
from layers import Trace
from stats import pct

HERE = os.path.dirname(os.path.abspath(__file__))
BOOTS = 3  # set-ups per run; the last cluster carries the load
# With two cores or more, the daemons' process runs on the first and this
# process on the second. Left to the scheduler, the read p50 of a run took
# one of two values about 2x apart, and the run's other figures followed.
CORES = sorted(os.sched_getaffinity(0))[:2]
STOP_TIMEOUT_S = 10.0


@dataclass(slots=True)
class Rec:
    op: Op
    request_id: str
    outcome: str


class Cluster:
    """The daemons' child process and its JSON-lines channel."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc

    @classmethod
    async def start(cls, errlog) -> "Cluster":
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "cluster.py"),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE, stderr=errlog)
        if len(CORES) == 2:
            os.sched_setaffinity(proc.pid, {CORES[0]})
        return cls(proc)

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        if not line:
            raise RuntimeError("the daemons' process exited")
        return json.loads(line)

    async def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd.encode() + b"\n")
        await self.proc.stdin.drain()
        return await self.recv()

    async def stop(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write(b"quit\n")
                await self.proc.stdin.drain()
                self.proc.stdin.close()
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
            except (asyncio.TimeoutError, ConnectionError):
                self.proc.kill()
                await self.proc.wait()


def _row(r: Rec) -> dict:
    o = r.op
    return {"client": o.client, "request_id": r.request_id, "op": o.kind,
            "key": o.key.decode("latin-1"),
            "value": None if o.value is None else o.value.decode("latin-1"),
            "invoke": o.invoke, "response": o.response, "outcome": r.outcome}


async def _call(cli: KvClient, recs: list[Rec], n: int, kind: str, key: bytes,
                value: bytes | None = None) -> Rec:
    """The client's n-th op, timed around the library call."""
    rid = f"{cli.cid}.{n}"
    t0 = time.perf_counter_ns()
    outcome, got, _lat = await cli.op(kind, key, value, request_id=rid)
    t1 = time.perf_counter_ns()
    if kind == "get":
        value = got
    rec = Rec(Op(cli.cid, kind, key, value, t0, t1 if outcome == "ok" else None), rid, outcome)
    recs.append(rec)
    return rec


async def _session(cli: KvClient, rng: random.Random, stop_at: float, recs: list[Rec]) -> None:
    n = 0
    while time.perf_counter() < stop_at:
        key = inputs.live_key(rng.randrange(inputs.LIVE_KEYS))
        n += 1
        if rng.random() < inputs.LIVE_WRITE_RATIO:
            await _call(cli, recs, n, "put", key, inputs.live_value(cli.cid, n))
        else:
            await _call(cli, recs, n, "get", key)


async def _boot(errlog, setup_reads: list[Rec]) -> tuple[Cluster, list[str], float]:
    """Start the daemons' process; the set-up ends with the first read
    served after the roster is stable."""
    t0 = time.perf_counter()
    cluster = await Cluster.start(errlog)
    try:
        addrs = (await cluster.recv())["addrs"]
        await cluster.recv()  # stable
        cli = KvClient(addrs, site=inputs.LIVE_CLIENT_SITES[0], cid=f"setup{len(setup_reads)}")
        try:
            await _call(cli, setup_reads, 1, "get", inputs.live_key(0))
        finally:
            await cli.close()
    except BaseException:
        await cluster.stop()
        raise
    return cluster, addrs, time.perf_counter() - t0


async def _load(cluster: Cluster, addrs: list[str], seed: int, phase: int, seconds: float,
                recs: list[Rec]) -> list[tuple[int, float, float]]:
    """Both sessions for `seconds`. Returns the marks that cut the load into
    windows of about a second: (time ns, daemons' CPU s, this process's CPU s)."""
    clis = [KvClient(addrs, site=s, cid=f"p{phase}c{s}") for s in inputs.LIVE_CLIENT_SITES]
    try:
        t0 = time.perf_counter()
        sessions = asyncio.gather(*(_session(c, random.Random(f"{seed}/{c.cid}"), t0 + seconds, recs)
                                    for c in clis))
        marks = []
        windows = max(5, round(seconds))
        for k in range(windows + 1):
            await asyncio.sleep(max(0.0, t0 + k * seconds / windows - time.perf_counter()))
            cpu = (await cluster.ask("cpu"))["cpu"]
            marks.append((time.perf_counter_ns(), cpu, time.process_time()))
        await sessions
        return marks
    finally:
        for c in clis:
            await c.close()


async def _final_reads(addrs: list[str], recs: list[Rec]) -> list[str]:
    """Read every written key once at each node; each read must return a
    value that no completed put of the key follows in real time."""
    allowed = final_values([r.op for r in recs])
    problems: list[str] = []

    async def reader(site: int) -> None:
        cli = KvClient(addrs, site=site, cid=f"final{site}")
        try:
            for n, key in enumerate(sorted(allowed), 1):
                r = await _call(cli, recs, n, "get", key)
                if r.outcome == "ok" and r.op.value not in allowed[key]:
                    problems.append(f"final read of {key!r} at node {site} returned "
                                    f"{r.op.value!r}, overwritten by a completed put")
        finally:
            await cli.close()

    await asyncio.gather(*(reader(s) for s in inputs.LIVE_RESPONDERS))
    return problems


@dataclass(slots=True)
class Phase:
    recs: list[Rec]
    marks: list[tuple[int, float, float]]
    before: dict  # the daemons' reports before and after the load
    after: dict


def _windows(ph: Phase) -> list[dict]:
    """Per window of the load: op rate, latencies and CPU per op of both
    processes."""
    wins = [{"get": [], "put": [], "ops": 0} for _ in ph.marks[1:]]
    starts = [m[0] for m in ph.marks]
    for r in ph.recs:
        i = bisect.bisect_right(starts, r.op.response or 0) - 1
        if r.op.response is not None and 0 <= i < len(wins):
            wins[i][r.op.kind].append(r.op.response - r.op.invoke)
            wins[i]["ops"] += 1
    out = []
    for w, (t0, d0, c0), (t1, d1, c1) in zip(wins, ph.marks, ph.marks[1:]):
        ops = w["ops"]
        reads = sorted(w["get"])
        out.append({
            "ops": ops, "ops_per_s": ops / ((t1 - t0) / 1e9), "writes": sorted(w["put"]),
            "read_p50_ns": pct(reads, 0.5) if reads else None,
            "read_p99_ns": pct(reads, 0.99) if reads else None,
            # a window in which nothing completed charges its CPU to one op
            "server_cpu_us_per_op": (d1 - d0) / max(ops, 1) * 1e6,
            "client_cpu_us_per_op": (c1 - c0) / max(ops, 1) * 1e6,
        })
    return out


def _end_to_end(ph: Phase, setups: list[float]) -> dict[str, float]:
    """Rates, CPU costs and read percentiles are medians over the windows,
    so that one stall of the host moves one window and not the run's
    figure. Write percentiles pool the windows: one window holds too few
    writes for a p99."""
    wins = _windows(ph)
    writes = sorted(x for w in wins for x in w["writes"])
    read_wins = [w for w in wins if w["read_p50_ns"] is not None]
    return {
        "setup_s": median(setups),
        "ops_per_s": median([w["ops_per_s"] for w in wins]),
        "read_p50_ms": median([w["read_p50_ns"] for w in read_wins]) / 1e6,
        "read_p99_ms": median([w["read_p99_ns"] for w in read_wins]) / 1e6,
        "write_p50_ms": pct(writes, 0.5) / 1e6,
        "write_p99_ms": pct(writes, 0.99) / 1e6,
        "server_cpu_us_per_op": median([w["server_cpu_us_per_op"] for w in wins]),
    }


def _per_layer(plain: Phase, traced: Phase, lc_ops: int, lc_cpu: float, keys: int) -> dict[str, float]:
    wins = _windows(traced)
    ops = sum(w["ops"] for w in wins)
    trace = Trace.from_json(traced.after["trace"])
    daemon_us = (traced.marks[-1][1] - traced.marks[0][1]) * 1e6
    m = trace.node_metrics(ops)
    m.update(trace.wire_metrics(ops))
    for k, v in traced.after["counters"].items():
        m[f"node.{k}"] = v - traced.before["counters"][k]
    m.update({
        "daemon.cpu_us_per_op": daemon_us / ops,
        "daemon.self_us_per_op": (daemon_us - (trace.handle_total_ns + trace.enc_ns
                                               + trace.dec_ns) / 1e3) / ops,
        "client.cpu_us_per_op": median([w["client_cpu_us_per_op"] for w in wins]),
        "lincheck.us_per_op": lc_cpu / lc_ops * 1e6,
        "lincheck.keys_checked": keys,
        "lincheck.keys_failed": 0,
        "trace.rate_ratio": (median([w["ops_per_s"] for w in wins])
                             / median([w["ops_per_s"] for w in _windows(plain)])),
    })
    return m


async def _run(seed: int, seconds: float, traced: bool, errlog):
    setup_reads: list[Rec] = []
    setups = []
    recs: list[Rec] = []
    phases: list[Phase] = []
    cluster = None
    if len(CORES) == 2:
        os.sched_setaffinity(0, {CORES[1]})
    try:
        for _ in range(BOOTS):
            if cluster is not None:
                await cluster.stop()
            cluster, addrs, setup_s = await _boot(errlog, setup_reads)
            setups.append(setup_s)
        # a traced run splits its time: untraced first, then traced
        n_phases = 2 if traced else 1
        for i in range(n_phases):
            if i:
                await cluster.ask("trace")
            before = await cluster.ask("report")
            n0 = len(recs)
            marks = await _load(cluster, addrs, seed, i, seconds / n_phases, recs)
            phases.append(Phase(recs[n0:], marks, before, await cluster.ask("report")))
        problems = await _final_reads(addrs, recs)
    finally:
        if cluster is not None:
            await cluster.stop()
    return setups, setup_reads, recs, phases, problems


def run(seed: int, seconds: float, traced: bool):
    """Returns (attempted, failed, problems, metrics, detail)."""
    out_dir = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    errlog_path = os.path.join(out_dir, f"live-mixed-seed{seed}-trace{int(traced)}.daemons.stderr")
    with open(errlog_path, "w", encoding="utf-8") as errlog:
        setups, setup_reads, recs, phases, problems = asyncio.run(_run(seed, seconds, traced, errlog))

    all_recs = setup_reads + recs
    problems += [f"set-up read returned {r.outcome} {r.op.value!r}" for r in setup_reads
                 if r.outcome != "ok" or r.op.value is not None]
    problems += check_history([r.op for r in recs])
    per_key: dict[bytes, list[dict]] = {}
    for r in recs:
        per_key.setdefault(r.op.key, []).append(_row(r))
    c0 = time.process_time()
    verdicts = [lincheck.check(per_key[k]) for k in sorted(per_key)]
    lc_cpu = time.process_time() - c0
    problems += [f"lincheck: {v.describe()}" for v in verdicts if v is not None]
    attempted = len(all_recs) + len(per_key)
    failed = sum(r.outcome != "ok" for r in all_recs)
    detail = {"setups_s": setups, "lincheck_cpu_s": lc_cpu,
              "windows": [[{k: v for k, v in w.items() if k != "writes"}
                           for w in _windows(ph)] for ph in phases]}
    if traced:
        m = _per_layer(phases[0], phases[1], len(recs), lc_cpu, len(per_key))
        detail["trace"] = phases[1].after["trace"]
    else:
        m = _end_to_end(phases[0], setups)
    return attempted, failed, problems, m, detail
