"""Inputs of the benchmark's workloads.

The generators live here, not in tests/ or scenarios/, so that edits to
those directories never move the benchmark's inputs.
"""
from __future__ import annotations

import random

# sim-faults: c01's randomized fault generator over a fixed block of seeds.
# The block is fixed because the workload's failed-op count and its
# virtual-time figures are invariants of the program, not of --seed.
FAULT_SEEDS = range(700, 740)

# sim-geo-reads: the five-site matrix of scenarios/geo5.json (RTT, ms)
GEO_RTT_MS = [
    [0, 38, 62, 18, 98],
    [38, 0, 30, 52, 68],
    [62, 30, 0, 76, 40],
    [18, 52, 76, 0, 112],
    [98, 68, 40, 112, 0],
]
GEO_LEADER = 0
GEO_SEEDS = range(1, 2)
GEO_CLIENT_LOCAL_RTT_MS = 0.5  # the simulator's default co-located hop

# live-mixed
LIVE_KEYS = 1000
LIVE_VALUE_LEN = 64
LIVE_WRITE_RATIO = 0.10
LIVE_CLIENT_SITES = (1, 2)
LIVE_LEADER = 0
LIVE_RESPONDERS = (0, 1, 2)
LIVE_TIMERS_MS = {"hb_send_ms": 40, "hb_fail_ms": 500, "guard_ms": 1000,
                  "lease_ms": 1000, "delta_ms": 25, "unhold_floor_ms": 40}


def fault_scenario(seed: int) -> dict:
    """5 nodes, 10 closed-loop clients, 10% writes, up to 2 crashes and 2
    partition windows, clock drift at the configured bound; timers scaled
    down so a failure/recovery cycle fits a few virtual seconds."""
    rng = random.Random(seed)
    n = 5
    rtt = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rtt[i][j] = rtt[j][i] = rng.choice([10, 16, 24, 30, 40])
    events = []
    for v in rng.sample(range(n), rng.randrange(3)):
        events.append({"at_ms": rng.randrange(400, 2200), "crash": v})
    for _ in range(rng.randrange(3)):
        nodes = list(range(n))
        rng.shuffle(nodes)
        cut = rng.randrange(1, n)
        start = rng.randrange(300, 2000)
        events.append({"at_ms": start, "partition": {
            "groups": [sorted(nodes[:cut]), sorted(nodes[cut:])],
            "heal_ms": start + rng.randrange(150, 700)}})
    responders = sorted(rng.sample(range(n), rng.randrange(1, 4)))
    clients = [{"site": rng.randrange(n), "count": 1} for _ in range(10)]
    return {
        "name": f"rand{seed}",
        "nodes": n,
        "rtt_ms": rtt,
        "drift": {"delta_ms": 30, "window_ms": 600},
        "config": {"hb_send_ms": 45, "hb_fail_ms": 260, "guard_ms": 600,
                   "lease_ms": 600, "delta_ms": 30, "unhold_floor_ms": 45},
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": [{"lo": "", "hi": None, "responders": responders}]},
        "workload": {"start_ms": 300, "duration_ms": 2200, "keys": 24,
                     "write_ratio": 0.1, "clients": clients, "op_timeout_ms": 2600},
        "events": events,
    }


def geo_scenario() -> dict:
    """geo5's topology and timers, a full-coverage roster with leader 0,
    and 20 closed-loop clients (4 per site) doing 1% writes over 50 keys for
    20 virtual seconds."""
    return {
        "name": "geo5-reads",
        "nodes": 5,
        "rtt_ms": GEO_RTT_MS,
        "client_local_rtt_ms": GEO_CLIENT_LOCAL_RTT_MS,
        "config": {"hb_send_ms": 120, "hb_fail_ms": 1200, "guard_ms": 2500,
                   "lease_ms": 2500, "delta_ms": 100},
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": GEO_LEADER,
                           "ranges": [{"lo": "", "hi": None, "responders": [0, 1, 2, 3, 4]}]},
        "workload": {"start_ms": 600, "duration_ms": 20_000, "keys": 50,
                     "write_ratio": 0.01,
                     "clients": [{"site": s, "count": 4} for s in range(5)]},
    }


def geo_write_floor_us(site: int) -> int:
    """No ok write can finish sooner than the client's RTT to the leader
    plus the leader's largest RTT to a responder (the commit waits for every
    responder); every node is a responder here."""
    rtt = GEO_RTT_MS
    to_leader = GEO_CLIENT_LOCAL_RTT_MS if site == GEO_LEADER else rtt[site][GEO_LEADER]
    cover = max(rtt[GEO_LEADER][r] for r in range(len(rtt)) if r != GEO_LEADER)
    return round((to_leader + cover) * 1000)


def geo_read_floor_us() -> int:
    return round(GEO_CLIENT_LOCAL_RTT_MS * 1000)


def live_key(i: int) -> bytes:
    return b"k%04d" % i


def live_value(cid: str, n: int) -> bytes:
    """A unique 64-byte value: client id and op number, padded."""
    return (f"{cid}.{n}.".encode() + b"x" * LIVE_VALUE_LEN)[:LIVE_VALUE_LEN]
