"""Shared scenario builders for integration and acceptance tests."""
from __future__ import annotations

import json
import random

from bodega.sim.scenario import Scenario, scenario_from_dict


def op_row(rec) -> str:
    """A simulator `OpRecord` as one JSON line, every field included."""
    return json.dumps(dict(rec.history_row(), site=rec.site, contacted=rec.contacted),
                      sort_keys=True)


def sym(n: int, rtt_ms: float) -> list[list[float]]:
    return [[0 if i == j else rtt_ms for j in range(n)] for i in range(n)]


def random_fault_scenario(seed: int) -> Scenario:
    """5 nodes, 10 clients, 10% writes, up to 2 crashes and 2 partition
    windows, clock drift at the configured bound. Timers are scaled down so a
    full failure/recovery cycle fits a few virtual seconds."""
    rng = random.Random(seed)
    n = 5
    rtt = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rtt[i][j] = rtt[j][i] = rng.choice([10, 16, 24, 30, 40])
    events = []
    for v in rng.sample(range(n), rng.randrange(3)):  # crash at most 2 of 5
        events.append({"at_ms": rng.randrange(400, 2200), "crash": v})
    for _ in range(rng.randrange(3)):  # up to 2 partition windows
        nodes = list(range(n))
        rng.shuffle(nodes)
        cut = rng.randrange(1, n)
        start = rng.randrange(300, 2000)
        events.append({"at_ms": start, "partition": {
            "groups": [sorted(nodes[:cut]), sorted(nodes[cut:])],
            "heal_ms": start + rng.randrange(150, 700)}})
    responders = sorted(rng.sample(range(n), rng.randrange(1, 4)))
    clients = [{"site": rng.randrange(n), "count": 1} for _ in range(10)]
    return scenario_from_dict({
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
    })


GEO_RTT = [
    [0, 38, 62, 18, 98],
    [38, 0, 30, 52, 68],
    [62, 30, 0, 76, 40],
    [18, 52, 76, 0, 112],
    [98, 68, 40, 112, 0],
]


def geo_scenario(write_ratio: float, duration_ms: int = 4000,
                 clients_per_site: int = 1, seed_name: str = "geo") -> Scenario:
    """Five-site wide-area topology with a full-coverage roster and clients
    near every site."""
    return scenario_from_dict({
        "name": f"{seed_name}-w{int(write_ratio * 100)}",
        "nodes": 5,
        "rtt_ms": GEO_RTT,
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": [{"lo": "", "hi": None,
                                       "responders": [0, 1, 2, 3, 4]}]},
        "workload": {"start_ms": 600, "duration_ms": duration_ms, "keys": 50,
                     "write_ratio": write_ratio,
                     "clients": [{"site": s, "count": clients_per_site} for s in range(5)],
                     "op_timeout_ms": 8000},
    })


DROP = object()  # as a value for `with_entry`: remove the entry


def with_entry(d, path: tuple, value):
    """A deep copy of the JSON value `d` with the entry at `path` (object
    keys and list indices) set to `value`, or removed when it is DROP."""
    out = json.loads(json.dumps(d))
    *up, last = path
    parent = out
    for k in up:
        parent = parent[k]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return out


def entry_paths(d, path: tuple = ()) -> list[tuple]:
    """The path of every object entry and list item inside the JSON value `d`."""
    items = d.items() if isinstance(d, dict) else enumerate(d) if isinstance(d, list) else ()
    out = []
    for k, v in items:
        out.append(path + (k,))
        out += entry_paths(v, path + (k,))
    return out


def tuned_geo5() -> Scenario:
    """geo5 with the auto-tuner on, one-second tune windows and no
    responders at first: three clients at site 1 and one at site 2, 2%
    writes, 6 s of load."""
    with open("scenarios/geo5.json", encoding="utf-8") as f:
        d = json.load(f)
    d["config"].update(auto_tune=True, tune_window_ms=1000)
    d["initial_roster"]["ranges"] = [{"lo": "", "hi": None, "responders": []}]
    d["workload"].update(duration_ms=6000, write_ratio=0.02,
                         clients=[{"site": 1, "count": 3}, {"site": 2, "count": 1}])
    return scenario_from_dict(d)
