"""Scenario files: topology, cluster timers, workload, and scripted events.

A scenario is plain JSON. Times are milliseconds in the file and integer
microseconds everywhere else.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..model import ClusterConfig, Roster, SettingError, cluster_config_from_dict
from ..workload import parse_distribution_mode


class ScenarioError(ValueError):
    """Validation failure; names the offending field."""

    def __init__(self, field_name: str, reason: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {reason}")


def _us(ms: float) -> int:
    return int(round(ms * 1000))


@dataclass(slots=True)
class ClientGroup:
    site: int
    count: int


@dataclass(slots=True)
class Workload:
    start: int = 500_000
    duration: int = 3_000_000
    keys: int = 100
    key_len: int = 8
    value_len: int = 16
    write_ratio: float = 0.1
    clients: list[ClientGroup] = field(default_factory=list)
    open_rate_per_s: float = 0.0  # 0 = closed loop
    zipf_theta: float = 0.0  # 0 = uniform
    think: int = 0
    op_timeout: int = 30_000_000


@dataclass(slots=True)
class ScriptEvent:
    at: int
    kind: str  # "crash" | "partition" | "roster_set" | "write" | "read"
    node: int = -1
    groups: tuple[tuple[int, ...], ...] = ()
    heal_at: int = 0
    roster: Roster | None = None
    key: bytes = b""
    value: bytes = b""
    site: int = -1
    after: str = ""  # op id this one waits for (scripted causality)
    op_id: str = ""


@dataclass(slots=True)
class Scenario:
    name: str
    n: int
    rtt_us: list[list[int]]  # symmetric per-pair RTT, microseconds
    config: ClusterConfig
    jitter_us: int = 0
    drop_prob: float = 0.0
    client_local_rtt_us: int = 500
    drift_delta_us: int = 100_000
    drift_window_us: int = 2_500_000
    initial_roster: Roster | None = None
    initial_announcer: int = 0
    initial_at: int = 10_000
    workload: Workload = field(default_factory=Workload)
    script: list[ScriptEvent] = field(default_factory=list)

    def one_way_us(self, a: int, b: int) -> int:
        if a == b:
            return max(1, self.client_local_rtt_us // 2)
        return self.rtt_us[a][b] // 2

    def drift_rate_bound(self) -> float:
        # two clocks drifting apart symmetrically stay within delta over the
        # window iff each rate magnitude is at most delta / (2 * window)
        return self.drift_delta_us / (2.0 * self.drift_window_us)


def _require(cond: bool, field_name: str, reason: str) -> None:
    if not cond:
        raise ScenarioError(field_name, reason)


def _roster(v, field_name: str) -> Roster:
    try:
        return Roster.from_wire(v)
    except ValueError as e:
        raise ScenarioError(field_name, str(e)) from None


def scenario_from_dict(d: dict) -> Scenario:
    _require(isinstance(d, dict), "<root>", "scenario must be a JSON object")
    n = d.get("nodes")
    _require(isinstance(n, int) and n >= 3 and n % 2 == 1, "nodes", "odd integer >= 3 required")
    rtt = d.get("rtt_ms")
    _require(isinstance(rtt, list) and len(rtt) == n, "rtt_ms", f"{n}x{n} matrix required")
    rtt_us = []
    for i, row in enumerate(rtt):
        _require(isinstance(row, list) and len(row) == n, f"rtt_ms[{i}]", f"{n} entries required")
        rtt_us.append([_us(x) for x in row])
    for i in range(n):
        for j in range(n):
            _require(rtt_us[i][j] == rtt_us[j][i], "rtt_ms", "matrix must be symmetric")
            _require(rtt_us[i][j] >= 0, "rtt_ms", "delays must be non-negative")

    drop_prob = float(d.get("drop_prob", 0.0))
    _require(0.0 <= drop_prob < 1.0, "drop_prob", "must be in [0, 1)")
    try:
        cfg = cluster_config_from_dict(n, d.get("config", {}))
    except SettingError as e:
        raise ScenarioError(f"config.{e.key}", e.reason) from None
    except ValueError as e:
        raise ScenarioError("config", str(e)) from None
    drift = d.get("drift", {})
    sc = Scenario(
        name=str(d.get("name", "scenario")),
        n=n,
        rtt_us=rtt_us,
        config=cfg,
        jitter_us=_us(d.get("jitter_ms", 0.0)),
        drop_prob=drop_prob,
        client_local_rtt_us=_us(d.get("client_local_rtt_ms", 0.5)),
        drift_delta_us=_us(drift.get("delta_ms", 100)),
        drift_window_us=_us(drift.get("window_ms", 2500)),
    )

    init = d.get("initial_roster")
    if init is not None:
        sc.initial_roster = _roster(init, "initial_roster")
        sc.initial_announcer = int(init.get("announcer", 0))
        sc.initial_at = _us(init.get("at_ms", 10))
        _require(0 <= sc.initial_announcer < n, "initial_roster.announcer", "node id out of range")

    w = d.get("workload")
    if w is not None:
        groups = []
        for i, g in enumerate(w.get("clients", [])):
            _require(0 <= int(g["site"]) < n, f"workload.clients[{i}].site", "node id out of range")
            groups.append(ClientGroup(int(g["site"]), int(g.get("count", 1))))
        wr = float(w.get("write_ratio", 0.1))
        _require(0.0 <= wr <= 1.0, "workload.write_ratio", "must be in [0, 1]")
        try:
            theta, rate = parse_distribution_mode(w)
        except SettingError as e:
            raise ScenarioError(f"workload.{e.key}", e.reason) from None
        sc.workload = Workload(
            start=_us(w.get("start_ms", 500)),
            duration=_us(w.get("duration_ms", 3000)),
            keys=int(w.get("keys", 100)),
            key_len=int(w.get("key_len", 8)),
            value_len=int(w.get("value_len", 16)),
            write_ratio=wr,
            clients=groups,
            open_rate_per_s=rate,
            zipf_theta=theta,
            think=_us(w.get("think_ms", 0)),
            op_timeout=_us(w.get("op_timeout_ms", 30000)),
        )

    for i, ev in enumerate(d.get("events", [])):
        at = _us(ev.get("at_ms", 0))
        if "crash" in ev:
            node = int(ev["crash"])
            _require(0 <= node < n, f"events[{i}].crash", "node id out of range")
            sc.script.append(ScriptEvent(at, "crash", node=node))
        elif "partition" in ev:
            p = ev["partition"]
            groups = tuple(tuple(int(x) for x in g) for g in p["groups"])
            flat = [x for g in groups for x in g]
            _require(sorted(flat) == list(range(n)), f"events[{i}].partition.groups",
                     "groups must partition all node ids")
            sc.script.append(ScriptEvent(
                at, "partition", groups=groups, heal_at=_us(p.get("heal_ms", 0))))
        elif "roster_set" in ev:
            r = ev["roster_set"]
            node = int(r.get("to_node", 0))
            _require(0 <= node < n, f"events[{i}].roster_set.to_node", "node id out of range")
            sc.script.append(ScriptEvent(
                at, "roster_set", node=node, roster=_roster(r, f"events[{i}].roster_set")))
        elif "write" in ev or "read" in ev:
            body = ev.get("write") or ev.get("read")
            kind = "write" if "write" in ev else "read"
            sc.script.append(ScriptEvent(
                at, kind,
                key=str(body["key"]).encode("latin-1"),
                value=str(body.get("value", "")).encode("latin-1"),
                site=int(body.get("site", 0)),
                after=str(body.get("after", "")),
                op_id=str(body.get("id", f"script{i}")),
            ))
        else:
            raise ScenarioError(f"events[{i}]", "unknown event type")
    sc.script.sort(key=lambda e: e.at)
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ScenarioError("<file>", f"invalid JSON: {e}") from None
    return scenario_from_dict(d)


# ------------------------------------------------------- latency expectations

@dataclass(frozen=True, slots=True)
class LatencyExpectation:
    """Round-trip budgets implied by a topology, from one client site's view."""

    l: int  # client <-> leader RTT
    c: int  # client <-> nearest server RTT
    m_t: int  # majority quorum formed from the leader
    M_t: int  # supermajority quorum
    N_t: int  # all-node quorum


def latency_expectation(sc: Scenario, client_site: int, leader: int) -> LatencyExpectation:
    def rtt(a: int, b: int) -> int:
        return sc.client_local_rtt_us if a == b else sc.rtt_us[a][b]

    l = rtt(client_site, leader)
    c = min(rtt(client_site, p) for p in range(sc.n))
    m = (sc.n + 1) // 2
    super_m = sc.n - (sc.n - 1) // 4  # e.g. 4 of 5
    from_leader = sorted(0 if p == leader else sc.rtt_us[leader][p] for p in range(sc.n))
    return LatencyExpectation(
        l=l,
        c=c,
        m_t=from_leader[m - 1],
        M_t=from_leader[super_m - 1],
        N_t=from_leader[sc.n - 1],
    )
