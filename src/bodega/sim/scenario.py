"""Scenario files: topology, cluster timers, workload, and scripted events.

A scenario is plain JSON. Times are milliseconds in the file and integer
microseconds everywhere else.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..model import (
    ClusterConfig, Roster, SettingError, cluster_config_from_dict, convert, count, fraction, listed,
    ms_to_us, read_settings, section, validate_roster,
)
from ..workload import Workload, workload_from_dict


class ScenarioError(ValueError):
    """Validation failure; names the offending field."""

    def __init__(self, field_name: str, reason: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {reason}")


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


def _text(v) -> str:
    if type(v) is not str:
        raise ValueError("must be a string")
    return v


def _bytes(v) -> bytes:
    return _text(v).encode("latin-1")


def _roster_of(table: dict):
    """Converter of an object that holds a roster's `leader` and `ranges`
    beside the keys of `table`; the roster is read into field "roster"."""
    table = dict(table, leader=("leader", lambda v: v), ranges=("ranges", lambda v: v))

    def read(v) -> dict:
        kw = read_settings(v, table)
        kw["roster"] = Roster.from_wire(kw)
        kw.pop("leader", None)
        kw.pop("ranges", None)
        return kw
    return read


_initial_roster = _roster_of({"announcer": ("initial_announcer", count),
                              "at_ms": ("initial_at", ms_to_us)})
_OP_KEYS = {"key": ("key", _bytes), "value": ("value", _bytes), "site": ("site", count),
            "after": ("after", _text), "id": ("op_id", _text)}
_EVENT_KEYS = {
    "at_ms": ("at", ms_to_us),
    "crash": ("crash", count),
    "partition": ("partition", section({"groups": ("groups", listed(listed(count))),
                                        "heal_ms": ("heal_at", ms_to_us)})),
    "roster_set": ("roster_set", _roster_of({"to_node": ("node", count)})),
    "write": ("write", section(_OP_KEYS)),
    "read": ("read", section(_OP_KEYS)),
}
# A scenario file's keys -> (Scenario field, conversion); _scenario checks
# what depends on the node count.
_SCENARIO_KEYS = {
    "name": ("name", _text),
    "nodes": ("n", count),
    "rtt_ms": ("rtt_us", listed(listed(ms_to_us))),
    "config": ("config", lambda v: v),
    "jitter_ms": ("jitter_us", ms_to_us),
    "drop_prob": ("drop_prob", fraction),
    "client_local_rtt_ms": ("client_local_rtt_us", ms_to_us),
    "drift": ("drift", section({"delta_ms": ("drift_delta_us", ms_to_us),
                                "window_ms": ("drift_window_us", ms_to_us)})),
    "initial_roster": ("initial", lambda v: None if v is None else _initial_roster(v)),
    "workload": ("workload", lambda v: v),
    "events": ("script", listed(section(_EVENT_KEYS))),
}


def scenario_from_dict(d: dict) -> Scenario:
    """Scenario from a scenario file's JSON. Raises ScenarioError naming
    the key path of an unknown, missing, ill-typed or out-of-range entry."""
    try:
        return _scenario(d)
    except SettingError as e:
        raise ScenarioError(e.key or "<root>", e.reason) from None


def _node_id(node: int, n: int, key: str) -> int:
    if node >= n:
        raise SettingError(key, "node id out of range")
    return node


def _valid_roster(roster: Roster, n: int, key: str) -> Roster:
    bad = validate_roster(roster, n)
    if bad is not None:
        raise SettingError(f"{key}.{bad.field}", bad.reason)
    return roster


def _scenario(d: dict) -> Scenario:
    kw = read_settings(d, _SCENARIO_KEYS)
    n = kw.get("n", 0)
    if n < 3 or n % 2 == 0:
        raise SettingError("nodes", "odd integer >= 3 required")
    rtt = kw.get("rtt_us", ())
    if len(rtt) != n or any(len(row) != n for row in rtt):
        raise SettingError("rtt_ms", f"{n}x{n} matrix required")
    if rtt != [list(col) for col in zip(*rtt)]:
        raise SettingError("rtt_ms", "matrix must be symmetric")
    kw["config"] = convert("config", cluster_config_from_dict, n, kw.get("config", {}))
    kw.update(kw.pop("drift", ()))
    if kw.get("drift_window_us") == 0:
        raise SettingError("drift.window_ms", "must be positive")
    if (init := kw.pop("initial", None)) is not None:
        kw["initial_roster"] = _valid_roster(init.pop("roster"), n, "initial_roster")
        kw.update(init)
        _node_id(kw.get("initial_announcer", 0), n, "initial_roster.announcer")
    kw["workload"] = convert("workload", workload_from_dict, kw.get("workload", {}), n)
    script = []
    for i, ev in enumerate(kw.pop("script", ())):
        at = ev.pop("at", 0)
        if len(ev) != 1:
            raise SettingError(f"events[{i}]", "needs one of crash, partition, roster_set, "
                                               "write, read")
        ((kind, body),) = ev.items()
        key = f"events[{i}].{kind}"
        if kind == "crash":
            script.append(ScriptEvent(at, kind, node=_node_id(body, n, key)))
        elif kind == "partition":
            groups = tuple(tuple(g) for g in body.get("groups", ()))
            if sorted(x for g in groups for x in g) != list(range(n)):
                raise SettingError(f"{key}.groups", "groups must partition all node ids")
            script.append(ScriptEvent(at, kind, groups=groups, heal_at=body.get("heal_at", 0)))
        elif kind == "roster_set":
            body["node"] = _node_id(body.get("node", 0), n, f"{key}.to_node")
            _valid_roster(body["roster"], n, key)
            script.append(ScriptEvent(at, kind, **body))
        else:
            if "key" not in body:
                raise SettingError(f"{key}.key", "required")
            body["site"] = _node_id(body.get("site", 0), n, f"{key}.site")
            body.setdefault("op_id", f"script{i}")
            script.append(ScriptEvent(at, kind, **body))
    script.sort(key=lambda e: e.at)
    kw.setdefault("name", "scenario")
    return Scenario(script=script, **kw)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except ValueError as e:  # not UTF-8, or not JSON
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
