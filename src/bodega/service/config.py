"""Node and workload configuration files for the networked deployment."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..model import ClusterConfig, Roster, SettingError, cluster_config_from_dict, validate_roster
from ..workload import parse_distribution_mode


class ConfigError(ValueError):
    pass


@dataclass(slots=True)
class PeerAddr:
    peer: str  # host:port for node-to-node traffic
    client: str  # host:port for client traffic

    @staticmethod
    def parse(s: str) -> tuple[str, int]:
        host, _, port = s.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"bad address {s!r}, expected host:port")
        return host, int(port)


@dataclass(slots=True)
class NodeConfig:
    node_id: int
    peers: list[PeerAddr]
    cluster: ClusterConfig
    seed: int = 0
    initial_roster: Roster | None = None
    announce: bool = False  # this node announces initial_roster at startup
    record_events: bool = False

    @property
    def n(self) -> int:
        return len(self.peers)


def node_config_from_dict(d: dict) -> NodeConfig:
    try:
        node_id = int(d["id"])
        raw_peers = d["peers"]
    except KeyError as e:
        raise ConfigError(f"missing required field {e.args[0]!r}") from None
    if not isinstance(raw_peers, list) or len(raw_peers) < 3 or len(raw_peers) % 2 == 0:
        raise ConfigError("peers must list an odd number (>= 3) of nodes, index = node id")
    peers = []
    for i, p in enumerate(raw_peers):
        if "peer" not in p or "client" not in p:
            raise ConfigError(f"peers[{i}] needs 'peer' and 'client' addresses")
        PeerAddr.parse(p["peer"])
        PeerAddr.parse(p["client"])
        peers.append(PeerAddr(p["peer"], p["client"]))
    if not (0 <= node_id < len(peers)):
        raise ConfigError(f"id {node_id} out of range for {len(peers)} peers")
    try:
        cluster = cluster_config_from_dict(len(peers), d.get("timers", {}))
    except ValueError as e:
        raise ConfigError(f"timers: {e}") from None
    cfg = NodeConfig(
        node_id=node_id,
        peers=peers,
        cluster=cluster,
        seed=int(d.get("seed", 0)),
        record_events=bool(d.get("record_events", False)),
        announce=bool(d.get("announce", False)),
    )
    if "initial_roster" in d and d["initial_roster"] is not None:
        try:
            ros = Roster.from_wire(d["initial_roster"])
        except ValueError as e:
            raise ConfigError(f"initial_roster: {e}") from None
        bad = validate_roster(ros, cfg.n)
        if bad is not None:
            raise ConfigError(f"initial_roster.{bad.field}: {bad.reason}")
        cfg.initial_roster = ros
    return cfg


def load_node_config(path: str) -> NodeConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from None
    return node_config_from_dict(d)


@dataclass(slots=True)
class WorkloadSpec:
    keys: int = 1000
    key_len: int = 8
    value_len: int = 128
    write_ratio: float = 0.05
    zipf_theta: float = 0.0  # 0 = uniform
    clients: list[tuple[int, int]] = field(default_factory=list)  # (site, count)
    open_rate_per_s: float = 0.0  # 0 = closed loop
    duration_s: float = 10.0
    op_timeout_s: float = 30.0
    unhold_floor_ms: float = 50.0

    def validate(self, n: int) -> None:
        if not (0.0 <= self.write_ratio <= 1.0):
            raise ConfigError("write_ratio must be in [0, 1]")
        for site, _cnt in self.clients:
            if not (0 <= site < n):
                raise ConfigError(f"client site {site} out of range")


def workload_from_dict(d: dict) -> WorkloadSpec:
    try:
        theta, rate = parse_distribution_mode(d)
    except SettingError as e:
        raise ConfigError(str(e)) from None
    clients = [(int(c["site"]), int(c.get("count", 1))) for c in d.get("clients", [])]
    return WorkloadSpec(
        keys=int(d.get("keys", 1000)),
        key_len=int(d.get("key_len", 8)),
        value_len=int(d.get("value_len", 128)),
        write_ratio=float(d.get("write_ratio", 0.05)),
        zipf_theta=theta,
        clients=clients,
        open_rate_per_s=rate,
        duration_s=float(d.get("duration_s", 10.0)),
        op_timeout_s=float(d.get("op_timeout_s", 30.0)),
        unhold_floor_ms=float(d.get("unhold_floor_ms", 50.0)),
    )


def load_workload(path: str) -> WorkloadSpec:
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from None
    return workload_from_dict(d)
