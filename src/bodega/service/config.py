"""Node and workload configuration files for the networked deployment."""
from __future__ import annotations

import json
from dataclasses import dataclass

from ..model import (
    ClusterConfig, Roster, SettingError, cluster_config_from_dict, convert, count, flag, listed,
    read_settings, validate_roster,
)
from ..workload import Workload, workload_from_dict


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


def _address(v) -> str:
    if type(v) is not str:
        raise ValueError("must be a host:port string")
    PeerAddr.parse(v)
    return v


_PEER_KEYS = {"peer": ("peer", _address), "client": ("client", _address)}


def _peer(v) -> PeerAddr:
    kw = read_settings(v, _PEER_KEYS)
    if len(kw) != 2:
        raise ValueError("needs 'peer' and 'client' addresses")
    return PeerAddr(**kw)


# A node config file's keys -> (NodeConfig field, conversion); `timers`
# takes the keys of model.CLUSTER_KEYS.
_NODE_KEYS = {
    "id": ("node_id", count),
    "peers": ("peers", listed(_peer)),
    "timers": ("cluster", lambda v: v),
    "seed": ("seed", count),
    "initial_roster": ("initial_roster", lambda v: None if v is None else Roster.from_wire(v)),
    "announce": ("announce", flag),
    "record_events": ("record_events", flag),
}


def node_config_from_dict(d: dict) -> NodeConfig:
    """NodeConfig from a node config file's JSON. Raises ConfigError naming
    the key path of the first unknown, missing or ill-typed entry."""
    try:
        kw = read_settings(d, _NODE_KEYS)
        peers = kw.get("peers")
        if peers is None or len(peers) < 3 or len(peers) % 2 == 0:
            raise SettingError("peers", "must list an odd number (>= 3) of nodes, index = node id")
        n = len(peers)
        if kw.get("node_id", n) >= n:
            raise SettingError("id", f"required, in [0, {n})")
        kw["cluster"] = convert("timers", cluster_config_from_dict, n, kw.get("cluster", {}))
        bad = kw.get("initial_roster") and validate_roster(kw["initial_roster"], n)
        if bad:
            raise SettingError(f"initial_roster.{bad.field}", bad.reason)
    except SettingError as e:
        raise ConfigError(str(e)) from None
    return NodeConfig(**kw)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # not UTF-8, or not JSON
            raise ConfigError(f"invalid JSON in {path}: {e}") from None


def load_node_config(path: str) -> NodeConfig:
    return node_config_from_dict(_load(path))


def _client_address(v) -> str:
    return _peer(v).client if type(v) is dict else _address(v)


def load_cluster(path: str) -> list[str]:
    """The bench's cluster file: each node's client host:port by node id, or
    the `peers` list of a node config."""
    try:
        return convert("", listed(_client_address), _load(path))
    except SettingError as e:
        raise ConfigError(str(e)) from None


def load_workload(path: str, n: int) -> Workload:
    """The bench's workload file, for a cluster of `n` nodes; it takes the
    keys of a scenario's `workload` (bodega.workload.WORKLOAD_KEYS)."""
    try:
        return workload_from_dict(_load(path), n)
    except SettingError as e:
        raise ConfigError(str(e)) from None
