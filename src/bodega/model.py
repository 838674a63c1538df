"""Core domain types: ballots, rosters, commands, cluster parameters.

Keys and values are opaque byte strings ordered bytewise. All durations and
deadlines are integer microseconds on some node's local clock.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

NodeId = int


class Ballot(NamedTuple):
    """Unique ordering token: (round, proposing node id), compared lexicographically.

    (0, 0) is the initial empty-roster epoch. A tuple type, because ballots
    are compared and hashed on every message: tuple comparison and hashing
    run in C, several times faster than a dataclass's generated methods,
    with the same order, hash and repr.
    """

    round: int
    node: NodeId


ZERO_BALLOT = Ballot(0, 0)


def next_ballot(current: Ballot, proposer: NodeId) -> Ballot:
    """Compose a strictly higher ballot owned by `proposer`."""
    return Ballot(current.round + 1, proposer)


class Command(NamedTuple):
    """A Put or Get, named (client, seq): a client id names one incarnation
    of a client, which runs one op at a time with strictly increasing seqs,
    and a retry keeps its op's seq. A tuple type, as Ballot is: the codec
    writes it as its fields."""

    kind: Literal["put", "get"]
    key: bytes
    value: bytes | None  # puts only
    client: str
    seq: int

    def is_write(self) -> bool:
        return self.kind == "put"


@dataclass(frozen=True, slots=True)
class KeyRange:
    """Half-open key interval [lo, hi); hi=None means unbounded above."""

    lo: bytes
    hi: bytes | None

    def contains(self, key: bytes) -> bool:
        return self.lo <= key and (self.hi is None or key < self.hi)

    def overlaps(self, other: "KeyRange") -> bool:
        lo = max(self.lo, other.lo)
        if self.hi is None:
            return other.hi is None or other.hi > lo
        if other.hi is None:
            return self.hi > lo
        return min(self.hi, other.hi) > lo


@dataclass(frozen=True, slots=True)
class Roster:
    """Leader id plus per-key-range responder assignment.

    Ranges are disjoint and sorted by lo; the empty roster (no leader, no
    ranges) is the state of a fresh cluster.
    """

    leader: NodeId | None = None
    responder_map: tuple[tuple[KeyRange, frozenset[NodeId]], ...] = ()
    # built once from the two fields above: the first key of each stretch
    # of keys that share one answer of `responders_of`, and that answer;
    # of two equal starts, the later one holds
    _lookup: tuple[tuple[bytes, ...], tuple[frozenset[NodeId], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lead = frozenset() if self.leader is None else frozenset((self.leader,))
        starts, sets = [b""], [lead]
        for rng, nodes in self.responder_map:
            starts.append(rng.lo)
            sets.append(nodes | lead)
            if rng.hi is not None:
                starts.append(rng.hi)
                sets.append(lead)
        object.__setattr__(self, "_lookup", (tuple(starts), tuple(sets)))

    def responders_of(self, key: bytes) -> frozenset[NodeId]:
        """All nodes expected to serve reads on `key` locally: the responder
        set of the range holding the key, plus the leader when one is set;
        the empty roster yields the empty set."""
        starts, sets = self._lookup
        return sets[bisect.bisect_right(starts, key) - 1]

    def special_nodes(self) -> frozenset[NodeId]:
        """Nodes holding any role: the leader or a member of any responder set."""
        out: set[NodeId] = set()
        if self.leader is not None:
            out.add(self.leader)
        for _rng, nodes in self.responder_map:
            out |= nodes
        return frozenset(out)

    def without(self, peer: NodeId) -> "Roster":
        """Copy with `peer` unmarked from every responder set (leader untouched)."""
        new_map = tuple(
            (rng, nodes - {peer}) for rng, nodes in self.responder_map
        )
        return Roster(self.leader, new_map)

    def with_leader(self, leader: NodeId) -> "Roster":
        return Roster(leader, self.responder_map)

    def to_wire(self) -> dict:
        return {
            "leader": self.leader,
            "ranges": [
                {
                    "lo": rng.lo.decode("latin-1"),
                    "hi": None if rng.hi is None else rng.hi.decode("latin-1"),
                    "responders": sorted(nodes),
                }
                for rng, nodes in self.responder_map
            ],
        }

    @classmethod
    def from_wire(cls, v) -> "Roster":
        """Inverse of to_wire; raises ValueError on anything else."""
        if type(v) is not dict:
            raise ValueError("roster: not an object")
        leader, rows = v.get("leader"), v.get("ranges", [])
        if (leader is not None and type(leader) is not int) or type(rows) is not list:
            raise ValueError("roster: malformed leader or ranges")
        ranges = []
        for r in rows:
            if type(r) is not dict or "hi" not in r:
                raise ValueError("roster: malformed range")
            lo, hi, nodes = r.get("lo"), r["hi"], r.get("responders")
            if (type(lo) is not str or (hi is not None and type(hi) is not str)
                    or type(nodes) is not list or any(type(x) is not int for x in nodes)):
                raise ValueError("roster: malformed range")
            rng = KeyRange(lo.encode("latin-1"), None if hi is None else hi.encode("latin-1"))
            ranges.append((rng, frozenset(nodes)))
        return cls(leader, tuple(ranges))


EMPTY_ROSTER = Roster()


def full_range_roster(leader: NodeId, responders: set[NodeId] | frozenset[NodeId]) -> Roster:
    """Roster covering the whole keyspace with one responder set."""
    return Roster(leader, ((KeyRange(b"", None), frozenset(responders)),))


@dataclass(frozen=True, slots=True)
class RosterViolation:
    field: str
    reason: str


def validate_roster(roster: Roster, n: int) -> RosterViolation | None:
    """Check roster invariants; returns the first violation found, or None."""
    if roster.leader is not None and not (0 <= roster.leader < n):
        return RosterViolation("leader", f"leader id {roster.leader} not in [0, {n})")
    prev: KeyRange | None = None
    for i, (rng, nodes) in enumerate(roster.responder_map):
        if rng.hi is not None and rng.lo >= rng.hi:
            return RosterViolation(f"ranges[{i}]", "lo must be < hi")
        if prev is not None:
            if rng.lo < prev.lo:
                return RosterViolation(f"ranges[{i}]", "ranges not sorted by lo")
            if prev.overlaps(rng):
                return RosterViolation(f"ranges[{i}]", "overlapping ranges")
        for node in nodes:
            if not (0 <= node < n):
                return RosterViolation(
                    f"ranges[{i}].responders", f"node id {node} not in [0, {n})"
                )
        prev = rng
    return None


@dataclass(slots=True)
class ClusterConfig:
    """Cluster sizing and timer durations (microseconds).

    Requires n odd >= 3 and t_hb_send < t_hb_fail < t_lease. The guard
    phase of a lease lasts t_lease too.
    """

    n: int
    t_lease: int = 2_500_000
    t_delta: int = 100_000
    t_hb_send: int = 120_000
    t_hb_fail: int = 1_200_000
    t_unhold: int = 50_000  # client-side floor; clients scale by observed RTT
    batch_interval: int = 1_000
    hb_fail_jitter: float = 0.25  # per-peer randomization of t_hb_fail
    snapshot_every: int = 0  # executed slots per snapshot; 0 disables
    early_accept_notes: bool = True
    tune_window: int = 5_000_000
    auto_tune: bool = False
    majority: int = field(init=False, repr=False, compare=False)  # (n + 1) // 2

    def __post_init__(self) -> None:
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError(f"n must be odd and >= 3, got {self.n}")
        if not (self.t_hb_send < self.t_hb_fail < self.t_lease):
            raise ValueError(
                "timer rule violated: need t_hb_send < t_hb_fail < t_lease"
            )
        self.majority = (self.n + 1) // 2


class SettingError(ValueError):
    """A settings file failed validation. `key` names the offending entry
    as a path from the root, such as "workload.clients[2].site"."""

    def __init__(self, key: str, reason: str) -> None:
        self.key = key
        self.reason = reason
        super().__init__(f"{key or '<root>'}: {reason}")


def _rejected(key: str, e: Exception) -> SettingError:
    """A converter's rejection `e` of the value at `key`: a TypeError or a
    ValueError, or a SettingError naming a path within the value."""
    if not isinstance(e, SettingError):
        return SettingError(key, str(e))
    return SettingError(key + (e.key if e.key[:1] in ("", "[") else "." + e.key), e.reason)


def convert(key: str, conv, *args):
    """conv(*args), a rejection raised as a SettingError under `key`."""
    try:
        return conv(*args)
    except (TypeError, ValueError, OverflowError) as e:
        raise _rejected(key, e) from None


def read_settings(d, table: dict) -> dict:
    """{field: conv(value)} for each entry of the JSON object `d`, where
    `table` maps each key a file may give to (field, conv): the one path
    from a settings file's keys to typed values. Raises SettingError naming
    an unknown or rejected key, or the root when `d` is not an object."""
    if type(d) is not dict:
        raise SettingError("", "must be a JSON object")
    kw = {}
    for k, v in d.items():
        if k not in table:
            raise SettingError(k, "unknown setting")
        name, conv = table[k]
        try:
            kw[name] = conv(v)
        except (TypeError, ValueError, OverflowError) as e:
            raise _rejected(k, e) from None
    return kw


def section(table: dict):
    """Converter of a nested JSON object whose keys `table` lists."""
    return lambda v: read_settings(v, table)


def listed(conv):
    """Converter of a JSON list whose items `conv` converts."""
    def read(v) -> list:
        if type(v) is not list:
            raise ValueError("must be a list")
        out = []
        for i, x in enumerate(v):
            try:
                out.append(conv(x))
            except (TypeError, ValueError, OverflowError) as e:
                raise _rejected(f"[{i}]", e) from None
        return out
    return read


def ms_to_us(v) -> int:
    """A duration in milliseconds, a non-negative number, as microseconds."""
    if type(v) is int and v >= 0:
        return v * 1000
    if type(v) is float and v >= 0:  # NaN fails the test
        return int(round(v * 1000))
    raise ValueError("must be a non-negative number")


def number(lo: float, hi: float):
    """Converter of a number in [lo, hi]."""
    def read(v):
        if type(v) not in (int, float) or not lo <= v <= hi:
            raise ValueError(f"must be a number in [{lo}, {hi}]")
        return v
    return read


def flag(v) -> bool:
    if type(v) is not bool:
        raise ValueError("must be true or false")
    return v


def count(v) -> int:
    if type(v) is not int or v < 0:
        raise ValueError("must be a non-negative integer")
    return v


def fraction(v) -> float:
    if type(v) not in (int, float) or not 0 <= v < 1:
        raise ValueError("must be a number in [0, 1)")
    return v


# A cluster's settings as scenario files and node configs spell them:
# key -> (ClusterConfig field, conversion). Durations are milliseconds there.
# `guard_ms` is accepted for older files and must equal the lease.
CLUSTER_KEYS = {
    "hb_send_ms": ("t_hb_send", ms_to_us),
    "hb_fail_ms": ("t_hb_fail", ms_to_us),
    "lease_ms": ("t_lease", ms_to_us),
    "delta_ms": ("t_delta", ms_to_us),
    "batch_ms": ("batch_interval", ms_to_us),
    "unhold_floor_ms": ("t_unhold", ms_to_us),
    "tune_window_ms": ("tune_window", ms_to_us),
    "hb_fail_jitter": ("hb_fail_jitter", fraction),
    "snapshot_every": ("snapshot_every", count),
    "auto_tune": ("auto_tune", flag),
    "early_notes": ("early_accept_notes", flag),
    "guard_ms": ("guard", ms_to_us),
}


def cluster_config_from_dict(n: int, d: dict) -> ClusterConfig:
    """ClusterConfig from the keys of CLUSTER_KEYS. Raises SettingError
    naming an unknown, ill-typed or inconsistent key, and ValueError when
    the timers break ClusterConfig's rules."""
    kw = read_settings(d, CLUSTER_KEYS)
    guard = kw.pop("guard", None)
    cfg = ClusterConfig(n=n, **kw)
    if guard is not None and guard != cfg.t_lease:
        raise SettingError("guard_ms", "must equal lease_ms")
    return cfg
