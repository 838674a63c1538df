"""Roster control: failure detection bookkeeping and the coverage auto-tuner.

The heartbeat/announcement handlers themselves live on the node (they touch
leases, the log, and the roster at once); this module keeps the supporting
state machines pure and separately testable.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .model import Ballot, KeyRange, NodeId, Roster

# thresholds are strict and evaluated in exact integer arithmetic
READ_HEAVY_PCT = 95  # a key is local-read enabled only when > 95% of requests are reads
SITE_SHARE_PCT = 20  # sites with > 20% of the reads become responders


@dataclass(slots=True)
class FailureDetector:
    """Per-peer heartbeat timeouts with fixed per-peer randomization.

    Jitter factors are drawn once at construction so the node core stays a
    pure function of its inputs.
    """

    me: NodeId
    n: int
    t_hb_fail: int
    jitter: float
    seed: int
    factors: dict[NodeId, float] = field(default_factory=dict)
    down: set[NodeId] = field(default_factory=set)

    def __post_init__(self) -> None:
        rng = random.Random((self.seed << 8) ^ self.me)
        for p in range(self.n):
            if p != self.me:
                self.factors[p] = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)

    def timeout_for(self, peer: NodeId) -> int:
        return int(self.t_hb_fail * self.factors[peer])

    def refresh(self, peer: NodeId, now: int) -> int:
        """New deadline for `peer`; also clears any down mark."""
        self.down.discard(peer)
        return now + self.timeout_for(peer)

    def expire(self, peer: NodeId) -> bool:
        """Returns True if the peer just transitioned to down."""
        if peer in self.down:
            return False
        self.down.add(peer)
        return True

    def healthy(self) -> list[NodeId]:
        return [p for p in range(self.n) if p == self.me or p not in self.down]


@dataclass(slots=True)
class PeerRosterView:
    """Which ballot each peer last advertised, driving full-vs-lightweight
    heartbeats: a peer that already advertises our ballot only needs the
    ballot number."""

    n: int
    advertised: dict[NodeId, Ballot] = field(default_factory=dict)

    def needs_full(self, peer: NodeId, my_bal: Ballot) -> bool:
        return self.advertised.get(peer) != my_bal

    def saw(self, peer: NodeId, bal: Ballot) -> None:
        prev = self.advertised.get(peer)
        if prev is None or bal > prev:
            self.advertised[peer] = bal


@dataclass(slots=True)
class KeyStats:
    """Per-key read/write counters grouped by the clients' preferred server."""

    # key -> site -> [reads, writes]
    counts: dict[bytes, dict[int, list[int]]] = field(default_factory=dict)

    def record(self, key: bytes, site: int, is_write: bool) -> None:
        per_site = self.counts.setdefault(key, {})
        cell = per_site.setdefault(site, [0, 0])
        cell[1 if is_write else 0] += 1

    def rows(self) -> tuple[tuple[bytes, int, int, int], ...]:
        out = []
        for key in sorted(self.counts):
            for site in sorted(self.counts[key]):
                r, w = self.counts[key][site]
                out.append((key, site, r, w))
        return tuple(out)

    def merge_rows(self, rows) -> None:
        for key, site, r, w in rows:
            cell = self.counts.setdefault(key, {}).setdefault(site, [0, 0])
            cell[0] += r
            cell[1] += w

    def reset(self) -> None:
        self.counts.clear()


def responder_choice(stats_for_key: dict[int, list[int]]) -> frozenset[NodeId] | None:
    """Responder set for one key: sites with > 20% of the reads, but only when
    > 95% of the key's requests are reads. None means leave the key uncovered."""
    reads = sum(c[0] for c in stats_for_key.values())
    writes = sum(c[1] for c in stats_for_key.values())
    total = reads + writes
    if total == 0 or reads * 100 <= READ_HEAVY_PCT * total:
        return None
    picked = frozenset(
        site for site, c in stats_for_key.items() if c[0] * 100 > SITE_SHARE_PCT * reads
    )
    return picked if picked else None


def auto_tune_proposal(stats: KeyStats, current: Roster) -> Roster | None:
    """Roster proposal from one tuning window, or None when nothing changes.

    Keys adjacent in the observed key set with identical responder choices
    coalesce into one range; a range closes at the next observed key with a
    different choice (or at the last key's immediate successor).
    """
    if current.leader is None or not stats.counts:
        return None  # no traffic observed: no evidence to act on
    keys = sorted(stats.counts)
    pos = {k: i for i, k in enumerate(keys)}
    decisions = [(k, responder_choice(stats.counts[k])) for k in keys]
    decisions = [(k, s) for k, s in decisions if s is not None]
    ranges: list[tuple[KeyRange, frozenset[NodeId]]] = []
    i = 0
    while i < len(decisions):
        lo_key, picked = decisions[i]
        j = i
        while (
            j + 1 < len(decisions)
            and decisions[j + 1][1] == picked
            and pos[decisions[j + 1][0]] == pos[decisions[j][0]] + 1
        ):
            j += 1
        last_pos = pos[decisions[j][0]]
        hi = keys[last_pos + 1] if last_pos + 1 < len(keys) else decisions[j][0] + b"\x00"
        ranges.append((KeyRange(lo_key, hi), picked))
        i = j + 1
    proposal = Roster(current.leader, tuple(ranges))
    if proposal.responder_map == current.responder_map:
        return None
    return proposal
