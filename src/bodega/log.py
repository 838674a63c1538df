"""Replicated log: slot bookkeeping, in-order execution, and snapshots.

Slots are 1-based and contiguous. Status moves monotonically
Empty -> Accepted -> Committed -> Executed. A per-key index tracks which slots
wrote each key so reads can find the highest interfering write quickly.
Write dedup is a session table, client -> highest seq executed (see
`Command`); a per-client index of the (seq, slot) pairs in unexecuted slots
finds a logged retry (`has_request`) and a put a later seq may overtake.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import IntEnum

from .model import Ballot, Command, NodeId


class SlotStatus(IntEnum):
    EMPTY = 0
    ACCEPTED = 2
    COMMITTED = 3
    EXECUTED = 4


@dataclass(slots=True)
class LogSlot:
    index: int
    bal: Ballot
    batch: tuple[Command, ...]
    status: SlotStatus = SlotStatus.ACCEPTED
    accept_replies: set[NodeId] = field(default_factory=set)
    accept_notes: set[NodeId] = field(default_factory=set)
    # held local reads: (the get, want_roster)
    pending_reads: list[tuple[Command, bool]] = field(default_factory=list)
    keys: tuple[bytes, ...] = field(init=False)  # distinct keys the batch writes

    def __post_init__(self) -> None:
        self.keys = _written_keys(self.batch)

    def value_of(self, key: bytes) -> bytes | None:
        """Last value written to `key` within this batch, if any."""
        val: bytes | None = None
        found = False
        for cmd in self.batch:
            if cmd.is_write() and cmd.key == key:
                val = cmd.value
                found = True
        return val if found else None


def _written_keys(batch: tuple[Command, ...]) -> tuple[bytes, ...]:
    return tuple(dict.fromkeys(cmd.key for cmd in batch if cmd.is_write()))


@dataclass(slots=True)
class ConsensusLog:
    slots: dict[int, LogSlot] = field(default_factory=dict)
    commit_prefix: int = 0  # all slots <= this are committed
    exec_prefix: int = 0  # all slots <= this are executed
    highest_accepted: int = 0  # highest slot index ever accepted
    kv: dict[bytes, bytes] = field(default_factory=dict)
    key_index: dict[bytes, list[int]] = field(default_factory=dict)
    # client -> (seq, slot index) of each of its commands in an unexecuted slot
    rid_index: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    sessions: dict[str, int] = field(default_factory=dict)  # client -> highest seq executed
    # snapshot of everything executed up to snap_upto; slots <= snap_upto are gone
    snap_upto: int = 0
    snap_kv: dict[bytes, bytes] = field(default_factory=dict)
    # the session table as it stood at snap_upto, as a snapshot catch-up ships it
    snap_sessions: dict[str, int] = field(default_factory=dict)

    # ----------------------------------------------------------- acceptance

    def record_accept(self, slot: int, bal: Ballot, batch: tuple[Command, ...]) -> LogSlot | None:
        """Store an accepted batch; returns the slot, or None when the slot is
        already committed (committed content is never overwritten)."""
        s = self.slots.get(slot)
        if s is not None and s.status >= SlotStatus.COMMITTED:
            return None
        if s is not None:
            self._unindex(s)
            s.bal = bal
            s.batch = batch
            s.keys = _written_keys(batch)
            s.status = SlotStatus.ACCEPTED
            s.accept_replies = set()
            s.accept_notes = set()
        else:
            s = LogSlot(slot, bal, batch)
            self.slots[slot] = s
        self._index(s)
        if slot > self.highest_accepted:
            self.highest_accepted = slot
        return s

    def _index(self, s: LogSlot) -> None:
        for cmd in s.batch:
            self.rid_index.setdefault(cmd.client, []).append((cmd.seq, s.index))
        for key in s.keys:
            bisect.insort(self.key_index.setdefault(key, []), s.index)

    def _unindex(self, s: LogSlot) -> None:
        if s.status < SlotStatus.EXECUTED:
            self._unindex_requests(s)
        for key in s.keys:
            lst = self.key_index.get(key)
            if lst is not None:
                i = bisect.bisect_left(lst, s.index)
                if i < len(lst) and lst[i] == s.index:
                    del lst[i]
                    if not lst:
                        del self.key_index[key]

    def _unindex_requests(self, s: LogSlot) -> None:
        for cmd in s.batch:
            where = self.rid_index[cmd.client]
            where.remove((cmd.seq, s.index))
            if not where:
                del self.rid_index[cmd.client]

    def applied(self, cmd: Command) -> bool:
        """True when `cmd`'s client has had this seq or a later one executed."""
        return cmd.seq <= self.sessions.get(cmd.client, 0)

    def has_request(self, cmd: Command) -> bool:
        """True when `cmd` was already applied or sits in some logged slot;
        proposing it again would only add a no-op duplicate."""
        return self.applied(cmd) or any(q == cmd.seq for q, _ in self.rid_index.get(cmd.client, ()))

    def may_be_deduped(self, s: LogSlot, key: bytes) -> bool:
        """True when execution may skip a put to `key` in `s`: it is applied,
        or a command of its client with a seq at or above its own sits in
        another slot or ahead of it in this batch. Until `s` executes, its
        batch then does not settle the key's value."""
        for i, cmd in enumerate(s.batch):
            if cmd.is_write() and cmd.key == key and (
                    self.applied(cmd)
                    or any(q >= cmd.seq and idx != s.index
                           for q, idx in self.rid_index.get(cmd.client, ()))
                    or any(c.client == cmd.client and c.seq >= cmd.seq for c in s.batch[:i])):
                return True
        return False

    # ----------------------------------------------------------- committing

    def mark_committed(self, slot: int) -> bool:
        """Mark one slot committed; returns True if the status changed."""
        s = self.slots.get(slot)
        if s is None or s.status >= SlotStatus.COMMITTED:
            return False
        s.status = SlotStatus.COMMITTED
        while True:
            nxt = self.slots.get(self.commit_prefix + 1)
            if nxt is None or nxt.status < SlotStatus.COMMITTED:
                break
            self.commit_prefix += 1
        return True

    def execute_next(self) -> tuple[int, list[tuple[Command, bytes | None]]] | None:
        """Execute the next slot if it is committed; None when none is ready.

        Returns the slot index and the commands applied with the value each
        produced (the read result for gets, the stored value for puts).
        A put already `applied` is skipped (a retry logged twice, or a put
        its client has overtaken), so readers must not take a slot's batch
        as its effect while `may_be_deduped` holds for it. A get changes
        nothing and always executes. Each command raises its client's entry.
        """
        if self.exec_prefix >= self.commit_prefix:
            return None
        idx = self.exec_prefix + 1
        s = self.slots[idx]
        results: list[tuple[Command, bytes | None]] = []
        for cmd in s.batch:
            last = self.sessions.get(cmd.client, 0)
            if cmd.is_write():
                if cmd.seq <= last:
                    continue
                self.kv[cmd.key] = cmd.value or b""
                results.append((cmd, cmd.value))
            else:
                results.append((cmd, self.read_value(cmd.key)))
            if cmd.seq > last:
                self.sessions[cmd.client] = cmd.seq
        self._unindex_requests(s)
        s.status = SlotStatus.EXECUTED
        self.exec_prefix = idx
        return idx, results

    def execute_ready(self) -> list[tuple[int, list[tuple[Command, bytes | None]]]]:
        """Execute the contiguous committed prefix in order (see
        `execute_next`); one entry per newly executed slot."""
        return list(iter(self.execute_next, None))

    # ----------------------------------------------------------------- reads

    def read_value(self, key: bytes) -> bytes | None:
        """Value of `key` in the executed state (snapshot-backed)."""
        if key in self.kv:
            return self.kv[key]
        return self.snap_kv.get(key)

    def highest_write_slot(self, key: bytes) -> int:
        """Highest known slot writing `key`; 0 when only the snapshot (or
        nothing) covers it."""
        lst = self.key_index.get(key)
        if lst:
            return lst[-1]
        return 0

    # ------------------------------------------------------------- snapshots

    def take_snapshot(self) -> int:
        """Materialize the executed prefix and truncate the log below it.

        Returns the new truncation point (0 means nothing to snapshot).
        """
        if self.exec_prefix <= self.snap_upto:
            return self.snap_upto
        self.snap_kv = dict(self.snap_kv)
        self.snap_kv.update(self.kv)
        self.kv = {}
        self.snap_upto = self.exec_prefix
        self.snap_sessions = dict(self.sessions)
        for idx in [i for i in self.slots if i <= self.snap_upto]:
            self._unindex(self.slots[idx])
            del self.slots[idx]
        return self.snap_upto

    def install_snapshot(self, upto: int, kv: dict[bytes, bytes], table: dict[str, int]) -> None:
        """Adopt a peer's snapshot that is ahead of our executed state; its
        session `table` merges into ours by max."""
        if upto <= self.exec_prefix:
            return
        self.snap_kv = dict(kv)
        self.kv = {}
        self.snap_upto = upto
        for client, seq in table.items():
            if seq > self.sessions.get(client, 0):
                self.sessions[client] = seq
        self.snap_sessions = dict(self.sessions)
        self.commit_prefix = max(self.commit_prefix, upto)
        self.exec_prefix = upto
        for idx in [i for i in self.slots if i <= upto]:
            self._unindex(self.slots[idx])
            del self.slots[idx]
        self.highest_accepted = max(self.highest_accepted, upto)

    # ------------------------------------------------------------- step-up

    def accepted_tail(self, from_slot: int) -> tuple[tuple[int, Ballot, tuple[Command, ...], bool], ...]:
        """(slot, ballot, batch, committed?) for every known slot >= from_slot."""
        out = []
        for idx in sorted(i for i in self.slots if i >= from_slot):
            s = self.slots[idx]
            out.append((idx, s.bal, s.batch, s.status >= SlotStatus.COMMITTED))
        return tuple(out)
