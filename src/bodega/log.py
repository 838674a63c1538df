"""Replicated log: slot bookkeeping, in-order execution, and snapshots.

Slots are 1-based and contiguous. Status moves monotonically
Empty -> Accepted -> Committed -> Executed. A per-key index tracks which slots
wrote each key so reads can find the highest interfering write quickly, and a
per-request-id index tracks which slots carry each request, so a retried
request is never proposed twice and a duplicate that execution will skip is
recognised without scanning the log.
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
    # held local reads: (key, client, request_id, want_roster)
    pending_reads: list[tuple[bytes, str, str, bool]] = field(default_factory=list)
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
    # request id -> indices of the logged slots carrying it
    rid_index: dict[str, list[int]] = field(default_factory=dict)
    applied_ids: set[str] = field(default_factory=set)  # write dedup at execution
    # snapshot of everything executed up to snap_upto; slots <= snap_upto are gone
    snap_upto: int = 0
    snap_kv: dict[bytes, bytes] = field(default_factory=dict)
    # the request ids applied up to snap_upto, as a snapshot catch-up ships them
    snap_applied: frozenset[str] = frozenset()

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
            if cmd.request_id:
                self.rid_index.setdefault(cmd.request_id, []).append(s.index)
        for key in s.keys:
            bisect.insort(self.key_index.setdefault(key, []), s.index)

    def _unindex(self, s: LogSlot) -> None:
        for cmd in s.batch:
            if cmd.request_id:
                where = self.rid_index.get(cmd.request_id)
                if where is not None:
                    where.remove(s.index)
                    if not where:
                        del self.rid_index[cmd.request_id]
        for key in s.keys:
            lst = self.key_index.get(key)
            if lst is not None:
                i = bisect.bisect_left(lst, s.index)
                if i < len(lst) and lst[i] == s.index:
                    del lst[i]

    def has_request(self, rid: str) -> bool:
        """True when `rid` was already applied or sits in some logged slot;
        proposing it again would only add a no-op duplicate."""
        return rid in self.applied_ids or rid in self.rid_index

    def may_be_deduped(self, s: LogSlot, key: bytes) -> bool:
        """True when a write to `key` in `s` carries a request id that
        execution may skip: one already applied, or one also logged in
        another slot. Until `s` executes, its batch then does not settle the
        key's value."""
        for cmd in s.batch:
            if cmd.is_write() and cmd.key == key and cmd.request_id:
                if cmd.request_id in self.applied_ids:
                    return True
                where = self.rid_index.get(cmd.request_id, ())
                if len(where) > 1 or (where and where[0] != s.index):
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
        Re-deliveries of an already applied request id are skipped: a retried
        request that was logged in two slots takes effect in the first one
        only, and the duplicate is a no-op. Readers must therefore not take a
        slot's batch as its effect while `may_be_deduped` holds for it.
        """
        if self.exec_prefix >= self.commit_prefix:
            return None
        idx = self.exec_prefix + 1
        s = self.slots[idx]
        results: list[tuple[Command, bytes | None]] = []
        for cmd in s.batch:
            if cmd.request_id and cmd.request_id in self.applied_ids:
                continue
            if cmd.request_id:
                self.applied_ids.add(cmd.request_id)
            if cmd.is_write():
                self.kv[cmd.key] = cmd.value or b""
                results.append((cmd, cmd.value))
            else:
                results.append((cmd, self.read_value(cmd.key)))
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
        self.snap_applied = frozenset(self.applied_ids)
        for idx in [i for i in self.slots if i <= self.snap_upto]:
            self._unindex(self.slots[idx])
            del self.slots[idx]
        return self.snap_upto

    def install_snapshot(self, upto: int, kv: dict[bytes, bytes], applied: set[str]) -> None:
        """Adopt a peer's snapshot that is ahead of our executed state."""
        if upto <= self.exec_prefix:
            return
        self.snap_kv = dict(kv)
        self.kv = {}
        self.snap_upto = upto
        self.applied_ids |= applied
        self.snap_applied = frozenset(self.applied_ids)
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
