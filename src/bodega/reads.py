"""Read path: the responder's per-slot read rule, and the client-side
retry/unhold session.

A stable responder anchors a read at the highest slot that writes its key.
One pure rule, `read_at`, decides what that slot lets it serve: a value, or
`HELD` while the slot's fate or visibility is uncertain. The node asks it at
dispatch, and again on each event on the held read's slot (an accept note,
its commit, its execution), so the test that holds a read is the one that
releases it. Client-session outputs are built per op, so they are plain
(unfrozen) slots dataclasses, treated as immutable values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .events import ClientRequest
from .log import ConsensusLog, LogSlot, SlotStatus
from .messages import ClientReadReply, ClientRedirect, ClientUnavailable
from .model import Ballot, Command, NodeId, Roster

HELD = object()  # `read_at`'s answer when the read must wait


def notes_release_slot(s, key: bytes, bal: Ballot, roster: Roster, majority: int) -> bool:
    """Early-release test for an uncommitted slot.

    m notes prove the value is chosen, but serving it is only monotone once
    every node that could anchor a later read below this slot provably has
    it: the key's non-leader responders must all appear among the notes (the
    leader proposed the slot and anchors to it by construction).
    """
    if s.bal != bal or len(s.accept_notes) < majority:
        return False
    need = roster.responders_of(key)
    if roster.leader is not None:
        need = need - {roster.leader}
    return need <= s.accept_notes


def read_at(
    s: LogSlot | None,
    key: bytes,
    log: ConsensusLog,
    bal: Ballot,
    roster: Roster,
    majority: int,
    early_notes: bool,
) -> object:
    """The value a stable responder (the leader included) serves for `key`
    anchored at slot `s`, the highest write to it; `HELD` while it must wait.
    `s` is None when only the snapshot covers the key.

    The value served for the anchor slot is always the value execution
    gives the key at that slot, which skips puts already applied: once the
    anchor has executed that is the executed state; before, the anchor's
    batch stands for it only if none of its writes to the key may be skipped
    (`ConsensusLog.may_be_deduped`), and otherwise the read holds until the
    anchor executes.

    Anchoring the leader at its highest accepted slot (rather than its
    committed prefix) keeps leader reads ordered after any value a responder
    already served early off accept notes.
    """
    if s is None or s.status >= SlotStatus.EXECUTED:
        return log.read_value(key)
    if log.may_be_deduped(s, key):
        return HELD
    if s.status >= SlotStatus.COMMITTED or (
            early_notes and notes_release_slot(s, key, bal, roster, majority)):
        return s.value_of(key)
    return HELD


# --------------------------------------------------------------------------
# client session: one logical op at a time, with redirect-following and the
# unhold reissue. Pure core driven by the host (simulator or socket client).
# --------------------------------------------------------------------------

@dataclass(slots=True)
class ClientSend:
    target: NodeId
    req: ClientRequest


@dataclass(slots=True)
class ClientArm:
    deadline: int


@dataclass(slots=True)
class ClientDone:
    outcome: str  # "ok" | "timeout" | "redirected"
    value: bytes | None


@dataclass(slots=True)
class ClientCache:
    """Roster hint and leader RTT estimate shared by a client's sessions."""

    site: NodeId
    n: int
    unhold_floor: int = 50_000
    roster: Roster | None = None
    bal: Ballot | None = None
    roster_stale: bool = False  # a newer ballot was seen without its roster
    leader_rtt: int = 0  # latest observed leader round trip
    # responders_of(key) under the cached roster -> preference_order(key)
    orders: dict[frozenset[NodeId], list[NodeId]] = field(default_factory=dict)

    def learn(self, bal: Ballot | None, roster: Roster | None) -> None:
        if bal is not None and (self.bal is None or bal > self.bal):
            self.bal = bal
            if roster is not None:
                self._set_roster(roster)
            else:
                self.roster_stale = True
        elif roster is not None and bal == self.bal and self.roster_stale:
            self._set_roster(roster)

    def _set_roster(self, roster: Roster) -> None:
        self.roster = roster
        self.roster_stale = False
        self.orders.clear()

    def wants_roster(self) -> bool:
        return self.roster is None or self.roster_stale

    def preference_order(self, key: bytes) -> list[NodeId]:
        """Own site first, then the key's responders under the cached roster
        (the leader among them), then everyone else. The order depends on
        the key only through its responders, so it is cached per responder
        set. Callers must not mutate it."""
        resp = frozenset() if self.roster is None else self.roster.responders_of(key)
        order = self.orders.get(resp)
        if order is None:
            order = [self.site, *sorted(resp - {self.site})]
            order += [p for p in range(self.n) if p not in order]
            self.orders[resp] = order
        return order

    def write_target(self) -> NodeId:
        if self.roster is not None and self.roster.leader is not None:
            return self.roster.leader
        return self.site

    def unhold_after(self, now: int) -> int:
        return now + max(self.unhold_floor, 2 * self.leader_rtt)


@dataclass(slots=True)
class ClientSession:
    """Retry state for one in-flight operation, `cmd`.

    Reads reissue the same command, seq included, after the unhold
    timeout; writes re-send it to the (possibly redirected) leader. The
    earliest reply wins and later duplicates are ignored.
    """

    cache: ClientCache
    cmd: Command
    started: int
    patience: int = 30_000_000  # give up entirely after this long
    contacted: list[NodeId] = field(default_factory=list)
    redirects: int = 0  # redirects followed since the last timer round
    sent_at: int = 0  # when the latest request went out
    done: bool = False

    def _send(self, target: NodeId, fresh: bool, now: int) -> ClientSend:
        """Contact `target`: the request as the node receives it."""
        self.contacted.append(target)
        self.sent_at = now
        cache = self.cache
        return ClientSend(target, ClientRequest(self.cmd, cache.site, cache.wants_roster(), fresh))

    def begin(self) -> list:
        target = (
            self.cache.write_target()
            if self.cmd.is_write()
            else self.cache.preference_order(self.cmd.key)[0]
        )
        return [self._send(target, True, self.started),
                ClientArm(self.cache.unhold_after(self.started))]

    def _next_target(self) -> NodeId | None:
        for c in self.cache.preference_order(self.cmd.key):
            if c not in self.contacted:
                return c
        return None

    def on_timer(self, now: int) -> list:
        """Unhold/progress timer: reissue the same request.

        Writes prefer the cached leader (the log's session table makes re-sends
        harmless); both kinds rotate through the other nodes when the target
        stays silent, which also rediscovers a moved leader.
        """
        if self.done:
            return []
        if now - self.started >= self.patience:
            self.done = True
            return [ClientDone("timeout", None)]
        nxt: NodeId | None = None
        if self.cmd.is_write():
            t = self.cache.write_target()
            if t not in self.contacted:
                nxt = t
        if nxt is None:
            nxt = self._next_target()
        if nxt is None:
            self.contacted = [self.contacted[-1]]
            nxt = self._next_target()
        self.redirects = 0
        out = []
        if nxt is not None:
            out.append(self._send(nxt, False, now))
        out.append(ClientArm(self.cache.unhold_after(now)))
        return out

    def on_msg(self, msg, now: int) -> list:
        """Feed one message from a node: one of the four replies, which
        carry their request's seq. Anything else, or a reply to another of
        this client's requests, is ignored."""
        if getattr(msg, "seq", None) != self.cmd.seq:
            return []
        t = type(msg)
        if t is ClientUnavailable:
            return []  # retry on the timer
        self.cache.learn(msg.bal, msg.roster)
        if self.done:
            return []
        if t is ClientRedirect:
            if msg.target in self.contacted:
                # wait for the timer rather than hammering the same nodes; a
                # redirect not followed is no step of a redirect chain
                return []
            self.redirects += 1
            if self.redirects > 2 * self.cache.n:
                self.done = True
                return [ClientDone("redirected", None)]
            return [self._send(msg.target, False, now), ClientArm(self.cache.unhold_after(now))]
        self.done = True
        if self.cmd.is_write() and self.cache.roster is not None and self.contacted:
            if self.contacted[-1] == self.cache.roster.leader:
                self.cache.leader_rtt = now - self.sent_at
        return [ClientDone("ok", msg.value if t is ClientReadReply else None)]
