"""The protocol core of one replica.

A Node is a deterministic state machine driven through handle(event, now):
no clocks, sockets, or threads inside. The same core runs under the
discrete-event simulator and the networked daemon.

Broadcasts include the sender; self-addressed sends loop back through the
host's event queue, so self-leases and self-votes take the same code path as
everything else.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .control import FailureDetector, KeyStats, PeerRosterView, auto_tune_proposal
from .events import (
    ArmTimer,
    CancelTimer,
    ClientRequest,
    Deliver,
    Event,
    OperatorRequest,
    Output,
    Reply,
    Send,
    TimerFire,
)
from .leases import LeaseEngine
from .log import ConsensusLog, LogSlot, SlotStatus
from .messages import (
    Accept,
    AcceptNote,
    AcceptReply,
    CatchUpReply,
    CatchUpRequest,
    ClientReadReply,
    ClientRedirect,
    ClientUnavailable,
    ClientWriteReply,
    Commit,
    CtlReply,
    FullRosterRequest,
    Guard,
    GuardReply,
    Heartbeat,
    Prepare,
    PrepareReply,
    Renew,
    RenewReply,
    Revoke,
    RevokeReply,
    StatsReport,
    from_wire,
    to_wire,
)
from .model import (
    Ballot,
    ClusterConfig,
    Command,
    EMPTY_ROSTER,
    NodeId,
    Roster,
    ZERO_BALLOT,
    next_ballot,
    validate_roster,
)
from .reads import HELD, read_at

MAX_CATCHUP_BATCH = 64


@dataclass(slots=True)
class StepUp:
    bal: Ballot
    from_slot: int
    replies: dict[NodeId, tuple] = field(default_factory=dict)


class Node:
    def __init__(
        self,
        me: NodeId,
        cfg: ClusterConfig,
        seed: int = 0,
        mutations: frozenset[str] = frozenset(),
    ) -> None:
        self.me = me
        self.cfg = cfg
        self.mutations = mutations
        self._no_thresh = "stable_no_thresh" in mutations
        self.bal: Ballot = ZERO_BALLOT
        self.ros: Roster = EMPTY_ROSTER
        self.promised: Ballot = ZERO_BALLOT
        self.leases = LeaseEngine(me, cfg)
        self.log = ConsensusLog()
        self.fd = FailureDetector(me, cfg.n, cfg.t_hb_fail, cfg.hb_fail_jitter, seed)
        self.peer_view = PeerRosterView(cfg.n)
        self.stats = KeyStats()  # the current tune window's; kept only while the tuner runs
        self.peer_stats: dict[NodeId, tuple] = {}
        # roster adoption in flight: target (ballot, roster); adopted once the
        # revocation of the current ballot's grants has fully drained
        self.pending_adoption: tuple[Ballot, Roster] | None = None
        self.stepup: StepUp | None = None
        self.leader_ready = False
        self.next_slot = 1
        self.open_batch: list[Command] = []
        self.batch_armed = False
        # (client, seq) -> want_roster of the requests awaiting execution here
        self.pending_client_reqs: dict[tuple[str, int], bool] = {}
        self.counters: dict[str, int] = {}
        self.last_now = 0  # the local time of the latest start or event handled

    # ------------------------------------------------------------------ util

    def _count(self, what: str) -> None:
        self.counters[what] = self.counters.get(what, 0) + 1

    def is_stable(self, now: int | None = None) -> bool:
        """Whether this node may serve reads locally at local time `now`;
        by default, at the last `now` it handled."""
        return self.leases.is_stable(self.log.commit_prefix, self.last_now if now is None else now,
                                     self._no_thresh)

    def is_leader(self) -> bool:
        return self.ros.leader == self.me

    def state_digest(self) -> str:
        """Stable digest of protocol-visible state, for replay parity checks."""
        view = {
            "bal": self.bal,
            "ros": self.ros.to_wire(),
            "commit_prefix": self.log.commit_prefix,
            "exec_prefix": self.log.exec_prefix,
            "kv": sorted(
                (k.decode("latin-1"), v.decode("latin-1"))
                for k, v in {**self.log.snap_kv, **self.log.kv}.items()
            ),
            # a slot: its status, then the Accept that carries it in the codec's form
            "slots": [[int(s.status), *to_wire(Accept(s.bal, i, s.batch))]
                      for i, s in sorted(self.log.slots.items())],
            "endowed": sorted(self.leases.endowed),
            "thresh": sorted(self.leases.thresh.items()),
        }
        blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------- lifecycle

    def start(self, now: int) -> list[Output]:
        self.last_now = now
        out: list[Output] = [ArmTimer(("hb_tick",), now + self.cfg.t_hb_send)]
        for p in range(self.cfg.n):
            if p != self.me:
                out.append(ArmTimer(("hb_fail", p), self.fd.refresh(p, now)))
        if self.cfg.auto_tune:
            out.append(ArmTimer(("tune",), now + self.cfg.tune_window))
        return out

    # -------------------------------------------------------------- dispatch

    def handle(self, event: Event, now: int) -> list[Output]:
        self.last_now = now
        if type(event) is Deliver:
            h = _MSG_HANDLERS.get(type(event.msg))
            return [] if h is None else h(self, event.frm, event.msg, now)
        if type(event) is TimerFire:
            return self._on_timer(event.key, now)
        if type(event) is ClientRequest:
            return self._on_client(event, now)
        if type(event) is OperatorRequest:
            return self._on_operator(event, now)
        raise TypeError(f"unhandled event: {event!r}")

    def replay(self, rows: list[list]) -> str:
        """Feed a recorded event log through this node, a fresh core, and
        return its state digest. A row is `[now]`, the node's start, or an
        event's wire form with the local time in front, `[now, kind_id,
        field...]`: the daemon's event log, and a simulator trace's rows of
        one node with the global time and node id taken off."""
        for row in rows:
            if len(row) == 1:
                self.start(row[0])
            else:
                self.handle(from_wire(row, 1), row[0])
        return self.state_digest()

    # lease messages: the engine answers for the current ballot

    def _on_guard(self, frm: NodeId, msg: Guard, now: int) -> list[Output]:
        return self.leases.on_guard(frm, msg.bal, msg.thresh, self.bal, now)

    def _on_guard_reply(self, frm: NodeId, msg: GuardReply, now: int) -> list[Output]:
        return self.leases.on_guard_reply(frm, msg.bal, self.bal, now)

    def _on_renew(self, frm: NodeId, msg: Renew, now: int) -> list[Output]:
        return self.leases.on_renew(frm, msg.bal, self.bal, now)

    def _on_renew_reply(self, frm: NodeId, msg: RenewReply, now: int) -> list[Output]:
        return self.leases.on_renew_reply(frm, msg.bal, self.bal, now)

    def _on_revoke(self, frm: NodeId, msg: Revoke, now: int) -> list[Output]:
        return self.leases.on_revoke(frm, msg.bal, self.bal)

    def _on_revoke_reply(self, frm: NodeId, msg: RevokeReply, now: int) -> list[Output]:
        return self.leases.on_revoke_reply(frm, msg.bal) + self._maybe_adopt(now)

    def _on_stats_report(self, frm: NodeId, msg: StatsReport, now: int) -> list[Output]:
        self.peer_stats[frm] = msg.rows
        return []

    def _on_timer(self, key: tuple, now: int) -> list[Output]:
        kind = key[0]
        if kind == "lease":
            return self._on_lease_timer(key[1], key[2], now)
        if kind == "hb_tick":
            return self._heartbeat_tick(now)
        if kind == "hb_fail":
            return self._on_peer_failure(key[1], now)
        if kind == "batch":
            self.batch_armed = False
            return self._seal_batch(now)
        if kind == "tune":
            return self._tune_tick(now)
        return []

    # ----------------------------------------------------- roster / ballots

    def announce_roster(self, new_ros: Roster, now: int) -> tuple[Ballot, list[Output]]:
        base = max(self.bal, self.promised)
        if self.pending_adoption is not None:
            base = max(base, self.pending_adoption[0])
        new_bal = next_ballot(base, self.me)
        hb = Heartbeat(new_bal, new_ros, commit_upto=self.log.commit_prefix)
        out: list[Output] = [Send(p, hb) for p in range(self.cfg.n)]
        self._count("roster_announced")
        return new_bal, out

    def _on_heartbeat(self, frm: NodeId, msg: Heartbeat, now: int) -> list[Output]:
        out: list[Output] = []
        if frm != self.me:
            out.append(ArmTimer(("hb_fail", frm), self.fd.refresh(frm, now)))
        self.peer_view.saw(frm, msg.bal)
        if msg.bal > self.promised:
            self.promised = msg.bal
        pending_bal = self.pending_adoption[0] if self.pending_adoption else self.bal
        if msg.bal > self.bal and msg.bal >= pending_bal:
            if msg.roster is None:
                if msg.bal > pending_bal:
                    out.append(Send(frm, FullRosterRequest(msg.bal)))
            else:
                self.pending_adoption = (msg.bal, msg.roster)
                if self.leases.revoking != self.bal:
                    out += self.leases.start_revocation(self.bal, now)
                out += self._maybe_adopt(now)
        # commit propagation: the sender's committed prefix rides every beat
        if msg.commit_upto > self.log.commit_prefix:
            out += self._commit_or_fetch(
                frm, msg.bal, range(self.log.commit_prefix + 1, msg.commit_upto + 1), now)
        if msg.renew:
            out += self.leases.on_renew(frm, msg.bal, self.bal, now)
        if msg.renew_reply:
            out += self.leases.on_renew_reply(frm, msg.bal, self.bal, now)
        return out

    def _maybe_adopt(self, now: int) -> list[Output]:
        if self.pending_adoption is None:
            return []
        if self.bal != ZERO_BALLOT and not self.leases.revocation_complete():
            return []
        new_bal, new_ros = self.pending_adoption
        self.pending_adoption = None
        out: list[Output] = self.leases.reset_for_new_ballot()
        self.bal = new_bal
        self.ros = new_ros
        if self.promised < new_bal:
            self.promised = new_bal
        self.leader_ready = False
        self.stepup = None
        self._count("roster_adopted")
        out += self.leases.initiate(new_bal, self.log.highest_accepted, now)
        out += self._redispatch_pending(now)
        if self.is_leader():
            out += self._begin_stepup(now)
        else:
            out += self._drain_batch_as_redirects()
        return out

    def _drain_batch_as_redirects(self) -> list[Output]:
        out: list[Output] = [self._to_leader(cmd) for cmd in self.open_batch
                             if self.pending_client_reqs.pop((cmd.client, cmd.seq), None) is not None]
        self.open_batch = []
        return out

    def _to_leader(self, cmd: Command) -> Reply:
        """Point a client at the leader, or report none is known."""
        if self.ros.leader is None:
            return Reply(cmd.client, ClientUnavailable(cmd.seq))
        return Reply(cmd.client, ClientRedirect(cmd.seq, self.ros.leader, self.bal, self.ros))

    def _on_full_roster_request(self, frm: NodeId, msg: FullRosterRequest,
                                now: int) -> list[Output]:
        if self.bal >= msg.bal and self.bal != ZERO_BALLOT:
            return [Send(frm, Heartbeat(self.bal, self.ros, commit_upto=self.log.commit_prefix))]
        return []

    def _on_lease_timer(self, intent: str, peer: NodeId, now: int) -> list[Output]:
        live = self.leases.on_timer(intent, peer)
        out: list[Output] = []
        if not live:
            return out
        if intent == "guarding" and self.leases.revoking is None and self.bal != ZERO_BALLOT:
            out += self.leases.reguard(self.bal, peer, self.log.highest_accepted, now)
        elif intent == "endowing":
            if self.leases.revoking is not None:
                out += self._maybe_adopt(now)
            elif self.bal != ZERO_BALLOT:
                out += self.leases.reguard(self.bal, peer, self.log.highest_accepted, now)
        return out

    def _on_peer_failure(self, peer: NodeId, now: int) -> list[Output]:
        if not self.fd.expire(peer):
            return []
        self._count("peer_down")
        if peer not in self.ros.special_nodes():
            return []
        new_ros = self.ros.without(peer)
        if self.ros.leader == peer:
            healthy = [p for p in self.fd.healthy() if p != peer]
            new_ros = new_ros.with_leader(min(healthy) if healthy else self.me)
        _bal, out = self.announce_roster(new_ros, now)
        return out

    # -------------------------------------------------------------- heartbeat

    def _heartbeat_tick(self, now: int) -> list[Output]:
        renews, replies, out = self.leases.heartbeat_piggyback(now)
        commit_upto = self.log.commit_prefix
        beats: dict[tuple[bool, bool, bool], Heartbeat] = {}  # peers owed the same content share one
        for p in range(self.cfg.n):
            full = p != self.me and self.peer_view.needs_full(p, self.bal)
            flags = (full, renews.get(p, False), replies.get(p, False))
            hb = beats.get(flags)
            if hb is None:
                hb = beats[flags] = Heartbeat(self.bal, self.ros if full else None,
                                              renew=flags[1], renew_reply=flags[2],
                                              commit_upto=commit_upto)
            out.append(Send(p, hb))
        out += self.leases.revoke_retransmit()
        out += self._retransmit_consensus()
        out.append(ArmTimer(("hb_tick",), now + self.cfg.t_hb_send))
        return out

    def _retransmit_consensus(self) -> list[Output]:
        out: list[Output] = []
        if self.stepup is not None:
            msg = Prepare(self.stepup.bal, self.stepup.from_slot)
            for p in range(self.cfg.n):
                if p not in self.stepup.replies and p not in self.fd.down:
                    out.append(Send(p, msg))
        elif self.leader_ready and self.is_leader():
            for idx in range(self.log.commit_prefix + 1, self.next_slot):
                s = self.log.slots.get(idx)
                if s is None or s.bal != self.bal or s.status >= SlotStatus.COMMITTED:
                    continue
                msg = Accept(self.bal, idx, s.batch)
                for p in range(self.cfg.n):
                    if p != self.me and p not in s.accept_replies and p not in self.fd.down:
                        out.append(Send(p, msg))
        return out

    # ------------------------------------------------------------ write path

    def _on_client(self, req: ClientRequest, now: int) -> list[Output]:
        """A write goes to the leader's next batch, a read to dispatch."""
        cmd = req.cmd
        write = cmd.is_write()
        if write and not self.is_leader():
            return [self._to_leader(cmd)]
        if req.fresh and req.preferred >= 0 and self.cfg.auto_tune:
            self.stats.record(cmd.key, req.preferred, write)
        if write:
            return self._enqueue(cmd, req.want_roster, now)
        return self._dispatch_read(cmd, req.want_roster, now)

    def _enqueue(self, cmd: Command, want_roster: bool, now: int) -> list[Output]:
        """Queue a client command for the next batch; a retry of one already
        applied is answered at once. A request already queued or already in
        the log (a client retry, possibly of a slot the step-up re-proposed)
        is not proposed again: the reply goes out when the slot holding it
        executes. If that slot is replaced instead, the client's next retry
        finds the request in neither place and queues it."""
        if self.log.applied(cmd):
            return [self._reply(cmd, self.log.read_value(cmd.key), want_roster)]
        self.pending_client_reqs[(cmd.client, cmd.seq)] = want_roster
        if self.log.has_request(cmd) or any(
                c.seq == cmd.seq and c.client == cmd.client for c in self.open_batch):
            return []
        self.open_batch.append(cmd)
        return self._arm_batch(now)

    def _arm_batch(self, now: int) -> list[Output]:
        """Seal the open batch at once when every proposed slot has
        committed; behind a slot in flight, wait `batch_interval` so the
        writes that arrive meanwhile share the next slot (Nagle's rule)."""
        if self.batch_armed or not self.open_batch or not self.leader_ready:
            return []
        if self.log.commit_prefix + 1 >= self.next_slot:
            return self._seal_batch(now)
        self.batch_armed = True
        return [ArmTimer(("batch",), now + self.cfg.batch_interval)]

    def _seal_batch(self, now: int) -> list[Output]:
        if not self.open_batch or not self.leader_ready or not self.is_leader():
            return []
        # a queued request may have entered the log meanwhile (step-up)
        batch = tuple(c for c in self.open_batch if not self.log.has_request(c))
        self.open_batch = []
        if not batch:
            return []
        slot = self.next_slot
        self.next_slot += 1
        self._count("proposals")
        msg = Accept(self.bal, slot, batch)
        return [Send(p, msg) for p in range(self.cfg.n)]

    def _on_accept(self, frm: NodeId, msg: Accept, now: int) -> list[Output]:
        if msg.bal < self.promised:
            return [Send(frm, AcceptReply(msg.bal, msg.slot, higher=self.promised))]
        out: list[Output] = []
        if msg.bal > self.bal and self.bal != ZERO_BALLOT:
            # joining a higher ballot ends this node's grants for its own:
            # revoke them first, and stay silent while any is still live so
            # no holder of them can be stable past a commit we helped make.
            # The leader's heartbeat retransmit brings the Accept back.
            if self.leases.revoking != self.bal:
                out += self.leases.start_revocation(self.bal, now)
            if self.leases.endowing:
                return out
        self.promised = msg.bal
        s, more = self._record_accept(msg.slot, msg.bal, msg.batch, now)
        out += more
        if s is not None:
            s.accept_notes.add(self.me)
            if self.cfg.early_accept_notes:
                targets: set[NodeId] = set()
                for key in s.keys:
                    targets |= self.ros.responders_of(key)
                targets.discard(frm)
                targets.discard(self.me)
                if targets:
                    note = AcceptNote(msg.bal, msg.slot)
                    for p in sorted(targets):
                        out.append(Send(p, note))
        out.append(Send(frm, AcceptReply(msg.bal, msg.slot)))
        return out

    def _commit_ok(self, s) -> bool:
        if len(s.accept_replies) < self.cfg.majority:
            return False
        if "commit_no_responder_coverage" in self.mutations:
            return True
        return all(self.ros.responders_of(key) <= s.accept_replies for key in s.keys)

    def _on_accept_reply(self, frm: NodeId, msg: AcceptReply, now: int) -> list[Output]:
        if msg.higher is not None:
            if msg.higher > self.promised:
                self.promised = msg.higher
            if msg.higher > self.bal:
                # a competing higher ballot: stand down. A nack naming our own
                # ballot only answers an Accept from our previous one.
                self.stepup = None
                self.leader_ready = False
            return []
        s = self.log.slots.get(msg.slot)
        if s is None or s.bal != msg.bal or s.status >= SlotStatus.COMMITTED:
            return []
        s.accept_replies.add(frm)
        if not self._commit_ok(s):
            return []
        out = self._commit(s)
        self._count("commits")
        cm = Commit(msg.bal, (msg.slot,))
        for p in range(self.cfg.n):
            if p != self.me:
                out.append(Send(p, cm))
        out += self._execute(now)
        return out

    def _on_accept_note(self, frm: NodeId, msg: AcceptNote, now: int) -> list[Output]:
        s = self.log.slots.get(msg.slot)
        if s is None or s.bal != msg.bal or s.status >= SlotStatus.COMMITTED:
            return []
        s.accept_notes.add(frm)
        return self._settle(s)

    def _on_commit(self, frm: NodeId, msg: Commit, now: int) -> list[Output]:
        return self._commit_or_fetch(frm, msg.bal, msg.slots, now)

    def _commit_or_fetch(self, frm: NodeId, bal: Ballot, slots, now: int) -> list[Output]:
        """`frm` reports `slots` committed at ballot `bal` (a Commit, or the
        committed prefix a heartbeat carries). Commit the uncommitted ones
        this node holds at `bal` or higher; fetch the rest from `frm` (a slot
        held at a lower ballot may hold other content)."""
        out: list[Output] = []
        missing: list[int] = []
        for idx in slots:
            if idx <= self.log.snap_upto:
                continue
            s = self.log.slots.get(idx)
            if s is not None and s.status >= SlotStatus.COMMITTED:
                continue
            if s is not None and s.bal >= bal:
                out += self._commit(s)
            else:
                missing.append(idx)
        if missing:
            out.append(Send(frm, CatchUpRequest(tuple(missing[:MAX_CATCHUP_BATCH]))))
        out += self._execute(now)
        return out

    def _on_catchup_request(self, frm: NodeId, msg: CatchUpRequest, now: int) -> list[Output]:
        entries = []
        want_snap = False
        for idx in msg.slots:
            if idx <= self.log.snap_upto:
                want_snap = True
                continue
            s = self.log.slots.get(idx)
            if s is not None:
                entries.append((idx, s.bal, s.batch, s.status >= SlotStatus.COMMITTED))
        reply = CatchUpReply(
            tuple(entries),
            snap_upto=self.log.snap_upto if want_snap else 0,
            snap_kv=tuple(sorted(self.log.snap_kv.items())) if want_snap else (),
            snap_sessions=tuple(sorted(self.log.snap_sessions.items())) if want_snap else (),
        )
        return [Send(frm, reply)]

    def _on_catchup_reply(self, frm: NodeId, msg: CatchUpReply, now: int) -> list[Output]:
        out: list[Output] = []
        if msg.snap_upto > self.log.exec_prefix:
            # reads held on slots the snapshot truncates go through dispatch again
            held = [h for i, s in self.log.slots.items() if i <= msg.snap_upto
                    for h in s.pending_reads]
            self.log.install_snapshot(msg.snap_upto, dict(msg.snap_kv), dict(msg.snap_sessions))
            out += self._redispatch(held, now)
        for idx, bal, batch, committed in msg.entries:
            s = self.log.slots.get(idx)
            if s is not None and s.status >= SlotStatus.COMMITTED:
                continue
            if s is not None and s.bal > bal and not committed:
                continue
            s, more = self._record_accept(idx, bal, batch, now)
            out += more
            if committed and s is not None:
                out += self._commit(s)
        out += self._execute(now)
        return out

    def _execute(self, now: int) -> list[Output]:
        out: list[Output] = []
        while (step := self.log.execute_next()) is not None:
            idx, results = step
            out += self._settle(self.log.slots[idx])
            for cmd, value in results:
                want = self.pending_client_reqs.pop((cmd.client, cmd.seq), None)
                if want is not None:
                    out.append(self._reply(cmd, value, want))
        if (
            self.cfg.snapshot_every
            and self.log.exec_prefix - self.log.snap_upto >= self.cfg.snapshot_every
        ):
            self.log.take_snapshot()
            self._count("snapshots")
        return out

    # --------------------------------------------------------------- step-up

    def _begin_stepup(self, now: int) -> list[Output]:
        self.stepup = StepUp(self.bal, self.log.commit_prefix + 1)
        self._count("stepups")
        msg = Prepare(self.bal, self.stepup.from_slot)
        return [Send(p, msg) for p in range(self.cfg.n)]

    def _on_prepare(self, frm: NodeId, msg: Prepare, now: int) -> list[Output]:
        if msg.bal < self.promised:
            return [Send(frm, PrepareReply(msg.bal, higher=self.promised))]
        self.promised = msg.bal
        return [Send(frm, PrepareReply(msg.bal, self.log.accepted_tail(msg.from_slot)))]

    def _on_prepare_reply(self, frm: NodeId, msg: PrepareReply, now: int) -> list[Output]:
        if self.stepup is None or msg.bal != self.stepup.bal:
            return []
        if msg.higher is not None:
            if msg.higher > self.promised:
                self.promised = msg.higher
            self.stepup = None
            return []
        self.stepup.replies[frm] = msg.tail
        if len(self.stepup.replies) < self.cfg.majority:
            return []
        return self._finish_stepup(now)

    def _finish_stepup(self, now: int) -> list[Output]:
        assert self.stepup is not None
        from_slot = self.stepup.from_slot
        best: dict[int, tuple[Ballot, tuple[Command, ...], bool]] = {}
        for tail in self.stepup.replies.values():
            for idx, bal, batch, committed in tail:
                cur = best.get(idx)
                if committed:
                    best[idx] = (bal, batch, True)
                elif cur is None or (not cur[2] and bal > cur[0]):
                    best[idx] = (bal, batch, False)
        self.stepup = None
        out: list[Output] = []
        top = max(best) if best else from_slot - 1
        for idx in range(from_slot, top + 1):
            entry = best.get(idx)
            if entry is not None and entry[2]:
                s = self.log.slots.get(idx)
                if s is None or s.status < SlotStatus.COMMITTED:
                    s, more = self._record_accept(idx, entry[0], entry[1], now)
                    out += more
                    if s is not None:
                        out += self._commit(s)
                continue
            batch = entry[1] if entry is not None else ()
            msg = Accept(self.bal, idx, batch)
            out += [Send(p, msg) for p in range(self.cfg.n)]
        self.next_slot = top + 1
        self.leader_ready = True
        out += self._execute(now)
        out += self._arm_batch(now)
        return out

    # -------------------------------------------------------------- read path

    def _dispatch_read(self, cmd: Command, want_roster: bool, now: int) -> list[Output]:
        """A stable responder serves or holds the read (`read_at`); any
        other node redirects it to the leader, and the leader takes it
        through the log as if it were a write."""
        if not self.is_stable(now) or self.me not in self.ros.responders_of(cmd.key):
            if not self.is_leader():
                if self.ros.leader is not None:
                    self._count("reads_redirected")
                return [self._to_leader(cmd)]
            self._count("reads_fallback")
            return self._enqueue(cmd, want_roster, now)
        idx = self.log.highest_write_slot(cmd.key)
        s = self.log.slots.get(idx)
        value = self._read_at(s, cmd.key)
        if value is HELD:
            # a reissue of a read already held here is answered with it
            if not any(c.seq == cmd.seq and c.client == cmd.client for c, _ in s.pending_reads):
                self._count("reads_held")
                s.pending_reads.append((cmd, want_roster))
            return []
        self._count("reads_local")
        return [self._reply(cmd, value, want_roster, (cmd.key, idx or self.log.snap_upto))]

    def _read_at(self, s: LogSlot | None, key: bytes) -> object:
        return read_at(s, key, self.log, self.bal, self.ros, self.cfg.majority,
                       self.cfg.early_accept_notes)

    def _reply(self, cmd: Command, value: bytes | None, want: bool,
               served_at: tuple[bytes, int] | None = None) -> Reply:
        """A put's acknowledgement, or a get's `value`."""
        ros = self.ros if want else None
        if cmd.is_write():
            return Reply(cmd.client, ClientWriteReply(cmd.seq, self.bal, ros))
        return Reply(cmd.client, ClientReadReply(cmd.seq, value, self.bal, ros), served_at)

    def _settle(self, s: LogSlot) -> list[Output]:
        """Answer the reads held on `s` that `read_at` now serves (after an
        accept note, the commit or the execution of `s`); keep the rest."""
        if not s.pending_reads:
            return []
        out: list[Output] = []
        keep = []
        for held in s.pending_reads:
            cmd, want = held
            value = self._read_at(s, cmd.key)
            if value is HELD:
                keep.append(held)
            else:
                self._count("reads_released")
                out.append(self._reply(cmd, value, want, (cmd.key, s.index)))
        s.pending_reads = keep
        return out

    def _commit(self, s: LogSlot) -> list[Output]:
        """Mark `s` committed, then answer the reads it now releases."""
        self.log.mark_committed(s.index)
        return self._settle(s)

    def _record_accept(self, idx: int, bal: Ballot, batch: tuple[Command, ...],
                       now: int) -> tuple[LogSlot | None, list[Output]]:
        """`ConsensusLog.record_accept`, plus: when an uncommitted slot's
        ballot or batch is replaced, the reads held on it are re-dispatched
        (they were parked on content that no longer stands)."""
        old = self.log.slots.get(idx)
        held = []
        if (old is not None and old.pending_reads and old.status < SlotStatus.COMMITTED
                and (old.bal != bal or old.batch != batch)):
            held, old.pending_reads = old.pending_reads, []
        s = self.log.record_accept(idx, bal, batch)
        return s, self._redispatch(held, now)

    def _redispatch_pending(self, now: int) -> list[Output]:
        """Every held read goes through dispatch again, once. Held reads must
        never outlive the content they were parked on: this runs after a
        ballot change (the step-up may supersede any uncommitted slot), and
        `_record_accept` does the same for a single slot whenever its ballot
        or batch is replaced (by an Accept, a catch-up reply or a step-up).
        All are taken off their slots before any is dispatched, so a read
        that holds again, on a later slot, is not dispatched a second time."""
        held = []
        for s in self.log.slots.values():
            held += s.pending_reads
            s.pending_reads = []
        return self._redispatch(held, now)

    def _redispatch(self, held: list[tuple[Command, bool]], now: int) -> list[Output]:
        out: list[Output] = []
        for cmd, want in held:
            out += self._dispatch_read(cmd, want, now)
        return out

    # ------------------------------------------------------------- operator

    def _on_operator(self, req: OperatorRequest, now: int) -> list[Output]:
        if req.verb == "roster_get":
            return [Reply(req.client, CtlReply(True, bal=self.bal, roster=self.ros))]
        if req.verb == "stats":
            rows = self._merged_stats().rows()
            return [Reply(req.client, CtlReply(True, bal=self.bal, rows=rows))]
        if req.verb == "roster_set":
            if req.roster is None:
                return [Reply(req.client, CtlReply(False, "missing roster"))]
            bad = validate_roster(req.roster, self.cfg.n)
            if bad is not None:
                return [Reply(req.client, CtlReply(False, f"{bad.field}: {bad.reason}"))]
            new_bal, out = self.announce_roster(req.roster, now)
            out.append(Reply(req.client, CtlReply(True, bal=new_bal, roster=req.roster)))
            return out
        return [Reply(req.client, CtlReply(False, f"unknown verb {req.verb!r}"))]

    def _merged_stats(self) -> KeyStats:
        """This node's key counters plus the latest report of each peer."""
        merged = KeyStats()
        merged.merge_rows(self.stats.rows())
        for rows in self.peer_stats.values():
            merged.merge_rows(rows)
        return merged

    def _tune_tick(self, now: int) -> list[Output]:
        out: list[Output] = []
        if self.is_leader():
            proposal = auto_tune_proposal(self._merged_stats(), self.ros)
            if proposal is not None:
                _bal, more = self.announce_roster(proposal, now)
                out += more
            self.peer_stats.clear()
        elif self.ros.leader is not None and self.stats.counts:
            out.append(Send(self.ros.leader, StatsReport(self.stats.rows())))
        self.stats.reset()
        out.append(ArmTimer(("tune",), now + self.cfg.tune_window))
        return out


_MSG_HANDLERS = {
    Heartbeat: Node._on_heartbeat,
    Guard: Node._on_guard,
    GuardReply: Node._on_guard_reply,
    Renew: Node._on_renew,
    RenewReply: Node._on_renew_reply,
    Revoke: Node._on_revoke,
    RevokeReply: Node._on_revoke_reply,
    Accept: Node._on_accept,
    AcceptReply: Node._on_accept_reply,
    AcceptNote: Node._on_accept_note,
    Commit: Node._on_commit,
    Prepare: Node._on_prepare,
    PrepareReply: Node._on_prepare_reply,
    CatchUpRequest: Node._on_catchup_request,
    CatchUpReply: Node._on_catchup_reply,
    FullRosterRequest: Node._on_full_roster_request,
    StatsReport: Node._on_stats_report,
}

