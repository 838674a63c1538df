"""Deterministic discrete-event simulator hosting the protocol cores.

Virtual time is integer microseconds. Every run is a pure function of
(scenario, seed): the event heap breaks ties by insertion sequence, all
randomness flows from seeded generators, and nodes never see anything but
their own drifting local clocks.

A traced run records one JSON array per line. A node's row is the daemon's
event-log row with the global time and the node id in front: `[t, node,
now, kind_id, field...]` for each event a live node handles, `now` being
the local time `Node.handle` is given, and `[0, node, now]` for its start.
The host's rows are `[t, "crash", node]` and `[t, "part", groups]`, with
null groups for a heal. A node's rows, the first two fields taken off,
replay to its state digest (`Node.replay`).
"""
from __future__ import annotations

import bisect
import heapq
import json
import math
import random
import zlib
from dataclasses import dataclass, field

from ..events import ArmTimer, CancelTimer, Deliver, OperatorRequest, Reply, Send, TimerFire
from ..messages import Accept, Commit, from_wire, to_wire
from ..log import ConsensusLog
from ..model import Ballot, Command
from ..node import Node
from ..reads import ClientArm, ClientCache, ClientDone, ClientSend, ClientSession
from ..workload import OpGen, latency_summary
from .scenario import Scenario, ScriptEvent

_dumps = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(slots=True)
class ClockModel:
    """Per-node local clock: monotone, skewed, and drifting at a fixed rate."""

    skew: int
    rate: float  # local seconds per global second, minus one

    def local(self, t_global: int) -> int:
        return self.skew + t_global + int(self.rate * t_global)

    def global_of(self, t_local: int) -> int:
        return max(0, math.ceil((t_local - self.skew) / (1.0 + self.rate)))


class NetworkModel:
    """Per-pair delays with jitter, loss, and partitions."""

    def __init__(self, sc: Scenario, rng: random.Random) -> None:
        self.sc = sc
        self.rng = rng
        self.partition: dict[int, int] | None = None
        # base one-way delays; the diagonal is the co-located client hop
        self.one_way = [[sc.one_way_us(a, b) for b in range(sc.n)] for a in range(sc.n)]

    def set_partition(self, groups: tuple[tuple[int, ...], ...] | None) -> None:
        if groups is None:
            self.partition = None
        else:
            self.partition = {n: gi for gi, g in enumerate(groups) for n in g}

    def delay(self, a: int, b: int) -> int | None:
        """One-way node-to-node delay, or None when the message is lost.
        Loopback is instant and reliable. `Simulation._apply_outputs` takes
        the same steps inline for the nodes' own sends."""
        if a == b:
            return 0
        if self.partition is not None and self.partition[a] != self.partition[b]:
            return None
        d = self.one_way[a][b]
        if self.sc.jitter_us:
            d += self.rng.randrange(self.sc.jitter_us + 1)
        if self.sc.drop_prob and self.rng.random() < self.sc.drop_prob:
            return None
        return d

    def client_delay(self, site: int, node: int) -> int | None:
        """One-way delay between a client co-located at `site` and a node.
        The last co-located hop is short but never free."""
        if site == node:
            return self.one_way[site][site]
        return self.delay(site, node)


@dataclass(slots=True)
class OpRecord:
    client: str
    request_id: str
    op: str
    key: bytes
    value: bytes | None
    invoke: int
    response: int | None
    outcome: str  # "ok" | "timeout" | "redirected"
    site: int
    contacted: int

    def history_row(self) -> dict:
        return {
            "client": self.client,
            "request_id": self.request_id,
            "op": self.op,
            "key": self.key.decode("latin-1"),
            "value": None if self.value is None else self.value.decode("latin-1"),
            "invoke": self.invoke,
            "response": self.response,
            "outcome": self.outcome,
        }


@dataclass(slots=True)
class SimResult:
    history: list[OpRecord]
    trace: list[str]
    metrics: dict
    violations: list[str]
    nodes: list[Node] = field(repr=False)

    @property
    def digests(self) -> dict[int, str]:
        """Per-node state digests at the end of the run (computed on demand:
        they serialize every node's whole log)."""
        return {i: n.state_digest() for i, n in enumerate(self.nodes)}


@dataclass(slots=True)
class _Timer:
    """Heap bookkeeping of one re-armable timer (see `Simulation._arm`)."""

    t: int = 0  # global fire time of the latest arm
    seq: int = 0  # heap sequence number of the latest arm; 0 = disarmed
    queued: bool = False  # the latest arm has its own heap entry
    head: int = 0  # seq of the newest heap entry pushed for this timer; 0 = none
    head_t: int = 0


@dataclass(slots=True)
class _ClientState:
    cid: str
    site: int
    cache: ClientCache
    rng: random.Random | None  # draws the workload's ops; None for a scripted client
    closed_loop: bool
    ops_done: int = 0
    session: ClientSession | None = None
    timer: _Timer = field(default_factory=_Timer)


class Simulation:
    def __init__(
        self,
        sc: Scenario,
        seed: int,
        trace: bool = False,
        monitors: bool = False,
        mutations: frozenset[str] = frozenset(),
        delay_chooser=None,
    ) -> None:
        self.sc = sc
        self.seed = seed
        self.cfg = sc.config
        self.trace_on = trace
        self.monitors = monitors
        self.delay_chooser = delay_chooser  # exploration hook: (delay, msg) -> delay
        self.net_rng = random.Random((seed * 2654435761) & 0xFFFFFFFF)
        self.net = NetworkModel(sc, self.net_rng)
        rho = sc.drift_rate_bound()
        skew_rng = random.Random(seed ^ 0x5EED)
        self.clocks = [
            ClockModel(skew=skew_rng.randrange(10_000), rate=rho * (1 if i % 2 else -1))
            for i in range(sc.n)
        ]
        self.nodes = [Node(i, self.cfg, seed=seed, mutations=mutations) for i in range(sc.n)]
        self.alive = [True] * sc.n
        self.heap: list = []
        self.seq = 0
        self.now = 0
        self.sends = 0
        self.node_timers: list[dict[tuple, _Timer]] = [dict() for _ in range(sc.n)]
        self.clients: dict[str, _ClientState] = {}
        self._ops: OpGen | None = None  # the workload's op generator, built at setup
        self.history: list[OpRecord] = []
        self.trace: list[str] = []
        self.violations: list[str] = []
        self.completed_ops: set[str] = set()
        self.waiting_script: dict[str, list[ScriptEvent]] = {}
        self._exec_seen = [0] * sc.n
        self._exec_digests: dict[int, tuple] = {}
        self._n_alive = sc.n
        # node -> ballot it is stable at (live nodes only), and the distinct
        # such ballots in order, refreshed on change; the all-stable check is
        # due after a refresh or a crash
        self._stable_bal: dict[int, Ballot] = {}
        self._live_bals: list[Ballot] = []
        self._all_stable_due = False
        # reference execution for the read-value monitor: batches proposed
        # per (slot, ballot), a log of the chosen slots executed as nodes
        # execute them, and its effective writes per key as (slots, values)
        self._proposed: dict[tuple, tuple] = {}
        self._ref = ConsensusLog()
        self._ref_writes: dict[bytes, tuple[list[int], list[bytes | None]]] = {}
        self._read_checks: dict[int, list[tuple]] = {}  # slot -> served reads
        self.all_stable_at: dict[Ballot, int] = {}  # first instant all alive nodes are stable at it
        self.t_end = 0

    # ------------------------------------------------------------- plumbing

    def _push(self, t: int, kind: str, *data) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, data))

    def _arm(self, tm: _Timer, t: int, kind: str, data: tuple) -> None:
        """(Re-)arm a timer to fire at global time `t`.

        Timers are re-armed far more often than they fire (lease and
        failure-detector deadlines move on every heartbeat), so an arm gets
        its own heap entry only when no earlier entry of the same timer is
        pending. Otherwise it waits for that entry to pop and is pushed then
        (`_due`), under the (t, seq) key it was given at arm time, which
        keeps the event order exactly as if it had been pushed at once.
        """
        self.seq += 1
        tm.t = t
        tm.seq = self.seq
        if tm.head and tm.head_t <= t:
            tm.queued = False
        else:
            heapq.heappush(self.heap, (t, tm.seq, kind, data))
            tm.head, tm.head_t, tm.queued = tm.seq, t, True

    def _due(self, tm: _Timer, seq: int, kind: str, data: tuple) -> bool:
        """True when the popped entry `seq` is the timer's live arm. A popped
        head entry hands over to a deferred arm."""
        if tm.head == seq:
            tm.head = 0
            if tm.seq and tm.seq != seq and not tm.queued:
                heapq.heappush(self.heap, (tm.t, tm.seq, kind, data))
                tm.head, tm.head_t, tm.queued = tm.seq, tm.t, True
        return tm.seq == seq

    def _trace(self, row: list) -> None:
        if self.trace_on:
            self.trace.append(_dumps(row))

    def _client_hop(self, site: int, node: int, kind: str, *data) -> None:
        """A message between a client at `site` and `node`, either way."""
        d = self.net.client_delay(site, node)
        self.sends += 1
        if d is not None:
            self.seq += 1
            heapq.heappush(self.heap, (self.now + d, self.seq, kind, data))

    def _apply_outputs(self, node_id: int, outs: list) -> None:
        """Carry out one node's outputs in order. The node's timers, clock,
        delay row and the network state are read once per list.

        A Send is the one send step: loopback is instant and reliable;
        otherwise a partition, then jitter, then loss decide the delay, and
        the explorer's chooser may change it. A broadcast sends one message
        object to every peer, so the monitors look at each object once."""
        heap, now, seq, sends = self.heap, self.now, self.seq, self.sends
        timers = self.node_timers[node_id]
        clock = self.clocks[node_id]
        skew, rate1 = clock.skew, 1.0 + clock.rate
        net = self.net
        row, part, rng = net.one_way[node_id], net.partition, net.rng
        jitter, drop = self.sc.jitter_us, self.sc.drop_prob
        chooser = self.delay_chooser
        monitors = self.monitors
        seen = None
        for o in outs:
            t = type(o)
            if t is Send:
                msg, to = o.msg, o.to
                if monitors and msg is not seen:
                    seen = msg
                    if type(msg) is Accept:
                        self._proposed[(msg.slot, msg.bal)] = msg.batch
                    elif type(msg) is Commit:
                        self._observe_commit(msg)
                if to == node_id:
                    d = 0
                else:
                    if part is not None and part[node_id] != part[to]:
                        d = None
                    else:
                        d = row[to]
                        if jitter:
                            d += rng.randrange(jitter + 1)
                        if drop and rng.random() < drop:
                            d = None
                    if chooser is not None:
                        d = chooser(d, msg)
                sends += 1
                if d is not None:
                    seq += 1
                    heapq.heappush(heap, (now + d, seq, "nmsg", (to, node_id, msg)))
            elif t is ArmTimer:
                # `_arm`, at the global instant `ClockModel.global_of` gives
                key = o.key
                tm = timers.get(key)
                if tm is None:
                    tm = timers[key] = _Timer()
                at = max(0, math.ceil((o.deadline - skew) / rate1))
                seq += 1
                tm.t, tm.seq = at, seq
                if tm.head and tm.head_t <= at:
                    tm.queued = False
                else:
                    heapq.heappush(heap, (at, tm.seq, "ntimer", (node_id, key)))
                    tm.head, tm.head_t, tm.queued = tm.seq, at, True
            elif t is Reply:
                if monitors and o.served_at is not None:
                    self._observe_read(node_id, o)
                cs = self.clients.get(o.client)
                if cs is not None:
                    d = net.client_delay(cs.site, node_id)
                    sends += 1
                    if d is not None:
                        seq += 1
                        heapq.heappush(heap, (now + d, seq, "cmsg", (o.client, o.msg)))
            elif t is CancelTimer:
                tm = timers.get(o.key)
                if tm is not None:
                    tm.seq = 0
        self.seq, self.sends = seq, sends

    # ------------------------------------------------------------- monitors

    # The commit-ballot and read-value monitors read the leaders' Accept and
    # Commit sends: every commit is decided by a leader and broadcast as a
    # Commit naming the ballot its batch was proposed under, so the sends
    # give each slot's chosen batch, whatever the nodes later truncate.

    def _observe_commit(self, msg: Commit) -> None:
        ref = self._ref
        for idx in msg.slots:
            if ref.record_accept(idx, msg.bal, self._proposed[(idx, msg.bal)]) is not None:
                ref.mark_committed(idx)
                self._check_commit_ballot(idx, msg.bal)
        while (step := ref.execute_next()) is not None:
            idx, results = step
            for cmd, value in results:
                if cmd.is_write():
                    slots, values = self._ref_writes.setdefault(cmd.key, ([], []))
                    slots.append(idx)
                    values.append(value)
            for check in self._read_checks.pop(idx, ()):
                self._check_read(idx, check)

    def _observe_read(self, node_id: int, o: Reply) -> None:
        key, slot = o.served_at
        check = (key, o.msg.value, node_id, self.now)
        if slot <= self._ref.exec_prefix:
            self._check_read(slot, check)
        else:
            self._read_checks.setdefault(slot, []).append(check)

    def _check_commit_ballot(self, idx: int, bal) -> None:
        """No slot commits at ballot b while a live node is stable below b:
        that node could still serve reads that miss the commit."""
        for n, sb in self._stable_bal.items():
            if sb < bal:
                self.violations.append(
                    f"commit ballot: slot {idx} committed at {(bal.round, bal.node)} "
                    f"while node {n} is stable at {(sb.round, sb.node)} (t={self.now})"
                )

    def _check_read(self, slot: int, check: tuple) -> None:
        """A read served from the log at anchor `slot` must return the value
        dedup-aware execution gives its key at that slot."""
        key, value, node_id, t = check
        slots, values = self._ref_writes.get(key, ((), ()))
        i = bisect.bisect_right(slots, slot) - 1
        expect = values[i] if i >= 0 else None
        if value != expect:
            self.violations.append(
                f"read value: node {node_id} served {key!r}={value!r} at slot {slot}, "
                f"which executes to {expect!r} (t={t})"
            )

    def _check_stability(self, node_id: int, sb: Ballot | None) -> None:
        """Record `sb`, the ballot node `node_id` is stable at after its
        latest event (None: not stable), and check that the live nodes are
        stable at one ballot at most. `run` calls this only when the entry
        changes, while two stable ballots hold (one violation per event) or
        when the all-stable instant is due: whether every live node is
        stable at one ballot can change only with an entry or a crash."""
        if sb is not self._stable_bal.get(node_id):
            if sb is None:
                del self._stable_bal[node_id]
            else:
                self._stable_bal[node_id] = sb
            self._refresh_live_bals()
        live = self._live_bals
        if len(live) > 1:
            self.violations.append(
                f"stability: two stable ballots at t={self.now}: {[tuple(b) for b in live]}")
        elif self._all_stable_due:
            self._all_stable_due = False
            if live and len(self._stable_bal) == self._n_alive:
                self.all_stable_at.setdefault(live[0], self.now)

    def _refresh_live_bals(self) -> None:
        self._live_bals = sorted(set(self._stable_bal.values()))
        self._all_stable_due = True

    def _check_agreement(self, node_id: int, log) -> None:
        seen = self._exec_seen[node_id]
        while seen < log.exec_prefix:
            seen += 1
            s = log.slots.get(seen)
            if s is not None:
                prev = self._exec_digests.get(seen)
                if prev is None:
                    self._exec_digests[seen] = s.batch
                elif prev != s.batch:
                    self.violations.append(
                        f"agreement: slot {seen} executed differently at node {node_id}"
                    )
        self._exec_seen[node_id] = seen

    # -------------------------------------------------------------- clients

    def _add_client(self, cid: str, site: int, rng: random.Random | None,
                    closed_loop: bool) -> _ClientState:
        cs = self.clients[cid] = _ClientState(
            cid, site, ClientCache(site, self.sc.n, self.cfg.t_unhold), rng, closed_loop)
        return cs

    def _client_outputs(self, cs: _ClientState, outs: list) -> None:
        for o in outs:
            t = type(o)
            if t is ClientSend:
                self._client_hop(cs.site, o.target, "creq", o.target, o.req)
            elif t is ClientArm:
                self._arm(cs.timer, o.deadline, "ctimer", (cs.cid,))
            elif t is ClientDone:
                rid = self._end_op(cs, o.outcome, o.value)
                self.completed_ops.add(rid)
                for ev in self.waiting_script.pop(rid, []):
                    self._push(max(self.now + 1000, ev.at), "script_op", ev)
                cs.timer.seq = 0  # disarm the pending timer
                if cs.closed_loop:
                    nxt = self.now + max(1, self.sc.workload.think)
                    if nxt < self.sc.workload.start + self.sc.workload.duration:
                        self._push(nxt, "cbegin", cs.cid)

    def _begin_op(self, cs: _ClientState, cmd: Command) -> None:
        cs.session = ClientSession(cs.cache, cmd, self.now, self.sc.workload.op_timeout)
        self._client_outputs(cs, cs.session.begin())

    def _end_op(self, cs: _ClientState, outcome: str, value: bytes | None) -> str:
        """Close the client's session and record its op in the history, as
        ending now with `outcome` (and, for a read, `value`). Returns the
        op's request id: "<cid>.<seq>", or a scripted op's id (its client's)."""
        sess, cs.session = cs.session, None
        cmd = sess.cmd
        rid = cs.cid if cs.rng is None else f"{cs.cid}.{cmd.seq}"
        self.history.append(OpRecord(
            client=cs.cid, request_id=rid, op=cmd.kind, key=cmd.key,
            value=cmd.value if cmd.is_write() else value, invoke=sess.started,
            response=self.now if outcome == "ok" else None, outcome=outcome,
            site=cs.site, contacted=len(set(sess.contacted))))
        return rid

    # ---------------------------------------------------------------- setup

    def _setup(self) -> None:
        for i in range(self.sc.n):
            self.now = 0
            local = self.clocks[i].local(0)
            self._trace([0, i, local])
            self._apply_outputs(i, self.nodes[i].start(local))
        if self.sc.initial_roster is not None:
            self._push(self.sc.initial_at, "roster_set",
                       self.sc.initial_announcer, self.sc.initial_roster)
        w = self.sc.workload
        self._ops = OpGen(w.keys, w.key_len, w.value_len, w.write_ratio, w.zipf_theta)
        idx = 0
        for site, count in w.clients:
            for _k in range(count):
                cid = f"w{site}.{idx}"
                idx += 1
                self._add_client(cid, site,
                                 random.Random((self.seed * 1_000_003) ^ zlib.crc32(cid.encode())),
                                 closed_loop=w.open_rate_per_s <= 0)
                if w.open_rate_per_s > 0:
                    period = int(1_000_000 / w.open_rate_per_s)
                    t = w.start + (idx % max(1, period))
                    while t < w.start + w.duration:
                        self._push(t, "cbegin", cid)
                        t += period
                else:
                    self._push(w.start + idx * 137, "cbegin", cid)
        end_candidates = [w.start + w.duration if w.clients else 0]
        for ev in self.sc.script:
            if ev.kind in ("write", "read"):
                self._push(ev.at, "script_op", ev)
            elif ev.kind == "crash":
                self._push(ev.at, "crash", ev.node)
            elif ev.kind == "partition":
                self._push(ev.at, "part", ev.groups)
                if ev.heal_at:
                    self._push(ev.heal_at, "part", None)
            elif ev.kind == "roster_set":
                self._push(ev.at, "roster_set", ev.node, ev.roster)
            end_candidates.append(max(ev.at, ev.heal_at))
        self.t_end = max(end_candidates) + 2_000_000

    def _run_script_op(self, ev: ScriptEvent) -> None:
        if ev.after and ev.after not in self.completed_ops:
            self.waiting_script.setdefault(ev.after, []).append(ev)
            return
        cs = self.clients.get(ev.op_id) or self._add_client(ev.op_id, ev.site, None, False)
        self._begin_op(cs, Command("put", ev.key, ev.value, ev.op_id, 1) if ev.kind == "write"
                       else Command("get", ev.key, None, ev.op_id, 1))

    # ----------------------------------------------------------------- loop

    def run(self, until: int | None = None) -> SimResult:
        self._setup()
        t_end = until if until is not None else self.t_end
        trace_on = self.trace_on
        heap, nodes, clocks, alive = self.heap, self.nodes, self.clocks, self.alive
        monitors = self.monitors
        exec_seen, stable_bal = self._exec_seen, self._stable_bal
        while heap:
            t, seq, kind, data = heapq.heappop(heap)
            if t > t_end:
                break
            self.now = t
            # a node event builds its event and goes on to the shared tail below
            ev = None
            if kind == "nmsg":
                node_id, frm, msg = data
                ev = Deliver(frm, msg)
            elif kind == "ntimer":
                node_id, key = data
                tm = self.node_timers[node_id][key]
                if not alive[node_id] or not self._due(tm, seq, kind, data):
                    continue
                tm.seq = 0
                ev = TimerFire(key)
            elif kind == "creq":
                node_id, ev = data
            elif kind == "cmsg":
                cid, msg = data
                cs = self.clients[cid]
                if cs.session is not None:
                    self._client_outputs(cs, cs.session.on_msg(msg, self.now))
            elif kind == "ctimer":
                cs = self.clients.get(data[0])
                if cs is None or not self._due(cs.timer, seq, kind, data) or cs.session is None:
                    continue
                self._client_outputs(cs, cs.session.on_timer(self.now))
            elif kind == "cbegin":
                cs = self.clients[data[0]]
                if cs.session is None:
                    cs.ops_done += 1
                    key, value = self._ops.draw(cs.rng, cs.cid, cs.ops_done)
                    self._begin_op(cs, Command("get" if value is None else "put", key, value,
                                               cs.cid, cs.ops_done))
            elif kind == "script_op":
                self._run_script_op(data[0])
            elif kind == "crash":
                if self.alive[data[0]]:
                    self.alive[data[0]] = False
                    self._n_alive -= 1
                if self._stable_bal.pop(data[0], None) is not None:
                    self._refresh_live_bals()
                self._all_stable_due = True
                self._trace([t, "crash", data[0]])
            elif kind == "part":
                self.net.set_partition(data[0])
                self._trace([t, "part", data[0]])
            elif kind == "roster_set":
                node_id, roster = data
                ev = OperatorRequest("roster_set", "op", roster)
            if ev is None or not alive[node_id]:
                continue
            node, c = nodes[node_id], clocks[node_id]
            local = c.skew + t + int(c.rate * t)  # `ClockModel.local`
            if trace_on:
                self.trace.append(_dumps([t, node_id, local, *to_wire(ev)]))
            outs = node.handle(ev, local)
            if outs:
                self._apply_outputs(node_id, outs)
            if monitors:  # agreement, and at most one stable ballot among the live nodes
                if exec_seen[node_id] < node.log.exec_prefix:
                    self._check_agreement(node_id, node.log)
                sb = node.bal if node.is_stable() else None
                if (sb is not stable_bal.get(node_id) or len(self._live_bals) > 1
                        or self._all_stable_due):
                    self._check_stability(node_id, sb)
        # flush ops still in flight as timeouts
        for cs in self.clients.values():
            if cs.session is not None:
                self._end_op(cs, "timeout", None)
        self.history.sort(key=lambda r: (r.invoke, r.request_id))
        return SimResult(
            history=self.history,
            trace=self.trace,
            metrics=self._metrics(),
            violations=self.violations,
            nodes=self.nodes,
        )

    # --------------------------------------------------------------- metrics

    def _metrics(self) -> dict:
        reads, writes = [], []
        per_site: dict[int, dict[str, list[int]]] = {}
        touch: dict[int, int] = {i: 0 for i in range(self.sc.n)}
        local_reads = 0
        ok_reads = 0
        for r in self.history:
            if r.outcome != "ok" or r.response is None:
                continue
            lat = r.response - r.invoke
            site = per_site.setdefault(r.site, {"read": [], "write": []})
            if r.op == "get":
                reads.append(lat)
                site["read"].append(lat)
                ok_reads += 1
                if r.contacted == 1:
                    local_reads += 1
            else:
                writes.append(lat)
                site["write"].append(lat)
        for i, node in enumerate(self.nodes):
            touch[i] = (
                node.counters.get("reads_local", 0)
                + node.counters.get("reads_held", 0)
                + node.counters.get("reads_redirected", 0)
                + node.counters.get("reads_fallback", 0)
            )
        return {
            "reads": latency_summary(reads),
            "writes": latency_summary(writes),
            "per_site": {
                str(k): {"read": latency_summary(v["read"]), "write": latency_summary(v["write"])}
                for k, v in sorted(per_site.items())
            },
            "locality": {
                "ok_reads": ok_reads,
                "local_reads": local_reads,
                "frac": round(local_reads / ok_reads, 4) if ok_reads else None,
            },
            "touch_counts": touch,
            "node_counters": {str(i): dict(sorted(n.counters.items())) for i, n in enumerate(self.nodes)},
        }


def run_scenario(
    sc: Scenario,
    seed: int,
    trace: bool = False,
    monitors: bool = False,
    mutations: frozenset[str] = frozenset(),
    until: int | None = None,
) -> SimResult:
    """Run one scenario deterministically; same (scenario, seed) gives a
    byte-identical trace."""
    sim = Simulation(sc, seed, trace=trace, monitors=monitors, mutations=mutations)
    return sim.run(until=until)


def inject_interfering_write(sc: Scenario, seed: int, write_rid: str, read_site: int) -> dict:
    """Run a scenario containing one scripted interfering write against a
    stream of local reads; returns the read-latency timeline around the write
    and the write's protocol timestamps extracted from the trace.

    The scenario must script the write with op id `write_rid`, its
    command's client, and keep open-loop readers at `read_site`.
    """
    res = run_scenario(sc, seed, trace=True)
    accept_at = None
    commit_seen_at = None
    slot = None
    for line in res.trace:
        row = json.loads(line)
        if len(row) <= 3:  # a node's start, a crash or a partition
            continue
        ev = from_wire(row, 3)
        if type(ev) is not Deliver:
            continue
        msg = ev.msg
        if type(msg) is Accept and accept_at is None:
            if ev.frm == row[1] and any(c.client == write_rid for c in msg.batch):
                accept_at = row[0]
                slot = msg.slot
        elif type(msg) is Commit and slot is not None and commit_seen_at is None:
            if row[1] == read_site and slot in msg.slots:
                commit_seen_at = row[0]
    timeline = sorted(
        (r.response, r.response - r.invoke, r.contacted)
        for r in res.history
        if r.op == "get" and r.outcome == "ok" and r.site == read_site
    )
    write_rec = next((r for r in res.history if r.request_id == write_rid), None)
    return {
        "result": res,
        "timeline": timeline,
        "accept_at": accept_at,
        "commit_at_read_site": commit_seen_at,
        "write": write_rec,
    }
