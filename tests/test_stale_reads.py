"""Regression tests for three stale-read faults (A-C), each staged by driving
`Node.handle` through a FIFO message router, plus the randomized-fault seeds
on which they and a fourth (D) were first seen.

A: a client's retried write was proposed again in a later slot, where
   execution skips it as a duplicate, yet responders served its value.
B: a read held on an uncommitted slot was answered from whatever batch later
   replaced that slot's content.
C: an acceptor joined a higher ballot while its lease grants for its own were
   still live, so a stale holder of those grants stayed stable past a commit.
D: a snapshot catch-up shipped request ids applied above its snapshot point,
   so the receiver skipped those writes as duplicates when it executed them
   (snapshots on; staged in test_log.py and test_node.py).
E: a responder whose host ran late counted its grants until their expiry
   timers fired, not until their deadlines, and served a read from before a
   write the others committed once those grants had run out.

The fix for C makes a failover wait out the old grants, as the paper's
failure-change bound says it must; the last two tests cover what that longer
wait exposed in the leader's step-up and in the client session.
"""
from collections import deque

import pytest

from bodega.events import (
    ArmTimer, CancelTimer, ClientRequest, Deliver, OperatorRequest, Reply, Send, TimerFire,
)
from bodega.lincheck import check
from bodega.messages import (
    Accept,
    AcceptReply,
    ClientRedirect,
    ClientWriteReply,
    Commit,
    Revoke,
)
from bodega.model import Ballot, ClusterConfig, Command, full_range_roster
from bodega.node import Node
from bodega.reads import ClientCache, ClientDone, ClientSession
from bodega.sim.harness import run_scenario

from .support import random_fault_scenario

NOW = 1_000_000


class Cluster:
    """n cores wired by a FIFO queue; timers only fire when a test fires them."""

    def __init__(self, n: int, leader: int, responders: set[int]) -> None:
        self.nodes = [Node(i, ClusterConfig(n=n)) for i in range(n)]
        self.queue: deque = deque()
        self.replies: list[tuple[int, Reply]] = []
        self.sent: list[tuple[int, Send]] = []
        self.handle(leader, OperatorRequest("roster_set", "op",
                                            full_range_roster(leader, responders)))
        self.run()

    def handle(self, i: int, ev) -> None:
        for o in self.nodes[i].handle(ev, NOW):
            if isinstance(o, Send):
                self.sent.append((i, o))
                self.queue.append((o.to, i, o.msg))
            elif isinstance(o, Reply):
                self.replies.append((i, o))

    def deliver(self, to: int, frm: int, msg) -> None:
        self.handle(to, Deliver(frm, msg))

    def run(self, drop=lambda to, frm, msg: False) -> None:
        while self.queue:
            to, frm, msg = self.queue.popleft()
            if not drop(to, frm, msg):
                self.deliver(to, frm, msg)

    def take_replies(self, client: str) -> list:
        mine = [(i, o) for i, o in self.replies if o.client == client]
        self.replies = [r for r in self.replies if r not in mine]
        return [o.msg for _i, o in mine]


def put(key: bytes, value: bytes, client: str) -> Command:
    return Command("put", key, value, client, 1)


def read(c: Cluster, node: int, key: bytes, client: str) -> None:
    c.handle(node, ClientRequest(Command("get", key, None, client, 1)))


def test_a_retry_of_a_logged_write_is_not_proposed_again():
    c = Cluster(3, leader=0, responders={1, 2})
    no_accept_replies = lambda to, frm, msg: isinstance(msg, AcceptReply)  # noqa: E731
    c.handle(0, ClientRequest(put(b"k", b"A", "r1")))
    c.handle(0, TimerFire(("batch",)))
    c.run(drop=no_accept_replies)
    # failover to node 1: its step-up re-proposes slot 1, which holds r1
    c.handle(1, OperatorRequest("roster_set", "op", full_range_roster(1, {0, 2})))
    c.run(drop=no_accept_replies)
    new = c.nodes[1]
    assert new.leader_ready and new.log.slots[1].bal == new.bal
    c.sent.clear()
    # the client's retry of r1 reaches the new leader
    c.handle(1, ClientRequest(put(b"k", b"A", "r1"), fresh=False))
    c.handle(1, TimerFire(("batch",)))
    reproposed = [o.msg.slot for _i, o in c.sent if isinstance(o.msg, Accept)
                  and any(cmd.client == "r1" for cmd in o.msg.batch)]
    assert reproposed == [], "a request already in the log was proposed again"
    # the retry is answered when the slot already holding r1 executes
    for p in range(3):
        c.deliver(1, p, AcceptReply(new.bal, 1))
    assert [type(m) for m in c.take_replies("r1")] == [ClientWriteReply]


def test_a_retry_is_proposed_again_once_its_slot_is_replaced():
    c = Cluster(3, leader=0, responders={1, 2})
    c.handle(0, ClientRequest(put(b"k", b"A", "r1")))
    c.handle(0, TimerFire(("batch",)))
    # only node 1 accepts r1 in slot 1
    c.run(drop=lambda to, frm, msg: isinstance(msg, AcceptReply)
          or (isinstance(msg, Accept) and to != 1))
    # node 1 takes over, but its step-up quorum {0, 2} never saw slot 1
    c.handle(1, OperatorRequest("roster_set", "op", full_range_roster(1, {0, 2})))
    c.run(drop=lambda to, frm, msg: to == frm == 1 and type(msg).__name__ == "PrepareReply")
    new = c.nodes[1]
    assert new.leader_ready and new.log.slots[1].bal < new.bal
    c.handle(1, ClientRequest(put(b"k", b"A", "r1"), fresh=False))
    # the next proposal fills slot 1, and r1 is no longer in the log
    c.handle(1, ClientRequest(put(b"j", b"B", "r2")))
    c.handle(1, TimerFire(("batch",)))
    c.run()
    assert not new.log.has_request(put(b"k", b"A", "r1"))
    c.sent.clear()
    c.handle(1, ClientRequest(put(b"k", b"A", "r1"), fresh=False))
    c.handle(1, TimerFire(("batch",)))
    assert any(isinstance(o.msg, Accept) and any(cmd.client == "r1" for cmd in o.msg.batch)
               for _i, o in c.sent)


def test_a_read_anchored_on_a_duplicate_write_holds_for_execution():
    c = Cluster(3, leader=0, responders={1, 2})
    bal = c.nodes[0].bal
    resp = c.nodes[2]
    # slots 1-3 as a failover leaves them: r1, then r2, then r1's retry again
    for slot, cmd in ((1, put(b"k", b"A", "r1")), (2, put(b"k", b"B", "r2")),
                      (3, put(b"k", b"A", "r1"))):
        c.deliver(2, 0, Accept(bal, slot, (cmd,)))
    c.deliver(2, 0, Commit(bal, (2, 3)))
    assert resp.log.exec_prefix == 0 and resp.is_stable()
    read(c, 2, b"k", "g1")
    # slot 3 is committed, but execution will skip its write as a duplicate
    assert c.take_replies("g1") == []
    c.deliver(2, 0, Commit(bal, (1,)))
    replies = c.take_replies("g1")
    assert [m.value for m in replies] == [b"B"]
    read(c, 2, b"k", "g2")
    assert [m.value for m in c.take_replies("g2")] == [b"B"]


def test_b_held_read_is_redispatched_when_its_slot_is_replaced():
    c = Cluster(3, leader=0, responders={1, 2})
    bal = c.nodes[0].bal
    resp = c.nodes[2]
    c.deliver(2, 0, Accept(bal, 1, (put(b"k", b"V0", "w0"),)))
    c.deliver(2, 0, Commit(bal, (1,)))
    c.deliver(2, 0, Accept(bal, 2, (put(b"k", b"V1", "w1"),)))
    read(c, 2, b"k", "g1")
    assert c.take_replies("g1") == [] and resp.log.slots[2].pending_reads
    # node 2's own grants lapse, so it may join a higher ballot, whose
    # step-up fills slot 2 with a different batch
    for p in range(3):
        c.handle(2, TimerFire(("lease", "endowing", p)))
    c.queue.clear()
    higher = Ballot(bal.round + 1, 1)
    c.deliver(2, 1, Accept(higher, 2, (put(b"other", b"X", "w2"),)))
    c.deliver(2, 1, Commit(higher, (2,)))
    values = [m.value for m in c.take_replies("g1")]
    assert values == [b"V0"], values


def test_c_no_accept_above_own_ballot_while_grants_are_live():
    c = Cluster(3, leader=0, responders={1, 2})
    bal = c.nodes[1].bal
    assert all(n.is_stable() for n in c.nodes)
    assert c.nodes[1].leases.endowing
    higher = Ballot(bal.round + 1, 2)
    accept = Accept(higher, 1, (put(b"k", b"v", "w1"),))
    c.sent.clear()
    c.deliver(1, 2, accept)
    out = [o.msg for i, o in c.sent if i == 1]
    assert not any(isinstance(m, AcceptReply) for m in out), \
        "accepted a higher ballot while its grants were live"
    assert any(isinstance(m, Revoke) and m.bal == bal for m in out)
    assert c.nodes[1].promised == bal
    # once every grantee has answered the revoke, the retransmit is accepted
    c.run()
    assert not c.nodes[1].leases.endowing
    c.sent.clear()
    c.deliver(1, 2, accept)
    assert AcceptReply(higher, 1) in [o.msg for i, o in c.sent if i == 1]


class ClockedCluster:
    """n cores on one clock, each with its timers: a message is delivered at
    once, in FIFO order, and `advance` fires the due timers in deadline
    order. A paused node's host handles nothing, and what is sent to it is
    lost."""

    def __init__(self, n: int, leader: int, responders: set[int]) -> None:
        self.nodes = [Node(i, ClusterConfig(n=n)) for i in range(n)]
        self.timers: list[dict] = [{} for _ in range(n)]
        self.now = 0
        self.paused: set[int] = set()
        self.queue: deque = deque()
        self.replies: list[Reply] = []
        for i, node in enumerate(self.nodes):
            self._apply(i, node.start(0))
        self.handle(leader, OperatorRequest("roster_set", "op",
                                            full_range_roster(leader, responders)))

    def _apply(self, i: int, outs: list) -> None:
        for o in outs:
            if type(o) is Send:
                self.queue.append((o.to, i, o.msg))
            elif type(o) is ArmTimer:
                self.timers[i][o.key] = o.deadline
            elif type(o) is CancelTimer:
                self.timers[i].pop(o.key, None)
            elif type(o) is Reply:
                self.replies.append(o)

    def handle(self, i: int, ev) -> None:
        self._apply(i, self.nodes[i].handle(ev, self.now))
        while self.queue:
            to, frm, msg = self.queue.popleft()
            if to not in self.paused:
                self._apply(to, self.nodes[to].handle(Deliver(frm, msg), self.now))

    def advance(self, until: int) -> None:
        while True:
            due = [(at, i, key) for i, timers in enumerate(self.timers) if i not in self.paused
                   for key, at in timers.items() if at <= until]
            if not due:
                break
            at, i, key = min(due, key=lambda d: d[:2])
            del self.timers[i][key]
            self.now = max(self.now, at)
            self.handle(i, TimerFire(key))
        self.now = until


def test_e_a_late_host_counts_its_grants_until_their_deadlines():
    """Responder 2's host pauses for 5 s. Nodes 0 and 1 time it out, wait
    out its grants, adopt a roster without it and commit k=B. Node 2 then
    handles a get of k before its overdue expiry timers, as an asyncio host
    does after a stall: its grants are past their deadlines, so it must not
    serve k=A locally."""
    c = ClockedCluster(3, leader=0, responders={1, 2})
    c.advance(3_000_000)
    c.handle(0, ClientRequest(put(b"k", b"A", "w1")))
    c.advance(3_200_000)
    node2 = c.nodes[2]
    assert node2.is_stable() and node2.log.read_value(b"k") == b"A"
    c.paused.add(2)
    c.advance(7_900_000)
    leader = c.nodes[0].ros.leader
    assert c.nodes[0].bal > node2.bal and 2 not in c.nodes[0].ros.special_nodes()
    c.handle(leader, ClientRequest(put(b"k", b"B", "w2")))
    c.advance(8_200_000)
    assert [type(o.msg) for o in c.replies if o.client == "w2"] == [ClientWriteReply]
    c.paused.discard(2)
    assert node2.leases.endowed and max(node2.leases.endowed.values()) < c.now
    outs = node2.handle(ClientRequest(Command("get", b"k", None, "g1", 1)), c.now)
    assert [type(o.msg) for o in outs] == [ClientRedirect], outs


def test_nack_naming_own_ballot_does_not_stop_the_step_up():
    c = Cluster(3, leader=0, responders={1, 2})
    old = c.nodes[0].bal
    c.handle(0, OperatorRequest("roster_set", "op", full_range_roster(0, {1, 2})))
    c.run(drop=lambda to, frm, msg: to == 0 and type(msg).__name__ == "PrepareReply")
    leader = c.nodes[0]
    assert leader.bal > old and leader.stepup is not None
    # an acceptor answers a retransmitted Accept of the previous ballot
    c.deliver(0, 1, AcceptReply(old, 1, higher=leader.bal))
    assert leader.stepup is not None
    c.deliver(0, 1, AcceptReply(old, 1, higher=Ballot(leader.bal.round + 1, 2)))
    assert leader.stepup is None and not leader.leader_ready


def test_client_redirects_it_does_not_follow_do_not_exhaust_it():
    cache = ClientCache(site=1, n=3)
    cache.learn(Ballot(1, 0), full_range_roster(0, {2}))
    sess = ClientSession(cache, Command("put", b"k", b"v", "w1", 1), started=0,
                         patience=10_000_000)
    sess.begin()
    now = 0
    for _ in range(5 * cache.n):
        now += 60_000
        sess.on_timer(now)
        # the node just tried points back at the leader
        outs = sess.on_msg(ClientRedirect(1, 0, cache.bal), now)
        assert not any(isinstance(o, ClientDone) for o in outs)
    assert not sess.done
    assert sess.on_msg(ClientWriteReply(1, cache.bal), now) == [ClientDone("ok", None)]


# (seed, snapshot_every); the runs with snapshots on met fault D
SEEDS = [(97, 0), (121, 0), (179, 0), (965, 0),
         (34, 5), (69, 5), (86, 5), (121, 5), (153, 5), (179, 5), (190, 5)]


@pytest.mark.parametrize("seed,snapshot_every", SEEDS,
                         ids=[f"{s}-snapshot{k}" if k else str(s) for s, k in SEEDS])
def test_randomized_fault_seeds_that_served_stale_reads(seed, snapshot_every):
    sc = random_fault_scenario(seed)
    sc.config.snapshot_every = snapshot_every
    res = run_scenario(sc, seed=seed, monitors=True)
    assert res.violations == []
    v = check([r.history_row() for r in res.history])
    assert v is None, v.describe()
