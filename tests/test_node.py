"""Node-level tests of the core's own steps, driven through `Node.handle`."""
import pytest

from bodega.events import ArmTimer, ClientRequest, Deliver, Reply, Send, TimerFire
from bodega.log import SlotStatus
from bodega.messages import (
    Accept,
    AcceptReply,
    CatchUpReply,
    CatchUpRequest,
    ClientReadReply,
    Commit,
    Heartbeat,
)
from bodega.model import Ballot, ClusterConfig, Command, full_range_roster
from bodega.node import MAX_CATCHUP_BATCH, Node

B1, B2, B3 = Ballot(1, 0), Ballot(2, 0), Ballot(3, 0)
NOW = 1_000_000


def _node() -> Node:
    """Node 1 holding slot 1 at B2, nothing at 2, slot 3 at B1, slot 4 at
    B3, and slot 5 committed at B1."""
    node = Node(1, ClusterConfig(n=3))
    for idx, bal in ((1, B2), (3, B1), (4, B3), (5, B1)):
        node.log.record_accept(idx, bal, (Command("put", b"k", b"v%d" % idx, "c", idx),))
    node.log.mark_committed(5)
    return node


@pytest.mark.parametrize("report", [
    lambda upto: Commit(B2, tuple(range(1, upto + 1))),
    lambda upto: Heartbeat(B2, None, commit_upto=upto),
], ids=["Commit", "Heartbeat.commit_upto"])
@pytest.mark.parametrize("upto", [5, 200])
def test_reported_commits_are_committed_or_fetched(report, upto):
    """Slots held at the reported ballot or higher commit; absent slots and
    slots held at a lower ballot are fetched from the reporter, at most
    MAX_CATCHUP_BATCH of them in one CatchUpRequest."""
    node = _node()
    outs = node.handle(Deliver(0, report(upto)), NOW)
    status = {i: s.status for i, s in node.log.slots.items()}
    assert status[1] >= SlotStatus.COMMITTED and status[4] >= SlotStatus.COMMITTED
    assert status[3] == SlotStatus.ACCEPTED
    fetches = [(o.to, o.msg.slots) for o in outs
               if type(o) is Send and type(o.msg) is CatchUpRequest]
    want = ([2, 3] + list(range(6, upto + 1)))[:MAX_CATCHUP_BATCH]
    assert fetches == [(0, tuple(want))]


def test_snapshot_catchup_ships_the_sessions_as_of_its_point():
    """A snapshot at slot 3 ships client c's entry as 3; seq 4, executed
    later in slot 4, is left to the slot itself, or the receiver would skip
    it as a duplicate."""
    node = Node(1, ClusterConfig(n=3))
    for idx in range(1, 5):
        node.log.record_accept(idx, B1, (Command("put", b"k", b"v%d" % idx, "c", idx),))
        node.log.mark_committed(idx)
        node.log.execute_ready()
        if idx == 3:
            node.log.take_snapshot()
    outs = node.handle(Deliver(0, CatchUpRequest((2, 4))), NOW)
    [reply] = [o.msg for o in outs if type(o) is Send and type(o.msg) is CatchUpReply]
    assert reply.snap_upto == 3
    assert reply.snap_sessions == (("c", 3),)
    assert [e[0] for e in reply.entries] == [4]


def test_a_read_held_again_on_a_later_slot_is_dispatched_once():
    """A stable responder re-dispatches the read held on slot 1; slot 2 now
    holds the key's highest write, so the read holds there, and the same
    pass must not dispatch it again. (The pass follows a ballot change, so
    through `handle` the node is not stable in it and no read holds again;
    this pins the rule for the node state where one would.)"""
    node = Node(1, ClusterConfig(n=3))
    node.bal, node.ros = B1, full_range_roster(0, {1})
    node.leases.endowed.update({0: NOW * 2, 1: NOW * 2})
    node.log.record_accept(1, B1, (Command("put", b"k", b"a", "w1", 1),))
    assert node.is_stable()
    assert node.handle(ClientRequest(Command("get", b"k", None, "c", 1)), NOW) == []
    node.log.record_accept(2, B1, (Command("put", b"k", b"b", "w2", 1),))
    assert node._redispatch_pending(NOW) == []
    assert [len(s.pending_reads) for s in node.log.slots.values()] == [0, 1]
    assert node.counters["reads_held"] == 2  # once on arrival, once in the pass


def _put(client: str, value: bytes) -> ClientRequest:
    return ClientRequest(Command("put", b"k", value, client, 1))


def test_an_idle_leader_proposes_at_once_and_batches_behind_a_slot_in_flight():
    """With every proposed slot committed, a put goes out in its own slot
    with no batch timer; puts that arrive while that slot is in flight wait
    for the timer and share the next slot. Once both slots commit, the
    leader is idle again and the next put goes out at once."""
    cfg = ClusterConfig(n=3)
    node = Node(0, cfg)
    node.bal, node.ros, node.leader_ready = B1, full_range_roster(0, {1}), True
    a = _put("a", b"1")
    assert node.handle(a, NOW) == [Send(p, Accept(B1, 1, (a.cmd,))) for p in range(3)]
    b, c = _put("b", b"2"), _put("c", b"3")
    assert node.handle(b, NOW + 10) == [ArmTimer(("batch",), NOW + 10 + cfg.batch_interval)]
    assert node.handle(c, NOW + 20) == []
    fire = NOW + 10 + cfg.batch_interval
    assert node.handle(TimerFire(("batch",)), fire) == [
        Send(p, Accept(B1, 2, (b.cmd, c.cmd))) for p in range(3)]
    for slot, batch in ((1, (a.cmd,)), (2, (b.cmd, c.cmd))):
        node.handle(Deliver(0, Accept(B1, slot, batch)), fire)  # its own send
        for frm in (0, 1):
            node.handle(Deliver(frm, AcceptReply(B1, slot)), fire)
    assert node.log.commit_prefix == 2
    d = _put("d", b"4")
    assert node.handle(d, fire + 10) == [Send(p, Accept(B1, 3, (d.cmd,))) for p in range(3)]
    assert not node.batch_armed


def test_a_reissued_held_read_is_held_and_answered_once():
    """A client's reissue of a read the responder already holds on a slot
    is not held a second time: the slot's commit answers it once."""
    node = Node(1, ClusterConfig(n=3))
    node.bal, node.ros = B1, full_range_roster(0, {1})
    node.leases.endowed.update({0: NOW * 2, 1: NOW * 2})
    node.log.record_accept(1, B1, (Command("put", b"k", b"a", "w1", 1),))
    get = Command("get", b"k", None, "c", 1)
    assert node.handle(ClientRequest(get), NOW) == []
    assert node.handle(ClientRequest(get, fresh=False), NOW + 1) == []
    assert len(node.log.slots[1].pending_reads) == 1
    assert node.counters["reads_held"] == 1
    outs = node.handle(Deliver(0, Commit(B1, (1,))), NOW + 2)
    assert [o.msg for o in outs if type(o) is Reply] == [ClientReadReply(1, b"a", B1, None)]
