"""The read path's pure parts: the responder's per-slot read rule,
`reads.read_at`, one case per branch, and the client session's retry
bookkeeping.

For `read_at`: five nodes (majority 3), leader 0, responders {1, 2} for
every key. Each case builds a log and asks what slot `at` lets a responder
serve for b"k".
"""
import pytest

from bodega.log import ConsensusLog
from bodega.messages import ClientRedirect, ClientUnavailable, ClientWriteReply
from bodega.model import Ballot, Command, full_range_roster
from bodega.reads import (
    HELD, ClientArm, ClientCache, ClientDone, ClientSend, ClientSession, read_at,
)

B1 = Ballot(1, 0)
ROSTER = full_range_roster(0, {1, 2})
MAJORITY = 3


def put(value: bytes, client: str) -> Command:
    return Command("put", b"k", value, client, 1)


def build(batches, committed=(), executed=False, notes=()):
    """Accept one slot per batch, commit `committed`, execute the committed
    prefix if asked, and give the last slot `notes`."""
    log = ConsensusLog()
    for i, cmd in enumerate(batches, 1):
        log.record_accept(i, B1, (cmd,))
    for i in committed:
        log.mark_committed(i)
    if executed:
        log.execute_ready()
    s = log.slots[len(batches)]
    s.accept_notes |= set(notes)
    return log, s


def snapshot_only():
    log = ConsensusLog()
    log.install_snapshot(4, {b"k": b"S"}, {})
    return log, None


CASES = {
    # no slot writes the key: the snapshot's value
    "snapshot_only": (snapshot_only(), True, b"S"),
    # slot 3 repeats w1 and execution skips it: the executed value is B
    "executed": (build([put(b"A", "w1"), put(b"B", "w2"), put(b"A", "w1")],
                       committed=(1, 2, 3), executed=True), True, b"B"),
    "committed_but_may_be_deduped": (
        build([put(b"A", "w1"), put(b"A", "w1")], committed=(2,)), True, HELD),
    "committed": (build([put(b"A", "w1")], committed=(1,)), True, b"A"),
    "notes_cover_the_responders": (
        build([put(b"A", "w1")], notes=(0, 1, 2)), True, b"A"),
    "notes_at_a_majority_miss_a_responder": (
        build([put(b"A", "w1")], notes=(0, 1, 3)), True, HELD),
    "early_notes_off": (build([put(b"A", "w1")], notes=(0, 1, 2)), False, HELD),
    "uncommitted_with_too_few_notes": (
        build([put(b"A", "w1")], notes=(1, 2)), True, HELD),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_read_at(name):
    (log, s), early_notes, want = CASES[name]
    assert read_at(s, b"k", log, B1, ROSTER, MAJORITY, early_notes) == want


def _write_session():
    """A put from site 1 of three nodes, whose cached roster names leader 0."""
    cache = ClientCache(site=1, n=3)
    cache.learn(B1, full_range_roster(0, {2}))
    return cache, ClientSession(cache, Command("put", b"k", b"v", "w1", 1), started=0)


def test_a_write_answered_after_a_failover_wait_sets_leader_rtt_to_one_round_trip():
    """Leader 0 stays silent; on the timer node 1 redirects the put to the
    new leader 2, which answers 1 ms after the put reached it. The 50 ms
    spent waiting on node 0 is no part of the leader's round trip."""
    cache, sess = _write_session()
    assert sess.begin()[0].target == 0
    assert sess.on_timer(50_000)[0].target == 1
    b2 = Ballot(2, 2)
    outs = sess.on_msg(ClientRedirect(1, 2, b2, full_range_roster(2, {1})), 50_400)
    assert outs[0].target == 2
    assert sess.on_msg(ClientWriteReply(1, b2), 51_400) == [ClientDone("ok", None)]
    assert cache.leader_rtt == 1_000


def test_redirects_are_capped_per_timer_round_not_per_op():
    """Each timer round the session tries one node, which redirects it to a
    node it has not tried this round. Over ten rounds it follows more than
    the 2n redirects one round may take, and the put still completes."""
    cache, sess = _write_session()
    sess.begin()
    now, followed = 0, 0
    for _ in range(10):
        now += 60_000
        sess.on_timer(now)
        target = next(p for p in range(cache.n) if p not in sess.contacted)
        outs = sess.on_msg(ClientRedirect(1, target, B1), now)
        assert [type(o) for o in outs][0] is ClientSend and not sess.done
        followed += 1
    assert followed > 2 * cache.n
    assert sess.on_msg(ClientWriteReply(1, B1), now) == [ClientDone("ok", None)]


def test_an_unavailable_reply_sends_nothing_and_the_timer_retries():
    """A node that knows no leader answers ClientUnavailable: the session
    waits for its timer, which sends the put on to the next node."""
    _cache, sess = _write_session()
    sess.begin()
    assert sess.on_msg(ClientUnavailable(1), 1_000) == []
    outs = sess.on_timer(60_000)
    assert [type(o) for o in outs] == [ClientSend, ClientArm]
    assert outs[0].target == 1 and not sess.done


def test_a_reply_after_the_session_is_done_changes_nothing():
    cache, sess = _write_session()
    sess.begin()
    assert sess.on_msg(ClientWriteReply(1, B1), 1_000) == [ClientDone("ok", None)]
    before = (list(sess.contacted), sess.redirects, sess.sent_at, cache.leader_rtt)
    assert sess.on_msg(ClientWriteReply(1, B1), 2_000) == []
    assert sess.on_msg(ClientRedirect(1, 2, B1), 2_000) == []
    assert sess.on_timer(60_000) == []
    assert (sess.contacted, sess.redirects, sess.sent_at, cache.leader_rtt) == before


def test_redirects_end_the_op_after_2n_of_them_in_one_timer_round():
    """Node ids outside the cluster are never tried, so each redirect to
    one is followed, until the one after the 2n-th ends the op."""
    cache, sess = _write_session()
    sess.begin()
    for k in range(2 * cache.n):
        outs = sess.on_msg(ClientRedirect(1, cache.n + k, B1), 1_000)
        assert outs[0].target == cache.n + k and not sess.done
    outs = sess.on_msg(ClientRedirect(1, 3 * cache.n, B1), 1_000)
    assert outs == [ClientDone("redirected", None)] and sess.done
