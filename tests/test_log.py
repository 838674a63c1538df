"""Consensus log unit tests: the responder-covering commit rule against a
brute-force oracle, execution order, dedup by the session table, and
snapshots."""
from itertools import product

from bodega.log import ConsensusLog, SlotStatus
from bodega.model import Ballot, ClusterConfig, Command

B1 = Ballot(1, 0)


def put(key, value, client, seq=1):
    return Command("put", key, value, client, seq)


def get(key, client, seq):
    return Command("get", key, None, client, seq)


def commit_and_execute(log, *slots):
    for i in slots:
        log.mark_committed(i)
    return log.execute_ready()


def commit_satisfied(replies: set[int], m: int, responders: set[int]) -> bool:
    return len(replies) >= m and responders <= replies


def test_commit_rule_examples():
    # n=5, m=3, responders {0,2,3,4}
    assert not commit_satisfied({0, 1, 2, 3}, 3, {0, 2, 3, 4})  # 4 missing
    assert commit_satisfied({0, 2, 3, 4}, 3, {0, 2, 3, 4})
    assert commit_satisfied({0, 1, 2}, 3, {0})  # leader-only roster


def test_commit_rule_brute_force():
    """Every reply subset against every responder set, n in {3,5,7}."""
    for n in (3, 5, 7):
        m = (n + 1) // 2
        nodes = list(range(n))
        for resp_mask in range(2 ** n):
            responders = {p for p in nodes if resp_mask >> p & 1}
            for reply_mask in range(2 ** n):
                replies = {p for p in nodes if reply_mask >> p & 1}
                expect = len(replies) >= m and responders <= replies
                assert commit_satisfied(replies, m, responders) == expect


def test_record_accept_and_index():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"),))
    log.record_accept(2, B1, (put(b"y", b"2", "b"), put(b"x", b"3", "c")))
    assert log.highest_write_slot(b"x") == 2
    assert log.highest_write_slot(b"y") == 2
    assert log.highest_write_slot(b"z") == 0
    assert log.highest_accepted == 2


def test_reaccept_replaces_batch_and_index():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"),))
    log.record_accept(1, Ballot(2, 1), (put(b"y", b"9", "d"),))
    assert log.highest_write_slot(b"x") == 0
    assert log.highest_write_slot(b"y") == 1
    assert log.slots[1].bal == Ballot(2, 1)


def test_committed_slot_never_overwritten():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"),))
    log.mark_committed(1)
    assert log.record_accept(1, Ballot(5, 1), (put(b"x", b"zzz", "e"),)) is None
    assert log.slots[1].value_of(b"x") == b"1"


def test_in_order_execution_waits_for_gap():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"),))
    log.record_accept(2, B1, (put(b"x", b"2", "b"),))
    log.mark_committed(2)
    assert log.execute_ready() == []
    assert log.commit_prefix == 0
    log.mark_committed(1)
    assert log.commit_prefix == 2
    done = log.execute_ready()
    assert [idx for idx, _ in done] == [1, 2]
    assert log.read_value(b"x") == b"2"


def test_execution_dedups_request_ids():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"),))
    log.record_accept(2, B1, (put(b"x", b"2", "b"), put(b"x", b"1", "a")))
    log.mark_committed(1)
    log.mark_committed(2)
    log.execute_ready()
    # the duplicate of "a" in slot 2 must not clobber the later write "b"
    assert log.read_value(b"x") == b"2"


def test_get_executes_against_current_state():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "a"), get(b"x", "r", 1)))
    log.mark_committed(1)
    done = log.execute_ready()
    results = dict((c.client, v) for c, v in done[0][1])
    assert results["r"] == b"1"


def test_snapshot_truncates_and_serves():
    cfg = ClusterConfig(n=3)
    log = ConsensusLog()
    for i in range(1, 101):
        log.record_accept(i, B1, (put(b"k%d" % (i % 7), b"v%d" % i, f"r{i}"),))
        log.mark_committed(i)
    log.execute_ready()
    upto = log.take_snapshot()
    assert upto == 100
    assert not log.slots
    assert log.highest_write_slot(b"k1") == 0
    # never-rewritten key answered from the snapshot
    assert log.read_value(b"k1") == b"v99"


def test_snapshot_of_empty_log():
    log = ConsensusLog()
    assert log.take_snapshot() == 0
    assert log.snap_kv == {}


def test_value_after_snapshot_wins_over_snapshot():
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"old", "a"),))
    log.mark_committed(1)
    log.execute_ready()
    log.take_snapshot()
    log.record_accept(2, B1, (put(b"x", b"new", "b"),))
    log.mark_committed(2)
    log.execute_ready()
    assert log.read_value(b"x") == b"new"


def test_install_snapshot():
    log = ConsensusLog()
    log.sessions["d"] = 9
    log.install_snapshot(50, {b"x": b"5"}, {"r1": 1, "d": 4})
    assert log.exec_prefix == 50 and log.commit_prefix == 50
    assert log.read_value(b"x") == b"5"
    assert log.sessions == {"r1": 1, "d": 9}  # merged entry by entry, by max
    log.install_snapshot(10, {b"x": b"bad"}, {"r1": 7})  # stale install ignored
    assert log.read_value(b"x") == b"5"
    assert log.sessions == {"r1": 1, "d": 9}


def test_snapshot_sessions_stop_at_the_snapshot_point():
    """A snapshot carries the session table as it stood at its point, not
    as it stands when it is shipped: a node that installs it still executes
    a later slot's command of the same client."""
    log = ConsensusLog()
    for i in range(1, 4):
        log.record_accept(i, B1, (put(b"x", b"%d" % i, "c", i),))
    commit_and_execute(log, 1, 2, 3)
    log.take_snapshot()
    log.record_accept(4, B1, (put(b"x", b"4", "c", 4),))
    commit_and_execute(log, 4)
    assert log.sessions == {"c": 4}
    assert log.snap_sessions == {"c": 3}
    # a node that installs this snapshot at slot 3 still executes (c, 4)
    peer = ConsensusLog()
    peer.install_snapshot(log.snap_upto, log.snap_kv, log.snap_sessions)
    peer.record_accept(4, B1, log.slots[4].batch)
    commit_and_execute(peer, 4)
    assert peer.read_value(b"x") == b"4"
    assert peer.snap_sessions == {"c": 3} and peer.sessions == {"c": 4}


def test_a_put_overtaken_by_a_later_seq_of_its_client_is_skipped():
    """(c, 5) in slot 2 behind (c, 6) in slot 1: execution skips it, so a
    read may not take slot 2's batch as its effect, before slot 1 executes
    or after."""
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"y", b"6", "c", 6),))
    log.record_accept(2, B1, (put(b"x", b"5", "c", 5),))
    assert log.may_be_deduped(log.slots[2], b"x")
    assert not log.may_be_deduped(log.slots[1], b"y")
    commit_and_execute(log, 1)
    assert log.may_be_deduped(log.slots[2], b"x")
    assert commit_and_execute(log, 2) == [(2, [])]
    assert log.read_value(b"x") is None and log.sessions == {"c": 6}
    # the same within one batch: the later seq executes first
    log.record_accept(3, B1, (put(b"z", b"8", "d", 8), put(b"z", b"7", "d", 7)))
    assert log.may_be_deduped(log.slots[3], b"z")
    commit_and_execute(log, 3)
    assert log.read_value(b"z") == b"8"


def test_a_get_below_its_clients_entry_still_executes():
    """A get changes nothing, so it executes whatever its client's entry,
    and its value answers the request if it is still pending."""
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"6", "c", 6),))
    log.record_accept(2, B1, (get(b"x", "c", 5),))
    commit_and_execute(log, 1)
    assert log.applied(get(b"x", "c", 5))
    assert commit_and_execute(log, 2) == [(2, [(get(b"x", "c", 5), b"6")])]
    assert log.sessions == {"c": 6}


def test_the_request_index_holds_unexecuted_slots_only():
    """`has_request` finds a logged retry before it executes, and the table
    covers it after; executed and truncated slots leave the index."""
    log = ConsensusLog()
    log.record_accept(1, B1, (put(b"x", b"1", "c", 1), get(b"x", "d", 1)))
    log.record_accept(2, B1, (put(b"x", b"2", "c", 2),))
    assert log.has_request(put(b"x", b"1", "c", 1)) and log.has_request(get(b"x", "d", 1))
    assert not log.has_request(put(b"x", b"3", "c", 3))
    assert log.rid_index == {"c": [(1, 1), (2, 2)], "d": [(1, 1)]}
    commit_and_execute(log, 1)
    assert log.rid_index == {"c": [(2, 2)]}
    assert log.has_request(put(b"x", b"1", "c", 1))
    log.record_accept(2, Ballot(2, 1), (put(b"y", b"9", "e", 1),))  # replaced
    assert log.rid_index == {"e": [(1, 2)]}
    peer_sessions = {"c": 1, "d": 1, "e": 1}
    log.install_snapshot(2, {b"x": b"1", b"y": b"9"}, peer_sessions)
    assert log.rid_index == {} and log.sessions == peer_sessions


def test_accepted_tail():
    log = ConsensusLog()
    log.record_accept(3, B1, (put(b"x", b"3", "c"),))
    log.record_accept(5, B1, (put(b"x", b"5", "e"),))
    log.mark_committed(3)
    tail = log.accepted_tail(3)
    assert [t[0] for t in tail] == [3, 5]
    assert tail[0][3] is True and tail[1][3] is False
