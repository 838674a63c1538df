"""Consensus log unit tests: the responder-covering commit rule against a
brute-force oracle, execution order, dedup, and snapshots."""
from itertools import product

from bodega.log import ConsensusLog, SlotStatus
from bodega.model import Ballot, ClusterConfig, Command

B1 = Ballot(1, 0)


def put(key, value, rid):
    return Command("put", key, value, rid)


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
    log.record_accept(1, B1, (put(b"x", b"1", "a"), Command("get", b"x", None, "r")))
    log.mark_committed(1)
    done = log.execute_ready()
    results = dict((c.request_id, v) for c, v in done[0][1])
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
    log.install_snapshot(50, {b"x": b"5"}, {"r1"})
    assert log.exec_prefix == 50 and log.commit_prefix == 50
    assert log.read_value(b"x") == b"5"
    log.install_snapshot(10, {b"x": b"bad"}, set())  # stale install ignored
    assert log.read_value(b"x") == b"5"


def test_snapshot_applied_ids_stop_at_the_snapshot_point():
    log = ConsensusLog()
    for i in range(1, 4):
        log.record_accept(i, B1, (put(b"x", b"%d" % i, f"r{i}"),))
        log.mark_committed(i)
    log.execute_ready()
    log.take_snapshot()
    log.record_accept(4, B1, (put(b"x", b"4", "r4"),))
    log.mark_committed(4)
    log.execute_ready()
    assert "r4" in log.applied_ids
    assert log.snap_applied == {"r1", "r2", "r3"}
    # a node that installs this snapshot at slot 3 still executes r4
    peer = ConsensusLog()
    peer.install_snapshot(log.snap_upto, log.snap_kv, set(log.snap_applied))
    peer.record_accept(4, B1, log.slots[4].batch)
    peer.mark_committed(4)
    peer.execute_ready()
    assert peer.read_value(b"x") == b"4"
    assert peer.snap_applied == {"r1", "r2", "r3"}


def test_accepted_tail():
    log = ConsensusLog()
    log.record_accept(3, B1, (put(b"x", b"3", "c"),))
    log.record_accept(5, B1, (put(b"x", b"5", "e"),))
    log.mark_committed(3)
    tail = log.accepted_tail(3)
    assert [t[0] for t in tail] == [3, 5]
    assert tail[0][3] is True and tail[1][3] is False
