"""The responder's per-slot read rule, `reads.read_at`: one case per branch.

Five nodes (majority 3), leader 0, responders {1, 2} for every key. Each
case builds a log and asks what slot `at` lets a responder serve for b"k".
"""
import pytest

from bodega.log import ConsensusLog
from bodega.model import Ballot, Command, full_range_roster
from bodega.reads import HELD, read_at

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
