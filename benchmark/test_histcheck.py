"""Hand-made histories for the benchmark's own checker, each with its
verdict worked out by hand in the comment above it.

Run with `python3 -m pytest benchmark/test_histcheck.py`.
"""
from histcheck import Op, check_history, final_values


def put(c, v, inv, resp, key=b"k"):
    return Op(c, "put", key, v, inv, resp)


def get(c, v, inv, resp, key=b"k"):
    return Op(c, "get", key, v, inv, resp)


def test_linearizable_history_passes():
    # a: put 1 [0,10]; b: read [5,8] overlaps it and may see 1 or the
    # initial value; c: put 2 [12,20]; a: read [15,18] overlaps put 2 and
    # sees 1; b: read [21,25] after both puts sees 2. A legal order:
    # get(None) put1 get(1) put2 get(2)... with a's read before put 2.
    h = [put("a", b"1", 0, 10), get("b", None, 5, 8), put("c", b"2", 12, 20),
         get("a", b"1", 15, 18), get("b", b"2", 21, 25)]
    assert check_history(h) == []


def test_stale_read_is_flagged():
    # put 1 [0,10] then put 2 [12,20]; a read [21,25] that returns 1 saw a
    # value that put 2 overwrote before the read began.
    h = [put("a", b"1", 0, 10), put("a", b"2", 12, 20), get("b", b"1", 21, 25)]
    assert len(check_history(h)) == 1
    assert "overwritten" in check_history(h)[0]


def test_stale_initial_value_is_flagged():
    # put 1 finished at 10; a read starting at 11 may not return empty.
    h = [put("a", b"1", 0, 10), get("b", None, 11, 12)]
    assert ["overwritten" in p for p in check_history(h)] == [True]


def test_phantom_read_is_flagged():
    # no put ever wrote 9
    h = [put("a", b"1", 0, 10), get("b", b"9", 11, 12)]
    assert ["never written" in p for p in check_history(h)] == [True]


def test_read_from_the_future_is_flagged():
    # the read returned at 4, before put 1 was invoked at 5
    h = [get("b", b"1", 0, 4), put("a", b"1", 5, 10)]
    assert ["written only at" in p for p in check_history(h)] == [True]


def test_new_old_inversion_is_flagged():
    # put 1 [0,2], put 2 [3,30] in flight; read [4,6] sees 2, a later read
    # [7,8] sees 1: 1 precedes 2 in every order, so the second read is old.
    h = [put("a", b"1", 0, 2), put("a", b"2", 3, 30),
         get("b", b"2", 4, 6), get("c", b"1", 7, 8)]
    assert ["older than" in p for p in check_history(h)] == [True]


def test_pending_write_may_or_may_not_show():
    # put 1 never returned: reads before and after may both see it or not,
    # but once seen, a later read may not return the initial value.
    h = [put("a", b"1", 0, None), get("b", None, 5, 6), get("c", b"1", 7, 8),
         get("b", b"1", 9, 10)]
    assert check_history(h) == []
    h.append(get("c", None, 11, 12))
    assert ["older than" in p for p in check_history(h)] == [True]


def test_two_ops_in_flight_are_flagged():
    h = [put("a", b"1", 0, 10), get("a", b"1", 5, 12)]
    assert ["two ops in flight" in p for p in check_history(h)] == [True]
    # an op that never returned ok ends when the client gives up
    assert check_history([put("a", b"1", 0, None), get("a", b"1", 5, 12)]) == []


def test_keys_are_independent():
    h = [put("a", b"1", 0, 10, key=b"x"), get("b", None, 11, 12, key=b"y")]
    assert check_history(h) == []


def test_final_values_are_the_maximal_puts():
    # put 1 [0,10] is followed by put 2 [12,20]; put 3 [15,30] overlaps
    # put 2, so a read after all of them may see 2 or 3, never 1.
    h = [put("a", b"1", 0, 10), put("a", b"2", 12, 20), put("b", b"3", 15, 30)]
    assert final_values(h) == {b"k": {b"2", b"3"}}
