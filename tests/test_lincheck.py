"""Checker screens: canned good/bad histories, agreement of both per-key
deciders (zones and the search) with the exhaustive permutation oracle on
small randomized inputs and with each other on larger ones, and a violation
the explorer finds in a seeded mutant."""
import random
import time
from itertools import islice

import pytest

from bodega.lincheck import (
    HistOp,
    HistoryError,
    check,
    check_exhaustive,
    parse_history,
    _check_register,
    _check_zones,
)
from bodega.sim.explore import _configs, _one_run


def row(rid, op, key, value, invoke, response, outcome="ok"):
    return {
        "client": "c", "request_id": rid, "op": op, "key": key,
        "value": value, "invoke": invoke, "response": response,
        "outcome": outcome,
    }


def test_write_then_read_ok():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("r1", "get", "x", "1", 6, 8),
    ]
    assert check(h) is None


def test_stale_read_violation():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("r1", "get", "x", None, 6, 8),
    ]
    v = check(h)
    assert v is not None and v.key == "x"
    assert "no legal linearization" in v.describe()


def test_concurrent_writes_either_order():
    base = [
        row("w1", "put", "x", "1", 0, 10),
        row("w2", "put", "x", "2", 0, 10),
    ]
    assert check(base + [row("r1", "get", "x", "1", 11, 12)]) is None
    assert check(base + [row("r2", "get", "x", "2", 11, 12)]) is None


def test_read_own_overwritten_value_violation():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "x", "2", 6, 10),
        row("r1", "get", "x", "1", 11, 12),
    ]
    assert check(h) is not None


def test_pending_write_may_take_effect():
    h = [
        row("w1", "put", "x", "1", 0, None, outcome="timeout"),
        row("r1", "get", "x", "1", 5, 8),
    ]
    assert check(h) is None


def test_pending_write_may_never_take_effect():
    h = [
        row("w1", "put", "x", "1", 0, None, outcome="timeout"),
        row("r1", "get", "x", None, 5, 8),
    ]
    assert check(h) is None


def test_monotone_reads_per_key():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "x", "2", 6, 10),
        row("r1", "get", "x", "2", 11, 12),
        row("r2", "get", "x", "1", 13, 14),  # goes backwards
    ]
    assert check(h) is not None


def test_duplicate_sends_collapse():
    h = [
        row("r1", "get", "x", None, 10, None, outcome="timeout"),
        row("r1", "get", "x", None, 12, 15),
    ]
    before = [dict(r) for r in h]
    ops = parse_history(h)
    assert len(ops) == 1
    assert ops[0].invoke == 10 and ops[0].response == 15
    assert h == before  # the merge does not write into the caller's rows


def test_malformed_history_rejected():
    with pytest.raises(HistoryError):
        parse_history([row("a", "put", "x", "1", 10, 5)])


def test_multi_key_decomposition():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "y", "9", 0, 5),
        row("r1", "get", "x", "1", 6, 8),
        row("r2", "get", "y", "9", 6, 8),
        row("r3", "get", "y", None, 9, 10),  # stale on y only
    ]
    v = check(h)
    assert v is not None and v.key == "y"


def _random_history(rng: random.Random, n_ops: int) -> list[HistOp]:
    """Puts write distinct values. Timestamps are drawn from a narrow range
    and durations may be 0, so zero-length ops and ops that share a
    timestamp are common: both deciders must treat them as concurrent."""
    ops = []
    values = ["1", "2", "3", None]
    for i in range(n_ops):
        invoke = rng.randrange(0, 16)
        dur = rng.randrange(0, 8)
        response = invoke + dur if rng.random() < 0.85 else None
        if rng.random() < 0.5:
            ops.append(HistOp(i, "put", "k", str(i), invoke, response))
        else:
            ops.append(HistOp(i, "get", "k", rng.choice(values), invoke, response))
    return ops


DECIDERS = {"search": _check_register, "zones": _check_zones}


@pytest.mark.parametrize("decide", DECIDERS.values(), ids=DECIDERS.keys())
def test_matches_exhaustive_oracle_on_small_histories(decide):
    rng = random.Random(7)
    zero_length = shared = 0
    for trial in range(300):
        ops = _random_history(rng, rng.randrange(2, 7))
        fast = decide(list(ops))
        slow = check_exhaustive(list(ops))
        assert fast == slow, (trial, ops)
        zero_length += any(o.response == o.invoke for o in ops)
        ends = {o.response for o in ops}
        shared += any(o.invoke in ends for o in ops)
    assert zero_length > 30 and shared > 30, (zero_length, shared)


def test_zones_match_the_search_on_larger_histories():
    rng = random.Random(11)
    verdicts = []
    for trial in range(5000):
        ops = _random_history(rng, rng.randrange(6, 16))
        verdict = _check_zones(list(ops))
        assert verdict == _check_register(list(ops)), (trial, ops)
        verdicts.append(verdict)
    assert 100 < verdicts.count(True) < 4900, verdicts.count(True)


def test_a_repeated_put_value_is_decided_by_the_search():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "x", "2", 6, 10),
        row("w3", "put", "x", "1", 11, 15),
        row("r1", "get", "x", "1", 16, 20),
    ]
    assert _check_zones(parse_history(h)) is None
    assert check(h) is None
    v = check(h + [row("r2", "get", "x", "2", 21, 22)])
    assert v is not None and v.key == "x"


def _timed_out_puts(read_none_last: bool) -> list[dict]:
    """12 puts that time out, 50 reads of the initial value one after the
    other, a completed put, then a read of one timed-out put's value. The
    search may linearize any subset of the timed-out puts in any order
    before each read, so it exceeded its state budget on this history."""
    h = [row(f"t{i}", "put", "x", f"t{i}", i, None, outcome="timeout") for i in range(12)]
    h += [row(f"r{i}", "get", "x", None, 100 + 10 * i, 105 + 10 * i) for i in range(50)]
    h += [row("w", "put", "x", "w", 700, 705), row("rt", "get", "x", "t3", 710, 715)]
    if read_none_last:
        h.append(row("rn", "get", "x", None, 720, 725))
    return h


def test_timed_out_puts_do_not_blow_up_the_check():
    t0 = time.process_time()
    assert check(_timed_out_puts(read_none_last=False)) is None
    v = check(_timed_out_puts(read_none_last=True))
    assert time.process_time() - t0 < 1.0
    assert v is not None and v.key == "x"


def test_explorer_threshold_mutant_violation_is_pinned():
    """c02's first kill: the config at index 741 under `stable_no_thresh`.
    The text was recorded with the search deciding every key, so the zone
    check and the minimizer that calls it must give the same witness."""
    cfg = next(islice(_configs(), 741, None))
    assert cfg.label() == "resp=[] change=True delayed=[1, 4]"
    assert _one_run(cfg, frozenset({"stable_no_thresh"})) == [
        "linearizability: key 'x' has no legal linearization; minimal sub-history:\n"
        "  put(x)='1' invoke=150000 response=190500\n"
        "  get(x) invoke=250000 response=250500\n"
        "  put(x)='2' invoke=251500 response=292000"
    ]


def test_long_single_key_history_checks_without_recursion():
    # the search goes one level deeper per linearized op
    h = [row(f"w{i}", "put", "x", str(i), 2 * i, 2 * i + 1) for i in range(5000)]
    h.append(row("r", "get", "x", "4999", 10_000, 10_001))
    assert check(h) is None
    h[-1] = row("r", "get", "x", "4998", 10_000, 10_001)
    assert check(h) is not None
