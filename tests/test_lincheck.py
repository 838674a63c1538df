"""Checker screens: canned good/bad histories, then agreement with the
exhaustive permutation oracle on small randomized inputs."""
import random

import pytest

from bodega.lincheck import (
    HistOp,
    HistoryError,
    check,
    check_exhaustive,
    parse_history,
    _check_register,
)


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
    ops = parse_history(h)
    assert len(ops) == 1
    assert ops[0].invoke == 10 and ops[0].response == 15


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
    ops = []
    values = ["1", "2", "3", None]
    for i in range(n_ops):
        invoke = rng.randrange(0, 30)
        dur = rng.randrange(1, 10)
        response = invoke + dur if rng.random() < 0.85 else None
        if rng.random() < 0.5:
            ops.append(HistOp(i, "put", "k", str(i), invoke, response))
        else:
            ops.append(HistOp(i, "get", "k", rng.choice(values), invoke, response))
    return ops


def test_matches_exhaustive_oracle_on_small_histories():
    rng = random.Random(7)
    agree = disagree = 0
    for trial in range(300):
        ops = _random_history(rng, rng.randrange(2, 7))
        fast = _check_register(list(ops))
        slow = check_exhaustive(list(ops))
        assert fast == slow, (trial, ops)
        agree += 1
    assert agree == 300


def test_long_single_key_history_checks_without_recursion():
    # the search goes one level deeper per linearized op
    h = [row(f"w{i}", "put", "x", str(i), 2 * i, 2 * i + 1) for i in range(5000)]
    h.append(row("r", "get", "x", "4999", 10_000, 10_001))
    assert check(h) is None
    h[-1] = row("r", "get", "x", "4998", 10_000, 10_001)
    assert check(h) is not None
