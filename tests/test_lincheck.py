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
    Violation,
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
    assert parse_history(h) == {"x": [(0, "get", "x", None, 10, 15)]}
    assert h == before  # the merge does not write into the caller's rows


def test_malformed_history_rejected():
    with pytest.raises(HistoryError):
        parse_history([row("a", "put", "x", "1", 10, 5)])
    # a later send of the same request can make the merged op well formed
    assert parse_history([row("a", "put", "x", "1", 10, 5), row("a", "put", "x", "1", 3, None)])


def test_a_malformed_row_is_named():
    good = row("w", "put", "x", "1", 0, 5)
    no_id = {k: v for k, v in good.items() if k != "request_id"}
    for bad, reason in [
        (no_id, "no request_id"),
        (dict(good, request_id=""), "request_id is not a non-empty string"),
        (dict(good, request_id=None), "request_id is not a non-empty string"),
        (dict(good, op="cas"), "op 'cas' is neither put nor get"),
        (dict(good, key=3), "key is not a string"),
        (dict(good, value=[1]), "value is neither a string nor null"),
        (dict(good, invoke="0"), "invoke is not an int"),
        (dict(good, invoke=0.5), "invoke is not an int"),
        (dict(good, response=True), "response is neither an int nor null"),
        ({k: v for k, v in good.items() if k != "invoke"}, "no invoke"),
        (["w", "put"], "not an object"),
    ]:
        with pytest.raises(HistoryError) as e:
            check([row("r", "get", "x", None, 0, 1), bad])
        assert e.value.row == 1 and e.value.reason.startswith(reason), (bad, str(e.value))
        assert str(e.value).startswith(f"row 1: {reason}")


def test_rows_without_request_ids_are_not_one_op():
    """A stale read: put 1, then put 2, then a get of 1. Rows without a
    request id once merged into one op, and the history then passed."""
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "x", "2", 6, 10),
        row("r1", "get", "x", "1", 11, 12),
    ]
    v = check(h)
    assert v is not None and [o.opid for o in v.witness] == [0, 1, 2]
    for r in h:
        del r["request_id"]
    with pytest.raises(HistoryError, match="row 0: no request_id"):
        check(h)


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


def _random_rows(rng: random.Random, per_key: range) -> list[dict]:
    """Rows over three keys, shuffled together. Most puts write a value of
    their own; some write None or a value another put on the key wrote.
    Reads mostly return the value the key's last put wrote, and otherwise
    any value written to it, or None. Some ops have no response, and some
    end `timeout` or `redirected` with one; both are pending. Some are sent
    again under the same request id, and either send may respond first."""
    rows = []
    i = 0
    for key in ("a", "b", "c"):
        written = [None]
        t = 0
        for _ in range(rng.randrange(per_key.start, per_key.stop)):
            i += 1
            t += rng.randrange(0, 3)
            if rng.random() < 0.5:
                op, roll = "put", rng.random()
                if roll < 0.05:
                    value = None
                elif roll < 0.15:
                    value = rng.choice(written[1:] or ["0"])
                else:
                    value = f"{key}{i}"
                written.append(value)
            else:
                op, value = "get", written[-1] if rng.random() < 0.7 else rng.choice(written)
            for _ in range(1 + (rng.random() < 0.15)):  # a resend shares the id
                invoke = t + rng.randrange(0, 3)
                response = invoke + rng.randrange(0, 6) if rng.random() < 0.8 else None
                outcome = "ok" if response is not None and rng.random() < 0.9 \
                    else rng.choice(["timeout", "redirected"])
                rows.append(row(f"c.{i}", op, key, value, invoke, response, outcome))
    rng.shuffle(rows)
    return rows


def _reference_ops(rows: list[dict]) -> dict[str, list[HistOp]]:
    """Rows that share a request id are one op: the earliest invoke, and the
    earliest response with its value and outcome. Opids count request ids
    in order of first sight."""
    merged: dict[str, dict] = {}
    for r in rows:
        m = merged.setdefault(r["request_id"], dict(r))
        m["invoke"] = min(m["invoke"], r["invoke"])
        if r["response"] is not None and (m["response"] is None or r["response"] < m["response"]):
            m.update(response=r["response"], value=r["value"], outcome=r["outcome"])
    per_key: dict[str, list[HistOp]] = {}
    for opid, m in enumerate(merged.values()):
        response = m["response"] if m["outcome"] == "ok" else None
        per_key.setdefault(m["key"], []).append(
            HistOp(opid, m["op"], m["key"], m["value"], m["invoke"], response))
    return per_key


def _reference_check(rows: list[dict], decide) -> Violation | None:
    """`check` with `decide` as the only per-key decider, and a greedy shrink
    that drops reads and incomplete ops while the rest still fails."""
    per_key = _reference_ops(rows)
    for key in sorted(per_key):
        cur = per_key[key]
        if decide(cur):
            continue
        shrunk = len(cur) > 24
        while not shrunk:
            for i, o in enumerate(cur):
                cand = cur[:i] + cur[i + 1:]
                if not (o.op == "put" and o.complete) and cand and not decide(cand):
                    cur = cand
                    break
            else:
                shrunk = True
        return Violation(key, tuple(cur))
    return None


@pytest.mark.parametrize("per_key, decide", [
    (range(1, 6), check_exhaustive),
    (range(6, 15), _check_register),
], ids=["exhaustive", "search"])
def test_check_matches_a_reference_parse_and_decider(per_key, decide):
    """`check` on random multi-key rows gives the verdict, the witness ops
    (opids included) and the text of a plain reading of the rules, decided
    by the exhaustive oracle on small keys and by the search on larger ones."""
    rng = random.Random(23)
    seen = dict.fromkeys(["violation", "resent", "pending", "shared", "zero", "none", "repeat"], 0)
    trials = 300
    for trial in range(trials):
        rows = _random_rows(rng, per_key)
        got, want = check(rows), _reference_check(rows, decide)
        assert got == want, (trial, rows)
        if got is not None:
            assert all(type(o) is HistOp for o in got.witness)
            assert got.describe() == want.describe()
        ops = [o for ops in _reference_ops(rows).values() for o in ops]
        puts = [o.value for o in ops if o.op == "put"]
        seen["violation"] += got is not None
        seen["resent"] += len(ops) < len(rows)
        seen["pending"] += any(o.response is None for o in ops)
        seen["shared"] += any(o.invoke in {p.response for p in ops} for o in ops)
        seen["zero"] += any(o.response == o.invoke for o in ops)
        seen["none"] += None in puts
        seen["repeat"] += len(set(puts)) < len(puts)
    assert min(seen.values()) > trials // 20 and seen["violation"] < trials * 0.9, seen


def test_a_repeated_put_value_is_decided_by_the_search():
    h = [
        row("w1", "put", "x", "1", 0, 5),
        row("w2", "put", "x", "2", 6, 10),
        row("w3", "put", "x", "1", 11, 15),
        row("r1", "get", "x", "1", 16, 20),
    ]
    assert _check_zones(parse_history(h)["x"]) is None
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
