"""Per-key linearizability checking over captured histories.

The workload is single-key reads/writes, so the global history decomposes
into independent register histories, and each key is decided on its own.
Op a precedes op b only when a responded strictly before b was invoked;
equal timestamps count as concurrent.

When every put on a key writes its own non-None value, as every workload
here does, each read names the one put it saw, and the key is decided from
its write clusters, or zones, in O(n log n) (`_check_zones`; Gibbons &
Korach, SIAM J. Comput. 1997). A key that repeats a put value falls back to
`_check_register`, an event-order backtracking search over memoized
frontier states whose cost is exponential in the worst case and which
raises `SearchBudgetExceeded` past a fixed state budget. `check_exhaustive`
is the brute-force oracle that both are validated against on small inputs.

An operation with no response is possibly-effective: it may be linearized at
any point after its invocation or dropped entirely.

`parse_history` reads the rows in one pass into each key's ops as plain
tuples in `HistOp`'s field order, and the deciders index those; a `HistOp`
is built only for a failing key's witness. Rows that share a request id are
one op sent more than once, so every row must carry one.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import itemgetter
from typing import NamedTuple

INF = float("inf")


class HistOp(NamedTuple):
    """One op of a history, with the fields of the plain tuples that
    `parse_history` yields, in their order."""
    opid: int
    op: str  # "put" | "get"
    key: str
    value: str | None  # written value for puts, returned value for gets
    invoke: int
    response: int | None  # None = never returned (possibly effective)

    @property
    def resp(self) -> float:
        return INF if self.response is None else self.response

    @property
    def complete(self) -> bool:
        return self.response is not None


class HistoryError(ValueError):
    """A history that cannot be checked. `row` is the index of the row at
    fault in the caller's list, when there is one."""

    def __init__(self, reason: str, row: int | None = None) -> None:
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason = reason
        self.row = row


_FIELDS = itemgetter("request_id", "op", "key", "value", "invoke", "response", "outcome")


def parse_history(rows: list[dict]) -> dict[str, list[tuple]]:
    """Rows as produced by the simulator / bench, one dict per logical op,
    to each key's ops as plain tuples in `HistOp`'s field order, in one
    pass. Rows that share a request id are one op, sent more than once.
    Raises `HistoryError` naming the row for a row without a request id,
    with an op other than put or get, or with an ill-typed field, and for
    an op that responded before it was invoked."""
    per_key: dict[str, list[tuple]] = {}
    first: dict[str, dict] = {}  # request id -> its first row; opids count these
    again: dict[str, list[dict]] = {}  # request id -> its later rows
    for r in rows:
        try:
            rid, op, key, value, invoke, response, outcome = _FIELDS(r)
        except (KeyError, TypeError):  # a field left out, or not an object
            rid, op, key, value, invoke, response, outcome = _row_fields(rows, r)
        if (type(invoke) is not int or type(rid) is not str or not rid
                or (op != "put" and op != "get") or type(key) is not str
                or (value is not None and type(value) is not str)
                or (response is not None and type(response) is not int)):
            _row_fields(rows, r)  # raises, naming the fault
        if rid in first:
            again.setdefault(rid, []).append(r)
            continue
        if outcome != "ok":
            response = None
        elif response is not None and response < invoke:
            again[rid] = []  # decided once all its rows are merged
        ops = per_key.get(key)
        if ops is None:
            ops = per_key[key] = []
        ops.append((len(first), op, key, value, invoke, response))
        first[rid] = r
    if again:
        _merge_repeats(rows, per_key, first, again)
    return per_key


def _row_fields(rows: list[dict], r) -> tuple:
    """A row's fields read one at a time, where value, response and outcome
    default to None, None and "ok". Raises `HistoryError` naming the row and
    its first fault."""
    if not isinstance(r, dict):
        fault = "not an object"
    elif missing := [f for f in ("request_id", "op", "key", "invoke") if f not in r]:
        fault = f"no {missing[0]}"
    else:
        rid, op, key, value, invoke = r["request_id"], r["op"], r["key"], r.get("value"), r["invoke"]
        response = r.get("response")
        if type(rid) is not str or not rid:
            fault = "request_id is not a non-empty string"
        elif op not in ("put", "get"):
            fault = f"op {op!r} is neither put nor get"
        elif type(key) is not str:
            fault = "key is not a string"
        elif value is not None and type(value) is not str:
            fault = "value is neither a string nor null"
        elif type(invoke) is not int:
            fault = "invoke is not an int"
        elif response is not None and type(response) is not int:
            fault = "response is neither an int nor null"
        else:
            return rid, op, key, value, invoke, response, r.get("outcome", "ok")
    raise HistoryError(f"{fault} in {r!r}", _index(rows, r))


def _index(rows: list[dict], r: dict) -> int:
    return next(i for i, x in enumerate(rows) if x is r)


def _merge_repeats(rows: list[dict], per_key: dict[str, list[tuple]],
                   first: dict[str, dict], again: dict[str, list[dict]]) -> None:
    """Merge each repeated request id's rows into its op (earliest invoke,
    earliest success), in a copy, so the caller's rows stay as they were;
    then reject an op, merged or not, that responded before it was invoked."""
    opids = {rid: i for i, rid in enumerate(first)}
    for rid, later in again.items():
        m = dict(first[rid])
        for r in later:
            m["invoke"] = min(m["invoke"], r["invoke"])
            if r.get("response") is not None and (
                m.get("response") is None or r["response"] < m["response"]
            ):
                m["response"] = r["response"]
                m["value"] = r.get("value")
                m["outcome"] = r.get("outcome", "ok")
        response = m.get("response") if m.get("outcome", "ok") == "ok" else None
        if response is not None and response < m["invoke"]:
            raise HistoryError(f"response before invoke in {m!r}", _index(rows, first[rid]))
        opid, ops = opids[rid], per_key[m["key"]]
        ops[bisect_left(ops, opid, key=itemgetter(0))] = (
            opid, m["op"], m["key"], m.get("value"), m["invoke"], response)


@dataclass(frozen=True, slots=True)
class Violation:
    key: str
    witness: tuple[HistOp, ...]

    def describe(self) -> str:
        lines = [f"key {self.key!r} has no legal linearization; minimal sub-history:"]
        for o in sorted(self.witness, key=lambda x: x.invoke):
            resp = "pending" if o.response is None else str(o.response)
            lines.append(
                f"  {o.op}({o.key}){'=' + repr(o.value) if o.value is not None else ''}"
                f" invoke={o.invoke} response={resp}"
            )
        return "\n".join(lines)


def check(rows: list[dict]) -> Violation | None:
    """None when linearizable; otherwise the first failing key's witness.
    Raises `SearchBudgetExceeded` when a key needs the search and the search
    runs out of budget, and `HistoryError` when a row is malformed."""
    per_key = parse_history(rows)
    for key in sorted(per_key):
        ops = per_key[key]
        if not _linearizable(ops):
            return Violation(key, _minimize([HistOp._make(o) for o in ops]))
    return None


def _linearizable(ops: list[tuple]) -> bool:
    """One key's verdict: from its zones when its put values are distinct,
    by the search otherwise."""
    verdict = _check_zones(ops)
    return _check_register(ops) if verdict is None else verdict


def _check_zones(ops: list[tuple]) -> bool | None:
    """Register linearizability from write clusters, in O(n log n); None
    when a put value is None or repeats, so that a read does not name the
    one put it saw. `ops` are `HistOp`s or plain tuples in its field order.

    Incomplete reads are dropped, and so are incomplete puts that no read
    returns; an incomplete put that a read returns responds at +inf. A
    cluster is a put and the reads that return its value; reads of None
    form the initial cluster, whose put lies at -inf. A read fails if no
    put wrote its value or if it responded before its put was invoked.

    Each cluster occupies one contiguous block of any linearization. A
    cluster's zone runs from `lo`, its least response, to `hi`, its
    greatest invoke; when a's `lo` precedes b's `hi`, a's block comes before
    b's. The key fails when two forward zones (`lo < hi`) overlap, or when a
    backward zone `[hi, lo]` lies strictly inside a forward one, since either
    puts two blocks each before the other; it is linearizable otherwise.
    """
    zones: dict[str | None, list] = {}  # value -> [lo, hi, its put's invoke]
    for _, op, _, value, invoke, response in ops:
        if op == "put":
            if value is None or value in zones:
                return None
            # an incomplete put's [+inf, invoke] constrains nothing unless
            # a read returns its value
            zones[value] = [INF if response is None else response, invoke, invoke]
    for _, op, _, value, invoke, response in ops:
        if response is None or op == "put":
            continue
        z = zones.get(value)
        if z is None:
            if value is not None:
                return False  # no put wrote it
            z = zones[None] = [-INF, -INF, -INF]
        if response < z[0]:
            z[0] = response
        if invoke > z[1]:
            z[1] = invoke
    forward = []
    for lo, hi, put_invoke in zones.values():
        if lo < put_invoke:
            return False  # a read responded before its put was invoked
        if lo < hi:
            forward.append((lo, hi))
    forward.sort()
    for (_, prev_hi), (lo, _) in zip(forward, forward[1:]):
        if lo < prev_hi:
            return False
    # forward zones are now disjoint and sorted, so the one that starts last
    # before a backward zone's start is the only one that could contain it
    starts = [lo for lo, _ in forward]
    for lo, hi, _ in zones.values():
        if lo >= hi:
            i = bisect_left(starts, hi) - 1
            if i >= 0 and lo < forward[i][1]:
                return False
    return True


class SearchBudgetExceeded(RuntimeError):
    pass


_STATE_BUDGET = 500_000
_INVOKE_OPID = itemgetter(4, 0)


def _check_register(ops: list[tuple]) -> bool:
    """Register linearizability via depth-first search over the next
    linearized op; `ops` as `_check_zones` takes them.

    State: (set of linearized ops, current register value). An op is
    eligible next if no other un-linearized op responded before it was
    invoked. Incomplete reads constrain nothing and are dropped upfront;
    incomplete writes take effect only if the search chooses to linearize
    them (success requires linearizing exactly the complete ops).

    Ops are numbered in invoke order and a state's op set is a bitmask. Two
    cursors ride along each search path: the first op (by invoke) and the
    first op by response that are not yet linearized. The minimum pending
    response is then found without scanning the remainder, and the
    eligible ops are a prefix of the not-yet-linearized ops in invoke order.
    """
    ops = sorted((o for o in ops if o[5] is not None or o[1] == "put"), key=_INVOKE_OPID)
    n = len(ops)
    complete = 0
    for i, o in enumerate(ops):
        if o[5] is not None:
            complete |= 1 << i
    if not complete:
        return True
    invoke = [o[4] for o in ops]
    value_of = [o[3] for o in ops]
    is_put = [o[1] == "put" for o in ops]
    resp = [INF if o[5] is None else o[5] for o in ops]
    by_resp = sorted(range(n), key=lambda i: (resp[i], i))
    resp_at = [resp[i] for i in by_resp]
    seen: set[tuple[int, str | None]] = set()
    # Depth-first over states, one frame per state on the current path:
    # [done, value, lo, rlo, min pending response, next candidate op]. An
    # explicit stack, since a path is as deep as the history is long.
    stack: list[list] = []
    done, value, lo, rlo = 0, None, 0, 0
    while True:
        if done & complete == complete:
            return True
        state = (done, value)
        if state not in seen:
            if len(seen) > _STATE_BUDGET:
                raise SearchBudgetExceeded(f"{len(seen)} states explored")
            seen.add(state)
            while done >> lo & 1:
                lo += 1
            while done >> by_resp[rlo] & 1:
                rlo += 1
            stack.append([done, value, lo, rlo, resp_at[rlo], lo])
        # the next unexplored successor of the deepest open state
        while stack:
            frame = stack[-1]
            done, value, lo, rlo, min_resp, i = frame
            while i < n and invoke[i] <= min_resp and (
                    done >> i & 1 or not (is_put[i] or value_of[i] == value)):
                i += 1
            if i < n and invoke[i] <= min_resp:
                frame[5] = i + 1
                done |= 1 << i
                if is_put[i]:
                    value = value_of[i]
                break
            stack.pop()
        else:
            return False


def _minimize(ops: list[HistOp]) -> tuple[HistOp, ...]:
    """Greedy shrink: drop reads and incomplete ops while the remainder still
    fails. Complete writes stay, so the witness keeps the values it mentions
    explainable."""
    if len(ops) > 24:
        return tuple(ops)
    cur = list(ops)
    changed = True
    while changed:
        changed = False
        for i in range(len(cur)):
            if cur[i].op == "put" and cur[i].complete:
                continue
            cand = cur[:i] + cur[i + 1 :]
            if cand and not _linearizable(cand):
                cur = cand
                changed = True
                break
    return tuple(cur)


def check_exhaustive(ops: list[HistOp]) -> bool:
    """Oracle: try every permutation consistent with real-time order, with
    every subset choice for incomplete ops. Exponential; keep inputs tiny."""
    complete = [o for o in ops if o.complete]
    pending = [o for o in ops if not o.complete]
    for k in range(len(pending) + 1):
        for extra in combinations(pending, k):
            chosen = complete + [o for o in extra]
            if _any_legal_order(chosen):
                return True
    return False


def _any_legal_order(chosen: list[HistOp]) -> bool:
    if not chosen:
        return True
    for perm in permutations(chosen):
        ok = True
        # real-time: if a responded before b was invoked, a must precede b
        for i, a in enumerate(perm):
            for b in perm[i + 1 :]:
                if b.resp < a.invoke:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        value: str | None = None
        for o in perm:
            if o.op == "put":
                value = o.value
            elif o.complete and o.value != value:
                ok = False
                break
        if ok:
            return True
    return False


def check_file(path: str) -> Violation | None:
    """`check` over a JSON-lines file. A line that is not JSON, and a
    malformed row, raise `HistoryError` naming the line."""
    rows, lines = [], []
    with open(path, "rb") as f:
        for n, line in enumerate(f, 1):
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except ValueError as e:  # not JSON, or not UTF-8
                    raise HistoryError(f"line {n}: not JSON: {e}") from None
                lines.append(n)
    try:
        return check(rows)
    except HistoryError as e:  # names the row: name its line instead
        raise HistoryError(f"line {lines[e.row]}: {e.reason}") from None
