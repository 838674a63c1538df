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
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations

INF = float("inf")


@dataclass(slots=True)  # one per history op; unfrozen is cheaper to build
class HistOp:
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
    pass


def parse_history(rows: list[dict]) -> list[HistOp]:
    """Rows as produced by the simulator / bench: one dict per logical op."""
    by_rid: dict[str, dict] = {}
    for r in rows:
        rid = r.get("request_id", "")
        prev = by_rid.get(rid)
        if prev is None:
            by_rid[rid] = r
            continue
        # duplicated sends collapse: earliest invoke, earliest success; the
        # merge goes into a copy, so the caller's rows stay as they were
        prev = by_rid[rid] = dict(prev)
        prev["invoke"] = min(prev["invoke"], r["invoke"])
        if r.get("response") is not None and (
            prev.get("response") is None or r["response"] < prev["response"]
        ):
            prev["response"] = r["response"]
            prev["value"] = r.get("value")
            prev["outcome"] = r.get("outcome", "ok")
    ops = []
    for i, r in enumerate(by_rid.values()):
        invoke = r["invoke"]
        response = r.get("response") if r.get("outcome", "ok") == "ok" else None
        if response is not None and response < invoke:
            raise HistoryError(f"response before invoke in {r!r}")
        ops.append(HistOp(i, r["op"], r["key"], r.get("value"), invoke, response))
    return ops


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
    runs out of budget."""
    per_key: dict[str, list[HistOp]] = {}
    for o in parse_history(rows):
        per_key.setdefault(o.key, []).append(o)
    for key in sorted(per_key):
        if not _linearizable(per_key[key]):
            return Violation(key, _minimize(per_key[key]))
    return None


def _linearizable(ops: list[HistOp]) -> bool:
    """One key's verdict: from its zones when its put values are distinct,
    by the search otherwise."""
    verdict = _check_zones(ops)
    return _check_register(ops) if verdict is None else verdict


def _check_zones(ops: list[HistOp]) -> bool | None:
    """Register linearizability from write clusters, in O(n log n); None
    when a put value is None or repeats, so that a read does not name the
    one put it saw.

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
    puts: dict[str | None, HistOp] = {}
    for o in ops:
        if o.op == "put":
            if o.value is None or o.value in puts:
                return None
            puts[o.value] = o
    zones: dict[str | None, list] = {}  # value -> [lo, hi]
    for o in ops:
        if o.op == "put" or o.response is None:
            continue
        v = o.value
        z = zones.get(v)
        if v is not None:
            w = puts.get(v)
            if w is None or o.response < w.invoke:
                return False
            if z is None:
                z = zones[v] = [w.resp, w.invoke]
        elif z is None:
            z = zones[v] = [-INF, -INF]
        if o.response < z[0]:
            z[0] = o.response
        if o.invoke > z[1]:
            z[1] = o.invoke
    for v, w in puts.items():
        if v not in zones and w.response is not None:
            zones[v] = [w.response, w.invoke]
    forward = sorted((lo, hi) for lo, hi in zones.values() if lo < hi)
    for (_, prev_hi), (lo, _) in zip(forward, forward[1:]):
        if lo < prev_hi:
            return False
    # forward zones are now disjoint and sorted, so the one that starts last
    # before a backward zone's start is the only one that could contain it
    starts = [lo for lo, _ in forward]
    for lo, hi in zones.values():
        if lo >= hi:
            i = bisect_left(starts, hi) - 1
            if i >= 0 and lo < forward[i][1]:
                return False
    return True


class SearchBudgetExceeded(RuntimeError):
    pass


_STATE_BUDGET = 500_000


def _check_register(ops: list[HistOp]) -> bool:
    """Register linearizability via depth-first search over the next
    linearized op.

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
    ops = sorted((o for o in ops if o.complete or o.op == "put"),
                 key=lambda o: (o.invoke, o.opid))
    n = len(ops)
    complete = 0
    for i, o in enumerate(ops):
        if o.complete:
            complete |= 1 << i
    if not complete:
        return True
    invoke = [o.invoke for o in ops]
    value_of = [o.value for o in ops]
    is_put = [o.op == "put" for o in ops]
    by_resp = sorted(range(n), key=lambda i: (ops[i].resp, i))
    resp_at = [ops[i].resp for i in by_resp]
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
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return check(rows)
