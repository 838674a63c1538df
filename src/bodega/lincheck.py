"""Per-key linearizability checking over captured histories.

The workload is single-key reads/writes, so the global history decomposes
into independent register histories. The search is event-order backtracking
with memoized frontier states; `check_exhaustive` is the brute-force oracle
used to validate it on small inputs.

An operation with no response is possibly-effective: it may be linearized at
any point after its invocation or dropped entirely.
"""
from __future__ import annotations

import json
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
            by_rid[rid] = dict(r)
        else:
            # duplicated sends collapse: earliest invoke, earliest success
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
        response = r.get("response")
        outcome = r.get("outcome", "ok")
        if outcome != "ok":
            response = None
        if response is not None and response < invoke:
            raise HistoryError(f"response before invoke in {r!r}")
        ops.append(HistOp(
            opid=i,
            op=r["op"],
            key=r["key"],
            value=r.get("value"),
            invoke=invoke,
            response=response,
        ))
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
    """None when linearizable; otherwise the first failing key's witness."""
    ops = parse_history(rows)
    per_key: dict[str, list[HistOp]] = {}
    for o in ops:
        per_key.setdefault(o.key, []).append(o)
    for key in sorted(per_key):
        if not _check_register(per_key[key]):
            return Violation(key, _minimize(per_key[key]))
    return None


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
            if cand and not _check_register(cand):
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
