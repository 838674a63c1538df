"""Bounded systematic exploration of message interleavings.

A fixed small configuration (3 nodes, up to 3 ballot rounds, 2 scripted
writes + 2 scripted reads) is replayed under systematically enumerated
schedule variations:

  * the responder assignment of the initial roster,
  * an optional mid-run roster change,
  * one optional crash (node x instant),
  * up to `MAX_DELAYS` consensus/lease message deliveries postponed by a
    fixed large amount, enumerated over the first `MAX_SEND_INDEX` such
    sends (delay-bounded exploration).

The postponing goes through the simulator's `delay_chooser` hook, which is
asked about every message from one node to another as
`(delay, msg) -> delay`; a delay of None means the message is lost.

Every run is checked for linearizability, agreement, and the
single-stable-roster invariant. The same harness with a seeded mutation
("commit_no_responder_coverage" or "stable_no_thresh") must produce a
counterexample; that is how the checker itself is validated.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from ..lincheck import check
from ..messages import Accept, AcceptNote, AcceptReply, CatchUpReply, CatchUpRequest, Commit
from .harness import Simulation
from .scenario import scenario_from_dict

INTERESTING = (Accept, AcceptReply, AcceptNote, Commit, CatchUpRequest, CatchUpReply)
EXTRA_DELAY = 300_000
MAX_SEND_INDEX = 36
MAX_DELAYS = 2
TIME_BUDGET_S = 110.0


@dataclass(slots=True)
class ExploreConfig:
    responders: tuple[int, ...]
    change: bool  # roster change to responders {1, 2} at 180 ms
    crash: tuple[int, int] | None  # (node, at_us)
    delays: tuple[int, ...] = ()  # interesting-send indices to postpone

    def label(self) -> str:
        parts = [f"resp={list(self.responders)}", f"change={self.change}"]
        if self.crash:
            parts.append(f"crash=n{self.crash[0]}@{self.crash[1] // 1000}ms")
        if self.delays:
            parts.append(f"delayed={list(self.delays)}")
        return " ".join(parts)


@dataclass(slots=True)
class ExploreResult:
    ok: bool
    runs: int
    budget_exhausted: bool
    counterexample: dict | None = None

    def summary(self) -> str:
        if self.ok:
            extra = " (budget exhausted: partial verdict)" if self.budget_exhausted else ""
            return f"no violation in {self.runs} bounded runs{extra}"
        c = self.counterexample or {}
        return (
            f"counterexample after {self.runs} runs: {c.get('config')}\n"
            + "\n".join(c.get("violations", []))
        )


def _scenario_dict(cfg: ExploreConfig) -> dict:
    d = {
        "name": "explore",
        "nodes": 3,
        "rtt_ms": [[0, 20, 20], [20, 0, 20], [20, 20, 0]],
        "config": {
            "hb_send_ms": 150, "hb_fail_ms": 400, "guard_ms": 800, "lease_ms": 800,
            "delta_ms": 40, "hb_fail_jitter": 0.0, "unhold_floor_ms": 60,
        },
        "drift": {"delta_ms": 0},  # clocks at one rate: only the schedule varies
        "initial_roster": {
            "announcer": 0, "at_ms": 5, "leader": 0,
            "ranges": [{"lo": "", "hi": None, "responders": list(cfg.responders)}],
        },
        "events": [
            {"at_ms": 150, "write": {"key": "x", "value": "1", "site": 1, "id": "W1"}},
            {"at_ms": 151, "write": {"key": "x", "value": "2", "site": 1,
                                      "id": "W2", "after": "R2"}},
            {"at_ms": 152, "read": {"key": "x", "site": 2, "id": "R1", "after": "W1"}},
            {"at_ms": 250, "read": {"key": "x", "site": 2, "id": "R2", "after": "W1"}},
        ],
        "workload": {"start_ms": 0, "duration_ms": 0, "clients": [], "op_timeout_ms": 2500},
    }
    if cfg.change:
        d["events"].append({"at_ms": 180, "roster_set": {
            "to_node": 0, "leader": 0,
            "ranges": [{"lo": "", "hi": None, "responders": [1, 2]}]}})
    if cfg.crash:
        d["events"].append({"at_ms": cfg.crash[1] // 1000, "crash": cfg.crash[0]})
    return d


class _Chooser:
    """Postpones the i-th interesting send for every i in `delays`."""

    def __init__(self, delays: tuple[int, ...]) -> None:
        self.delays = set(delays)
        self.idx = 0

    def __call__(self, d, msg):
        if not isinstance(msg, INTERESTING):
            return d
        i = self.idx
        self.idx += 1
        if d is not None and i in self.delays:
            return d + EXTRA_DELAY
        return d


def _one_run(cfg: ExploreConfig, mutations: frozenset[str]) -> list[str]:
    sc = scenario_from_dict(_scenario_dict(cfg))
    sim = Simulation(sc, 0, monitors=True, mutations=mutations, delay_chooser=_Chooser(cfg.delays))
    res = sim.run(until=3_200_000)
    violations = list(res.violations)
    v = check([r.history_row() for r in res.history])
    if v is not None:
        violations.append("linearizability: " + v.describe())
    return violations


def _configs():
    """Every configuration, in the order they are explored: the delay-only
    schedules (0, 1, then 2 postponed deliveries), then one crash combined
    with at most one postponed delivery."""
    delay_sets = [d for k in range(MAX_DELAYS + 1)
                  for d in combinations(range(MAX_SEND_INDEX), k)]
    crashes = [(node, at_ms * 1000) for node in range(3) for at_ms in (160, 300)]
    passes = [(None, delay_sets)] + [(c, delay_sets[:MAX_SEND_INDEX + 1]) for c in crashes]
    for crash, delay_choices in passes:
        for resp in ((), (1,), (2,), (1, 2)):
            for change in (False, True):
                for delays in delay_choices:
                    yield ExploreConfig(resp, change, crash, delays)


def explore_interleavings(
    mutations: frozenset[str] = frozenset(),
    budget_runs: int = 12_000,
) -> ExploreResult:
    """Systematic bounded search; returns the first counterexample if any.

    The configuration space is fixed at 3 nodes and at most 3 ballot rounds
    (initial announcement, one proactive change, one failure-induced change).
    """
    started = time.monotonic()
    runs = 0
    for cfg in _configs():
        if runs >= budget_runs or time.monotonic() - started > TIME_BUDGET_S:
            return ExploreResult(True, runs, True)
        runs += 1
        violations = _one_run(cfg, mutations)
        if violations:
            return ExploreResult(False, runs, False,
                                 {"config": cfg.label(), "violations": violations})
    return ExploreResult(True, runs, False)
