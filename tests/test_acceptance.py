"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -v -s`).

Expected values marked "derived by hand" below are computed from the
scenario's delay matrix before looking at simulator output; the derivations
are spelled out in comments next to the assertions.
"""
import json
import time
from itertools import combinations, product

from bodega.lincheck import check
from bodega.model import Ballot, full_range_roster
from bodega.node import Node
from bodega.log import LogSlot
from bodega.model import ClusterConfig, Command
from bodega.sim.explore import explore_interleavings
from bodega.sim.harness import Simulation, inject_interfering_write, run_scenario
from bodega.sim.scenario import latency_expectation, scenario_from_dict

from .lease_pair import LeasePair
from .support import geo_scenario, random_fault_scenario, sym


def _report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS — {name}: {detail}")


def test_c01_linearizability_under_randomized_faults():
    """1000 seeded runs: 5 nodes, 10 clients, 10% writes, <=2 crashes,
    random partitions, drift at the bound; every history linearizable."""
    t0 = time.time()
    failures = []
    runs = 1000
    for seed in range(runs):
        sc = random_fault_scenario(seed)
        res = run_scenario(sc, seed=seed, monitors=True)
        if res.violations:
            failures.append((seed, res.violations[0]))
            continue
        v = check([r.history_row() for r in res.history])
        if v is not None:
            failures.append((seed, v.describe()))
    elapsed = time.time() - t0
    assert not failures, failures[:3]
    assert elapsed < 300, f"budget exceeded: {elapsed:.0f}s"
    _report(1, "randomized fault linearizability",
            f"{runs} runs, 0 violations, {elapsed:.0f}s")


def test_c02_bounded_exploration_and_seeded_mutants():
    t0 = time.time()
    clean = explore_interleavings()
    assert clean.ok and not clean.budget_exhausted, clean.summary()
    mut_a = explore_interleavings(mutations=frozenset({"commit_no_responder_coverage"}))
    assert not mut_a.ok, "commit-coverage mutant must produce a counterexample"
    mut_b = explore_interleavings(mutations=frozenset({"stable_no_thresh"}))
    assert not mut_b.ok, "threshold mutant must produce a counterexample"
    elapsed = time.time() - t0
    assert elapsed < 120, f"budget exceeded: {elapsed:.0f}s"
    _report(2, "bounded exploration",
            f"clean {clean.runs} runs ok; mutants found in {mut_a.runs}/{mut_b.runs} runs; "
            f"{elapsed:.0f}s")


def test_c03_local_read_locality():
    t0 = time.time()
    out = {}
    for ratio, floor in ((0.01, 0.99), (0.10, 0.95)):
        sc = geo_scenario(ratio)
        res = run_scenario(sc, seed=31)
        loc = res.metrics["locality"]
        assert loc["ok_reads"] > 500
        assert loc["frac"] >= floor, (ratio, loc)
        out[ratio] = loc["frac"]
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(3, "read locality on the wide-area topology",
            f"1% writes: {out[0.01]:.4f} local (>=0.99); "
            f"10% writes: {out[0.10]:.4f} local (>=0.95); {elapsed:.1f}s")


def _degradation_scenario(early_notes: bool) -> dict:
    # one-way delays: leader 0 -> {1,2,3,4} = 10,20,25,30 ms; 40 ms between
    # any two followers. RTTs are twice that.
    rtt = [[0, 20, 40, 50, 60],
           [20, 0, 80, 80, 80],
           [40, 80, 0, 80, 80],
           [50, 80, 80, 0, 80],
           [60, 80, 80, 80, 0]]
    return {
        "name": "degradation", "nodes": 5, "rtt_ms": rtt,
        "config": {"unhold_floor_ms": 500, "early_notes": early_notes},
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": [{"lo": "", "hi": None, "responders": [0, 4]}]},
        "workload": {"start_ms": 1000, "duration_ms": 400, "keys": 1, "key_len": 2,
                     "write_ratio": 0.0, "clients": [{"site": 4, "count": 1}],
                     "mode": {"open_rate_per_s": 500}},
        "events": [{"at_ms": 1150, "write": {"key": "k0", "value": "X", "site": 0, "id": "wx"}}],
    }


def test_c04_degradation_window():
    """Derived by hand from the matrix, with T = the Accept broadcast instant:
    node 4 accepts at T+30 and self-notes; the leader's note arrives T+30;
    node 1's note T+10+40=T+50; node 2's T+60; node 3's T+65. m=3rd note =
    T+50, so held reads release at T+50 (+0.25ms client leg). The commit
    needs replies from responders {0,4}: slowest is 4 at T+60, and the Commit
    reaches node 4 at T+90; with early notes off that is the release."""
    out = inject_interfering_write(
        scenario_from_dict(_degradation_scenario(True)), seed=6,
        write_rid="wx", read_site=4)
    T = out["accept_at"]
    held = [(fin, lat) for fin, lat, _ in out["timeline"] if lat > 2_000]
    assert held, "the interfering write must hold some reads"
    for fin, _lat in held:
        assert abs(fin - (T + 50_000)) < 2_000, (fin - T)
    assert abs(out["commit_at_read_site"] - (T + 90_000)) < 2_000
    assert check([r.history_row() for r in out["result"].history]) is None

    out2 = inject_interfering_write(
        scenario_from_dict(_degradation_scenario(False)), seed=6,
        write_rid="wx", read_site=4)
    T2 = out2["accept_at"]
    held2 = [(fin, lat) for fin, lat, _ in out2["timeline"] if lat > 2_000]
    assert held2
    for fin, _lat in held2:
        assert abs(fin - (T2 + 90_000)) < 2_000, (fin - T2)
    assert check([r.history_row() for r in out2["result"].history]) is None
    _report(4, "degradation window",
            f"early release at T+{(held[0][0]-T)/1000:.1f}ms (expect 50±2); "
            f"commit release at T+{(held2[0][0]-T2)/1000:.1f}ms (expect 90±2)")


def test_c05_roster_change_latencies():
    # regular change: symmetric 20 ms one-way delays; stability within two
    # message rounds (2 x 40 ms RTT = 80 ms) plus one heartbeat of slack
    d = {
        "name": "c5a", "nodes": 5, "rtt_ms": sym(5, 40),
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": [{"lo": "", "hi": None, "responders": [2, 3, 4]}]},
        "events": [{"at_ms": 2000, "roster_set": {
            "to_node": 0, "leader": 0,
            "ranges": [{"lo": "", "hi": None, "responders": [1, 2]}]}}],
    }
    sim = Simulation(scenario_from_dict(d), seed=7, monitors=True)
    sim.run(until=4_000_000)
    assert all(n.bal == Ballot(2, 0) and n.is_stable() for n in sim.nodes)
    regular_us = sim.all_stable_at[(2, 0)] - 2_000_000
    assert regular_us <= 80_000 + sim.cfg.t_hb_send, regular_us

    # failure-induced change with the paper's wide-area defaults: writes
    # resume within t_hb_fail + t_lease + t_delta + 2 rounds of the crash
    d2 = {
        "name": "c5b", "nodes": 5, "rtt_ms": sym(5, 40),
        "config": {"hb_send_ms": 120, "hb_fail_ms": 1200, "guard_ms": 2500,
                   "lease_ms": 2500, "delta_ms": 100, "hb_fail_jitter": 0.0},
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": [{"lo": "", "hi": None, "responders": [2, 3, 4]}]},
        "workload": {"start_ms": 800, "duration_ms": 7000, "keys": 4,
                     "write_ratio": 0.5, "clients": [{"site": 0, "count": 2}],
                     "op_timeout_ms": 9000},
        "events": [{"at_ms": 1500, "crash": 4}],
    }
    sim2 = Simulation(scenario_from_dict(d2), seed=8, monitors=True)
    res2 = sim2.run(until=9_500_000)
    assert check([r.history_row() for r in res2.history]) is None
    crash = 1_500_000
    resumed = [r.response for r in res2.history
               if r.op == "put" and r.outcome == "ok" and r.response and r.response > crash
               and r.invoke > crash]
    assert resumed, "writes must resume after the failure-induced change"
    resume_us = min(resumed) - crash
    # 1200 + 2500 + 100 ms + 2 rounds (160 ms) + client/batch slack
    bound = 1_200_000 + 2_500_000 + 100_000 + 160_000 + 250_000
    assert resume_us <= bound, resume_us
    assert resume_us > 2_500_000, "resume cannot precede lease expiry"
    _report(5, "roster change latencies",
            f"regular change stable in {regular_us/1000:.1f}ms "
            f"(<= 80 + hb {sim.cfg.t_hb_send/1000:.0f}ms); "
            f"failure change resumed writes in {resume_us/1000:.0f}ms (<= {bound/1000:.0f}ms)")


def test_c06_commit_condition_conformance():
    """leader_commit_check vs the two-conjunct rule, exhaustively."""
    t0 = time.time()
    checked = 0
    for n in (3, 5, 7):
        cfg = ClusterConfig(n=n)
        node = Node(0, cfg)
        m = cfg.majority
        slot = LogSlot(1, Ballot(1, 0), (Command("put", b"k", b"v", "r", 1),))
        for resp_mask in range(2 ** n):
            responders = frozenset(p for p in range(n) if resp_mask >> p & 1)
            node.ros = full_range_roster(0, responders)
            want_resp = responders | {0}  # the leader is an implicit responder
            for reply_mask in range(2 ** n):
                replies = {p for p in range(n) if reply_mask >> p & 1}
                slot.accept_replies = set(replies)
                expect = len(replies) >= m and want_resp <= replies
                assert node._commit_ok(slot) == expect, (n, responders, replies)
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0, elapsed
    _report(6, "commit-condition conformance",
            f"{checked} (responder set, reply set) cases, {elapsed * 1000:.0f}ms")


def test_c07_stable_condition_conformance():
    """is_stable vs brute-force size-m subset enumeration, exhaustive for
    n <= 7 over threshold values {0,1,2} and committed prefixes {0,1,2}."""
    from bodega.leases import LeaseEngine

    t0 = time.time()
    checked = 0
    for n in (3, 5, 7):
        cfg = ClusterConfig(n=n)
        m = cfg.majority
        for mask in range(2 ** n):
            endowed = [p for p in range(n) if mask >> p & 1]
            for vals in product(range(3), repeat=len(endowed)):
                e = LeaseEngine(0, cfg)
                for p in endowed:
                    e.endowed[p] = 1 << 60
                thresh = dict(zip(endowed, vals))
                e.thresh.update(thresh)
                for prefix in range(3):
                    brute = len(endowed) >= m and any(
                        all(thresh[p] <= prefix for p in sub)
                        for sub in combinations(endowed, m)
                    )
                    assert e.is_stable(prefix, 0) == brute, (n, thresh, prefix)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, elapsed
    _report(7, "stable-condition conformance", f"{checked} cases, {elapsed:.1f}s")


def test_c08_lease_safety_under_drift():
    """10^4 randomized renew/revoke/expire sequences with both clocks at the
    ±drift envelope; the grantor-side expiry never precedes the grantee's."""
    t0 = time.time()
    bad = []
    for seed in range(10_000):
        v = LeasePair(seed).run(horizon=1_800_000)
        if v:
            bad.append((seed, v[0]))
    assert not bad, bad[:3]
    # the harness itself must be able to catch a margin bug
    caught = sum(bool(LeasePair(s, break_grantee_margin=True).run(horizon=1_800_000))
                 for s in range(40))
    assert caught > 0, "harness failed its own soundness screen"
    elapsed = time.time() - t0
    _report(8, "lease safety under drift",
            f"10000 sequences, 0 violations (screen caught {caught}/40 seeded bugs); "
            f"{elapsed:.0f}s")


def test_c09_leader_lease_degeneracy():
    """Leader-only roster: the leader serves reads locally with no quorum
    traffic and followers redirect; a remote client's steady-state read cost
    is one leader round trip (l)."""
    d = {
        "name": "c9", "nodes": 5, "rtt_ms": sym(5, 40),
        "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                           "ranges": []},
        "workload": {"start_ms": 800, "duration_ms": 1500, "keys": 5,
                     "write_ratio": 0.0,
                     "clients": [{"site": 0, "count": 1}, {"site": 3, "count": 1}]},
    }
    sc = scenario_from_dict(d)
    sim = Simulation(sc, seed=9, monitors=True)
    res = sim.run()
    assert check([r.history_row() for r in res.history]) is None
    exp = latency_expectation(sc, client_site=3, leader=0)
    remote = [r.response - r.invoke for r in res.history
              if r.site == 3 and r.outcome == "ok" and r.invoke > 1_200_000]
    assert remote, "remote client must complete steady-state reads"
    mean = sum(remote) / len(remote)
    # steady state: client cached the roster, reads go straight to the leader
    assert abs(mean - exp.l) < 4_000, (mean, exp.l)
    leader = sim.nodes[0]
    assert leader.counters.get("reads_local", 0) > 0
    assert leader.counters.get("proposals", 0) == 0, "reads must not reach the log"
    for i in (1, 2, 3, 4):
        assert sim.nodes[i].counters.get("reads_local", 0) == 0
    assert sim.nodes[3].counters.get("reads_redirected", 0) > 0
    _report(9, "leader-lease degeneracy",
            f"remote read mean {mean/1000:.2f}ms ≈ l={exp.l/1000:.0f}ms; "
            "followers redirect, zero quorum messages on reads")


def test_c10_auto_tuner_thresholds():
    from bodega.control import responder_choice

    # 96% reads with site shares 50/30/20% -> add {0,1}; 21% vs 19% share
    # split at the strict 20% threshold; 94% reads -> add nothing
    c96 = {0: [48, 4], 1: [29, 0], 2: [19, 0]}
    assert responder_choice(c96) == {0, 1}
    c94 = {0: [94, 6]}
    assert responder_choice(c94) is None
    c21 = {0: [21, 0], 1: [79, 0]}
    assert responder_choice(c21) == {0, 1}
    c19 = {0: [19, 0], 1: [81, 0]}
    assert responder_choice(c19) == {1}
    exactly95 = {0: [95, 5]}
    assert responder_choice(exactly95) is None
    exactly20 = {0: [50, 4], 1: [30, 0], 2: [20, 0]}
    assert responder_choice(exactly20) == {0, 1}
    _report(10, "auto-tuner thresholds",
            "96/94% read ratios and 21/19% site shares decide exactly at the strict bounds")


def test_c11_core_parity_and_determinism():
    import asyncio

    from .support import random_fault_scenario as rfs
    from .test_service import cluster_configs, fresh_node

    # identical (scenario, seed) -> byte-identical traces
    sc = rfs(3)
    a = run_scenario(rfs(3), seed=3, trace=True)
    b = run_scenario(rfs(3), seed=3, trace=True)
    assert a.trace and a.trace == b.trace
    assert a.digests == b.digests

    # a daemon-recorded event log replays to identical per-node digests
    from bodega.model import full_range_roster as frr
    from bodega.service.client import KvClient, ctl_request
    from bodega.service.daemon import Daemon

    async def main():
        cfgs = cluster_configs(3, record_events=True)
        daemons = [Daemon(c) for c in cfgs]
        for d in daemons:
            await d.start()
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", frr(0, {1, 2}))
            assert rep.ok
            await asyncio.sleep(0.4)
            cli = KvClient(addrs, site=1, cid="c11", op_timeout_s=5.0)
            for i in range(10):
                assert (await cli.put(b"k%d" % (i % 3), b"v%d" % i))[0] == "ok"
                assert (await cli.get(b"k%d" % (i % 3)))[0] == "ok"
            await cli.close()
        finally:
            logs = [list(d.event_log) for d in daemons]
            digests = [d.node.state_digest() for d in daemons]
            for d in daemons:
                await d.stop()
        for i in range(3):
            assert fresh_node(cfgs[i]).replay(logs[i]) == digests[i], f"node {i} replay diverged"
        return sum(len(l) for l in logs)

    n_events = asyncio.run(main())
    _report(11, "core parity & determinism",
            f"byte-identical traces ({len(a.trace)} lines); "
            f"daemon replay of {n_events} recorded events reproduced all 3 digests")
