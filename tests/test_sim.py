"""Simulator contracts: determinism, clock drift bound, scenario validation,
the basic network model semantics, and recorded traces."""
import dataclasses
import hashlib
import json

import pytest

from bodega.events import Deliver, Reply
from bodega.messages import Accept
from bodega.node import Node
from bodega.service.config import ConfigError, node_config_from_dict
from bodega.sim.explore import _configs
from bodega.sim.harness import ClockModel, NetworkModel, Simulation, run_scenario
from bodega.sim.scenario import (
    ScenarioError,
    latency_expectation,
    load_scenario,
    scenario_from_dict,
)

from .support import DROP, geo_scenario, op_row, random_fault_scenario, tuned_geo5, with_entry

SYM20 = {
    "name": "sym20",
    "nodes": 5,
    "rtt_ms": [[0 if i == j else 20 for j in range(5)] for i in range(5)],
    "initial_roster": {"announcer": 0, "at_ms": 10, "leader": 0,
                       "ranges": [{"lo": "", "hi": None, "responders": [2, 3, 4]}]},
    "workload": {"start_ms": 500, "duration_ms": 1000, "keys": 10, "write_ratio": 0.2,
                 "clients": [{"site": 0, "count": 1}, {"site": 3, "count": 1}]},
}

# zipf keys, open-loop arrivals and a think time: the workload generator's
# other branches, which SYM20 and the scenarios below leave unused
ZIPF_OPEN = dict(SYM20, name="zipf-open", workload={
    "start_ms": 500, "duration_ms": 1000, "keys": 40, "write_ratio": 0.2,
    "distribution": {"zipf": 0.99}, "mode": {"open_rate_per_s": 40}, "think_ms": 5,
    "clients": [{"site": 1, "count": 2}, {"site": 4, "count": 1}]})


def test_same_seed_identical_trace():
    sc = scenario_from_dict(SYM20)
    a = run_scenario(sc, seed=11, trace=True)
    b = run_scenario(scenario_from_dict(SYM20), seed=11, trace=True)
    assert a.trace == b.trace
    assert "\n".join(a.trace) == "\n".join(b.trace)


def test_different_seed_different_trace():
    sc = scenario_from_dict(SYM20)
    a = run_scenario(sc, seed=11, trace=True)
    b = run_scenario(scenario_from_dict(SYM20), seed=12, trace=True)
    assert a.trace != b.trace


def test_trace_is_json_lines_with_timestamps():
    sc = scenario_from_dict(SYM20)
    res = run_scenario(sc, seed=3, trace=True)
    ts = []
    for line in res.trace:
        row = json.loads(line)
        assert isinstance(row[0], int)
        ts.append(row[0])
    assert ts == sorted(ts)


def test_clock_drift_bound_over_lease_window():
    sc = scenario_from_dict(SYM20)
    sim = Simulation(sc, seed=5)
    window = sc.drift_window_us
    for a in range(sc.n):
        for b in range(sc.n):
            for t0 in (0, 1_000_000, 7_000_000):
                da = sim.clocks[a].local(t0 + window) - sim.clocks[a].local(t0)
                db = sim.clocks[b].local(t0 + window) - sim.clocks[b].local(t0)
                assert abs(da - db) <= sc.drift_delta_us + 2  # integer rounding slack


def test_clock_monotone_and_inverse():
    c = ClockModel(skew=777, rate=0.02)
    prev = -1
    for t in range(0, 100_000, 137):
        lt = c.local(t)
        assert lt > prev
        prev = lt
        assert c.local(c.global_of(lt)) >= lt


def test_partition_blocks_and_heals():
    sc = scenario_from_dict(SYM20)
    sim = Simulation(sc, seed=1)
    net = sim.net
    assert net.delay(0, 2) is not None
    net.set_partition(((0, 1), (2, 3, 4)))
    assert net.delay(0, 2) is None
    assert net.delay(0, 1) is not None
    assert net.delay(2, 4) is not None
    assert net.client_delay(0, 2) is None
    net.set_partition(None)
    assert net.delay(0, 2) is not None


def test_scenario_validation_errors_name_field():
    bad = dict(SYM20)
    bad["nodes"] = 4
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert e.value.field == "nodes"

    bad = json.loads(json.dumps(SYM20))
    bad["rtt_ms"][0][1] = 99  # asymmetric
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert "rtt_ms" in e.value.field

    bad = json.loads(json.dumps(SYM20))
    bad["workload"]["write_ratio"] = 1.5
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert e.value.field == "workload.write_ratio"

    bad = json.loads(json.dumps(SYM20))
    bad["config"] = {"bogus_ms": 5}
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert e.value.field == "config.bogus_ms"

    bad = json.loads(json.dumps(SYM20))
    bad["events"] = [{"at_ms": 10, "partition": {"groups": [[0, 1], [2, 3]]}}]
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert "partition" in e.value.field

    bad = json.loads(json.dumps(SYM20))
    bad["initial_roster"]["ranges"][0]["responders"] = ["2"]
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(bad)
    assert e.value.field == "initial_roster"

    # ill-typed, missing or out-of-range entries, each named by its path
    for path, value, field in [
        (("workload", "clients", 0, "site"), DROP, "workload.clients[0].site"),
        (("workload", "keys"), "many", "workload.keys"),
        (("workload", "keys"), 0, "workload.keys"),
        (("workload", "clients", 0, "count"), -3, "workload.clients[0].count"),
        (("events",), [{"at_ms": 10, "crash": "x"}], "events[0].crash"),
        (("events",), [{"at_ms": 10, "partition": {"heal_ms": 20}}], "events[0].partition.groups"),
        (("drift",), 5, "drift"),
        (("rtt_ms", 0, 1), "a", "rtt_ms[0][1]"),
        (("rtt_ms",), [[True if {i, j} == {0, 1} else 20 * (i != j) for j in range(5)]
                       for i in range(5)], "rtt_ms[0][1]"),
        (("config",), {"hb_send_ms": "45"}, "config.hb_send_ms"),
    ]:
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(with_entry(SYM20, path, value))
        assert e.value.field == field, (path, value)


def test_scenario_config_and_node_timers_parse_alike():
    config = {"hb_send_ms": 45, "hb_fail_ms": 260.4, "guard_ms": 600, "lease_ms": 600,
              "delta_ms": 30, "batch_ms": 2, "unhold_floor_ms": 45, "tune_window_ms": 900,
              "hb_fail_jitter": 0.1, "snapshot_every": 7, "early_notes": False,
              "auto_tune": True}
    peers = [{"peer": "127.0.0.1:1", "client": "127.0.0.1:2"}] * 5
    sc = scenario_from_dict(dict(SYM20, config=config))
    node = node_config_from_dict({"id": 0, "peers": peers, "timers": config})
    assert sc.config == node.cluster
    bad = dict(config, bogus_ms=5)
    with pytest.raises(ScenarioError, match="bogus_ms"):
        scenario_from_dict(dict(SYM20, config=bad))
    with pytest.raises(ConfigError, match="bogus_ms"):
        node_config_from_dict({"id": 0, "peers": peers, "timers": bad})


@pytest.mark.parametrize("key,value", [
    ("auto_tune", "no"), ("auto_tune", 1), ("early_notes", "false"), ("early_notes", 0),
    ("snapshot_every", -1), ("snapshot_every", 2.5), ("snapshot_every", True),
    ("hb_fail_jitter", "0.1"), ("hb_fail_jitter", 1), ("hb_fail_jitter", -0.1),
    ("hb_fail_jitter", False),
])
def test_ill_typed_settings_are_rejected_by_both_parsers(key, value):
    peers = [{"peer": "127.0.0.1:1", "client": "127.0.0.1:2"}] * 5
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(dict(SYM20, config={key: value}))
    assert e.value.field == f"config.{key}"
    with pytest.raises(ConfigError, match=key):
        node_config_from_dict({"id": 0, "peers": peers, "timers": {key: value}})


def test_latency_expectation_ordering():
    sc = scenario_from_dict(SYM20)
    exp = latency_expectation(sc, client_site=3, leader=0)
    assert exp.c <= exp.l
    assert exp.m_t <= exp.M_t <= exp.N_t
    assert exp.l == 20_000
    assert exp.c == sc.client_local_rtt_us
    assert exp.m_t == 20_000 and exp.N_t == 20_000


def test_crash_stops_node():
    d = json.loads(json.dumps(SYM20))
    d["events"] = [{"at_ms": 700, "crash": 1}]
    sc = scenario_from_dict(d)
    res = run_scenario(sc, seed=2)
    # node 1 is not special: cluster keeps serving, history stays clean
    ok = [r for r in res.history if r.outcome == "ok"]
    assert len(ok) > 50
    from bodega.lincheck import check
    assert check([r.history_row() for r in res.history]) is None


# Each monitor must fire on the fault it watches for; every other use runs
# it on a correct core and asserts that it stays silent. Each case builds
# its fault by hand into one node of SYM20 (leader 0, responders 2-4, so
# node 1 holds no role and the cluster needs nothing from it).

def _isolated_and_always_stable(sim):
    """Node 1 never hears the roster, so it stays at ballot (0, 0), and it
    believes itself stable throughout."""
    sim.nodes[1].is_stable = lambda: True


def _forge(sim, node_id, accepts: bool):
    """Wrap one node's `handle`: with `accepts`, the node records every
    Accept it receives with its writes' values forged; otherwise every read
    it serves from its log answers a forged value."""
    node = sim.nodes[node_id]
    inner = node.handle

    def handle(ev, now):
        if accepts and type(ev) is Deliver and type(ev.msg) is Accept:
            batch = tuple(c._replace(value=b"forged") if c.is_write() else c
                          for c in ev.msg.batch)
            ev = Deliver(ev.frm, dataclasses.replace(ev.msg, batch=batch))
        outs = inner(ev, now)
        if not accepts:
            outs = [Reply(o.client, dataclasses.replace(o.msg, value=b"forged"), o.served_at)
                    if type(o) is Reply and o.served_at is not None else o for o in outs]
        return outs

    node.handle = handle


ISOLATE_1 = [{"at_ms": 0, "partition": {"groups": [[0, 2, 3, 4], [1]], "heal_ms": 1400}}]

# case -> (script events, fault, the first violation it must produce)
MONITOR_CASES = {
    "stability": (ISOLATE_1, _isolated_and_always_stable,
                  "stability: two stable ballots at t=117648: [(0, 0), (1, 0)]"),
    "commit_ballot": (ISOLATE_1, _isolated_and_always_stable,
                      "commit ballot: slot 1 committed at (1, 0) while node 1 is stable at (0, 0)"
                      " (t=520888)"),
    "agreement": ([], lambda sim: _forge(sim, 3, accepts=True),
                  "agreement: slot 1 executed differently at node 3"),
    "read_value": ([], lambda sim: _forge(sim, 3, accepts=False),
                   "read value: node 3 served b'k0000005'=b'forged' at slot 6, which executes to"
                   " b'v.w0.0.17.xxxxxx' (t=590446)"),
}


@pytest.mark.parametrize("name", sorted(MONITOR_CASES))
def test_each_monitor_fires_on_its_fault(name):
    events, fault, first = MONITOR_CASES[name]
    sim = Simulation(scenario_from_dict(dict(SYM20, events=events)), 4, monitors=True)
    fault(sim)
    res = sim.run()
    kind = first.split(":")[0]
    assert [v for v in res.violations if v.startswith(kind + ":")][0] == first


def test_all_stable_is_recorded_at_the_first_node_event_after_a_crash():
    """Node 1 is never stable, so the cluster is all-stable only once it
    crashes; the simulator records that at its next node event."""
    d = dict(SYM20, events=[{"at_ms": 800, "crash": 1}])
    sim = Simulation(scenario_from_dict(d), 4, monitors=True)
    sim.nodes[1].is_stable = lambda: False
    after_crash = []
    for node in sim.nodes:
        def handle(ev, now, inner=node.handle):
            if not sim.alive[1]:
                after_crash.append(sim.now)
            return inner(ev, now)
        node.handle = handle
    res = sim.run()
    assert not res.violations
    assert list(sim.all_stable_at) == [(1, 0)]
    assert sim.all_stable_at[(1, 0)] == after_crash[0] >= 800_000


# SHA-256s of the full trace and of the history (every field of every
# OpRecord, one `op_row` line each) of fixed (scenario, seed) pairs: the
# behaviour oracle for changes that must leave the protocol and the
# simulator's event order alone, such as speedups. The trace has no
# client-side rows, so the history pin is what covers the clients' own
# bookkeeping. A change that alters behaviour on purpose records new values
# and says why.
RECORDED_TRACES = {
    "rand3": (lambda: random_fault_scenario(3), 3,
              "684fe98d4ed810b6c694ccf09e071522a83d690bdfb19369f383ce886e8d09e9",
              "d62ccb4e42c35feb4de2c1b11e66f206713d680ab8f9568dbf6b6366b705a8b3"),
    "rand97": (lambda: random_fault_scenario(97), 97,
               "a1923e3962a500ff338419e47086ad56b164621a4d14764b5653f0cba39a4860",
               "37eff18d0c7a6a07fca608b89ffcced6f05392ec757ac4e89eb5fe30e7f5fb1f"),
    "rand179": (lambda: random_fault_scenario(179), 179,
                "af3e85bf960fcef237680ffeab82b5b1663c1beb099566f50f03fdcfd0ffd54b",
                "d7d5bf777ea30136bf0f59513db5f091b62b79b11902f8412b9d838cbb068462"),
    "geo10": (lambda: geo_scenario(0.10), 31,
              "356a0dce53b4489eaaf27994a79a940d0eb8990552a4aaf155d0a94ba1e172d4",
              "dd857d8c0b71cd604a21b769059c6e9094e71cec8d288c15800dd55746e72b74"),
    "crash_leader": (lambda: load_scenario("scenarios/crash_leader.json"), 7,
                     "5dddc886863e73d613cbc3e095c8ae45fa263877a27311a1348d593fc430e05f",
                     "fe059cdd41dd0bdb807c94481118684beb6d795eb5c4c3ef3d38c88dfcc5ed37"),
    "zipf_open": (lambda: scenario_from_dict(ZIPF_OPEN), 5,
                  "26ca9ea6a8f00752f39cbdf656a54782d1af0aebdd4f96669bcf74ebdde975cb",
                  "dd132aea7726960fb33c0c62dcd729bb972ecfb417dfa235c9a858abb3be5c97"),
    "tuned_geo5": (tuned_geo5, 1,
                   "6cbe4e3df44fd64dc554087b2f81a3c34c8afe06cb7756a9d337c4a136791820",
                   "5884a129b487bd748c22b9c8dfea762ae39d93e4665684f2affded08dc7ea732"),
}


@pytest.mark.parametrize("name", sorted(RECORDED_TRACES))
def test_recorded_traces_unchanged(name):
    make, seed, trace_sha, history_sha = RECORDED_TRACES[name]
    res = run_scenario(make(), seed=seed, trace=True)
    assert hashlib.sha256("\n".join(res.trace).encode()).hexdigest() == trace_sha
    rows = "\n".join(op_row(r) for r in res.history)
    assert hashlib.sha256(rows.encode()).hexdigest() == history_sha


@pytest.mark.parametrize("name", ["rand97", "crash_leader", "geo10"])
def test_a_trace_replays_to_every_node_digest(name):
    """Each node's trace rows, the global time and node id taken off, are
    its event log: fed through a fresh core they give the node's digest at
    the end of the run, for the nodes that crashed too (rand97 and
    crash_leader crash nodes)."""
    make, seed, _trace_sha, _history_sha = RECORDED_TRACES[name]
    sc = make()
    res = run_scenario(sc, seed=seed, trace=True)
    rows = [json.loads(line) for line in res.trace]
    assert any(row[1] == "crash" for row in rows) == (name != "geo10")
    for i, digest in res.digests.items():
        log = [row[2:] for row in rows if row[1] == i]
        assert len(log[0]) == 1 and len(log) > 1  # the start, then events
        assert Node(i, sc.config, seed=seed).replay(log) == digest, f"node {i}"


def test_explorer_enumerates_its_configs_in_a_fixed_order():
    """c02's clean run count, and the first and last configs of the
    delay-only pass and of the crash pass: a reordered enumeration would
    move the run counts c02 prints for its mutants."""
    labels = [cfg.label() for cfg in _configs()]
    assert len(labels) == 7112
    assert labels[0] == "resp=[] change=False"
    assert labels[5335] == "resp=[1, 2] change=True delayed=[34, 35]"
    assert labels[5336] == "resp=[] change=False crash=n0@160ms"
    assert labels[7111] == "resp=[1, 2] change=True crash=n2@300ms delayed=[35]"
