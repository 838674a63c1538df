"""Settings files: the workload schema that scenarios and bodega-bench
share, and every reader's totality: a malformed file raises the reader's
named error and nothing else."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bodega.model import SettingError
from bodega.service.config import ConfigError, node_config_from_dict
from bodega.sim.scenario import ScenarioError, scenario_from_dict
from bodega.workload import OpGen, Workload, workload_from_dict

from .support import DROP, entry_paths, with_entry

# every key each reader takes, with a valid value
WORKLOAD = {
    "start_ms": 100, "duration_ms": 900.5, "keys": 20, "key_len": 6, "value_len": 32,
    "write_ratio": 0.25, "clients": [{"site": 0, "count": 2}, {"site": 2}],
    "distribution": {"zipf": 0.8}, "mode": {"open_rate_per_s": 50}, "think_ms": 2,
    "op_timeout_ms": 4000,
}
ROSTER = {"leader": 0, "ranges": [{"lo": "", "hi": None, "responders": [1, 2]}]}
SCENARIO = {
    "name": "every-key", "nodes": 3, "rtt_ms": [[0, 10, 20], [10, 0, 30], [20, 30, 0]],
    "config": {"hb_send_ms": 40, "hb_fail_ms": 300, "lease_ms": 900, "guard_ms": 900,
               "delta_ms": 30, "batch_ms": 1, "unhold_floor_ms": 45, "tune_window_ms": 800,
               "hb_fail_jitter": 0.1, "snapshot_every": 3, "auto_tune": False,
               "early_notes": True},
    "jitter_ms": 1, "drop_prob": 0.01, "client_local_rtt_ms": 0.5,
    "drift": {"delta_ms": 30, "window_ms": 600},
    "initial_roster": dict(ROSTER, announcer=0, at_ms=10),
    "workload": WORKLOAD,
    "events": [
        {"at_ms": 200, "crash": 1},
        {"at_ms": 300, "partition": {"groups": [[0], [1, 2]], "heal_ms": 500}},
        {"at_ms": 400, "roster_set": dict(ROSTER, to_node=2)},
        {"at_ms": 450, "write": {"key": "x", "value": "1", "site": 1, "id": "W"}},
        {"at_ms": 460, "read": {"key": "x", "site": 2, "after": "W"}},
    ],
}
NODE = {
    "id": 1, "peers": [{"peer": f"127.0.0.1:{7000 + i}", "client": f"127.0.0.1:{7100 + i}"}
                       for i in range(3)],
    "timers": SCENARIO["config"], "seed": 4, "initial_roster": ROSTER, "announce": True,
    "record_events": False,
}
READERS = [  # (reader, a valid document, the only error it may raise)
    (scenario_from_dict, SCENARIO, ScenarioError),
    (node_config_from_dict, NODE, ConfigError),
    (lambda d: workload_from_dict(d, 3), WORKLOAD, SettingError),
]


def test_every_key_loads():
    sc = scenario_from_dict(SCENARIO)
    assert sc.workload == workload_from_dict(WORKLOAD, 3)
    assert sc.workload.clients == [(0, 2), (2, 1)]
    assert (sc.workload.duration, sc.workload.zipf_theta, sc.workload.open_rate_per_s) == (
        900_500, 0.8, 50.0)
    assert [e.kind for e in sc.script] == ["crash", "partition", "roster_set", "write", "read"]
    assert node_config_from_dict(NODE).cluster == sc.config
    assert workload_from_dict({}, 3) == Workload()


@pytest.mark.parametrize("key,value", [
    ("clients", 3), ("clients", [{"site": 3}]), ("clients", [{"site": 0, "where": 1}]),
    ("write_ratio", 2), ("write_ratio", "0.1"), ("keys", 0), ("keys", True),
    ("distribution", "zipf"), ("mode", {"open_rate_per_s": -1}), ("mode", {"rate": 5}),
    ("duration_s", 10), ("op_timeout_s", 30), ("unhold_floor_ms", 50),
    ("distribution", {"zipf": 2000}),
])
def test_workload_validation(key, value):
    """The bench's workload file is a scenario's `workload` block: its
    old `duration_s`, `op_timeout_s` and `unhold_floor_ms` are unknown keys."""
    with pytest.raises(SettingError) as e:
        workload_from_dict(dict(WORKLOAD, **{key: value}), 3)
    assert e.value.key.startswith(key)


def test_a_zipf_theta_the_key_weights_overflow_at_is_rejected():
    """`zipf_cdf` takes `keys ** theta`: with 50 keys, a theta of 2000
    overflows it and is rejected by the reader, and 181 (50 ** 181 is about
    1e307) loads and draws."""
    with pytest.raises(SettingError) as e:
        workload_from_dict(dict(WORKLOAD, keys=50, distribution={"zipf": 2000}), 3)
    assert e.value.key == "distribution.zipf"
    w = workload_from_dict(dict(WORKLOAD, keys=50, distribution={"zipf": 181}), 3)
    ops = OpGen(w.keys, w.key_len, w.value_len, w.write_ratio, w.zipf_theta)
    assert ops.draw(random.Random(1), "c", 1)[0] == ops.keys[0]


def test_a_put_value_names_its_client_and_op_number():
    """A put's value is `v.<cid>.<n>.` padded with "x" to `value_len` and
    never cut, so the values one client writes stay distinct whatever its
    name's length, and bodega-bench's (named `<index>.<run token>`) over
    their first 10^4 ops fit the default 16 bytes."""
    ops = OpGen(10, 4, 16, 1.0, 0.0)

    def value(cid, n):
        return ops.draw(random.Random(1), cid, n)[1]
    assert value("c", 5) == b"v.c.5.xxxxxxxxxx"
    assert value("12.3fa2", 10000) == b"v.12.3fa2.10000."
    assert len({value("12.3fa2", n) for n in range(1, 10001)}) == 10000
    assert value("b1.0.3fa2", 1000) != value("b1.0.3fa2", 10000)
    assert value("b1.0.3fa2", 10000) == b"v.b1.0.3fa2.10000."


# values at the edges of what a converter must reject, drawn often
edge_values = st.sampled_from([None, True, -1, 2**70, -0.5, 1e308, math.inf, math.nan, "",
                               "\u0100", [], {}, [1], {"": 0}])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


# 200 derandomized examples, each feeding the three readers 317 documents: about 5 s
@settings(max_examples=200, derandomize=True, deadline=None)
@given(edge_values | json_values, json_values)
def test_readers_are_total(value, doc):
    """Each reader returns or raises its named error, for `value` put at
    each entry of a valid document, for each entry removed, and for any
    JSON document."""
    for reader, valid, error in READERS:
        paths = entry_paths(valid)
        for d in [doc] + [with_entry(valid, p, v) for p in paths for v in (value, DROP)]:
            try:
                reader(d)
            except error:
                pass
