"""CLI surfaces: sim run/explore, lincheck, and the file outputs."""
import json

from bodega import lincheck
from bodega.cli import bench_main, bodegad_main, ctl_main, lincheck_main, sim_main

from .support import with_entry


def test_sim_run_writes_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    history = tmp_path / "history.jsonl"
    rc = sim_main(["run", "scenarios/geo5.json", "--seed", "5",
                   "--trace", str(trace), "--metrics", str(metrics),
                   "--history", str(history), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "linearizable: yes" in out
    m = json.loads(metrics.read_text())
    assert m["reads"]["count"] > 0
    lines = history.read_text().strip().splitlines()
    assert lines and all(json.loads(l)["request_id"] for l in lines)
    assert trace.read_text().startswith("[0,0,")  # node 0's start


def test_sim_run_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": 4, "rtt_ms": []}))
    rc = sim_main(["run", str(bad)])
    assert rc == 2
    assert "nodes" in capsys.readouterr().err


def test_sim_run_rejects_an_invalid_roster(tmp_path, capsys):
    """A roster naming a node outside the cluster, or two overlapping
    ranges, in the initial roster or a scripted roster_set: `sim run` exits
    2 naming the key path, and runs nothing."""
    base = json.loads(open("scenarios/crash_leader.json").read())
    overlap = [{"lo": "", "hi": "m", "responders": [1]},
               {"lo": "k", "hi": None, "responders": [2]}]
    change = {"at_ms": 2000, "roster_set": {"to_node": 1, "leader": 1, "ranges": overlap}}
    for path, value, err in [
        (("initial_roster", "ranges", 0, "responders"), [0, 9],
         "initial_roster.ranges[0].responders: node id 9 not in [0, 5)"),
        (("initial_roster", "ranges"), overlap, "initial_roster.ranges[1]: overlapping ranges"),
        (("events",), base["events"] + [change],
         "events[1].roster_set.ranges[1]: overlapping ranges"),
    ]:
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(with_entry(base, path, value)))
        assert sim_main(["run", str(f)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"scenario invalid: {err}\n")


def test_malformed_settings_files_exit_2_naming_the_key(tmp_path, capsys):
    """sim run, bodegad and bodega-bench print `<file kind> invalid: <key
    path>: <reason>` for a malformed file and exit 2, with no traceback, as
    they do for a missing one. The bench reads its cluster file before its
    workload file."""
    scenario = json.loads(open("scenarios/geo5.json").read())
    del scenario["workload"]["clients"][0]["site"]
    node = {"id": 0, "peers": [{"peer": "127.0.0.1:1", "client": "127.0.0.1:2"}] * 3,
            "announce": "false"}
    files = {}
    for name, doc in [("scenario", scenario), ("node", node), ("workload", {"clients": 3}),
                      ("cluster", ["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]),
                      ("bad_cluster", ["127.0.0.1:1", 2, "127.0.0.1:3"])]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    for main, argv, err in [
        (sim_main, ["run", str(files["scenario"])],
         "scenario invalid: workload.clients[0].site: required\n"),
        (bodegad_main, ["--config", str(files["node"])],
         "config invalid: announce: must be true or false\n"),
        (bench_main, ["--workload", str(files["workload"]), "--cluster", str(files["cluster"])],
         "input invalid: clients: must be a list\n"),
        (bench_main, ["--workload", str(files["node"]), "--cluster", str(files["bad_cluster"])],
         "input invalid: [1]: must be a host:port string\n"),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == err
    missing = str(tmp_path / "missing.json")
    for main, argv, kind in [(sim_main, ["run", missing], "scenario"),
                             (bodegad_main, ["--config", missing], "config"),
                             (bench_main, ["--workload", missing, "--cluster", missing], "input")]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"{kind} invalid: [Errno 2]")


def test_ctl_roster_set_rejects_an_ill_typed_roster_file(tmp_path, capsys):
    bad = tmp_path / "roster.json"
    bad.write_text(json.dumps({"leader": "0", "ranges": []}))
    assert ctl_main(["roster", "set", str(bad), "--node", "127.0.0.1:1"]) == 2
    assert "roster file invalid" in capsys.readouterr().err


def test_lincheck_cli_verdicts(tmp_path, capsys):
    good = tmp_path / "good.jsonl"
    rows = [
        {"client": "c", "request_id": "w", "op": "put", "key": "x", "value": "1",
         "invoke": 0, "response": 5, "outcome": "ok"},
        {"client": "c", "request_id": "r", "op": "get", "key": "x", "value": "1",
         "invoke": 6, "response": 8, "outcome": "ok"},
    ]
    good.write_text("\n".join(json.dumps(r) for r in rows))
    assert lincheck_main([str(good)]) == 0
    assert "linearizable: yes" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    rows[1]["value"] = None
    bad.write_text("\n".join(json.dumps(r) for r in rows))
    assert lincheck_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "NO" in out and "no legal linearization" in out


def test_lincheck_cli_reports_an_undecided_verdict(tmp_path, capsys, monkeypatch):
    # A repeated put value sends the key to the search, which may run out
    # of states; a small budget makes it do so at once.
    monkeypatch.setattr(lincheck, "_STATE_BUDGET", 10)
    rows = [{"client": "c", "request_id": f"t{i}", "op": "put", "key": "x", "value": "v",
             "invoke": i, "response": None, "outcome": "timeout"} for i in range(6)]
    rows += [{"client": "c", "request_id": f"r{i}", "op": "get", "key": "x", "value": None,
              "invoke": 10 + 2 * i, "response": 11 + 2 * i, "outcome": "ok"} for i in range(4)]
    hist = tmp_path / "hist.jsonl"
    hist.write_text("\n".join(json.dumps(r) for r in rows))
    assert lincheck_main([str(hist)]) == 2
    assert capsys.readouterr().out == (
        "linearizable: unknown (search budget exceeded: 11 states explored)\n")


def test_lincheck_cli_rejects_a_malformed_history(tmp_path, capsys):
    """A history lincheck cannot read gets no verdict: it prints the reason,
    naming the line, on stderr and exits 2, with no traceback."""
    put = {"client": "c", "request_id": "w", "op": "put", "key": "x", "value": "1",
           "invoke": 0, "response": 5, "outcome": "ok"}
    no_invoke = {k: v for k, v in put.items() if k != "invoke"}
    for lines, err in [
        ([put, "", dict(put, request_id="r", invoke=9, response=7)],
         "history invalid: line 3: response before invoke in "),
        ([put, "{not json"], "history invalid: line 2: not JSON: "),
        ([no_invoke], "history invalid: line 1: no invoke in "),
    ]:
        hist = tmp_path / "hist.jsonl"
        hist.write_text("\n".join(l if type(l) is str else json.dumps(l) for l in lines))
        assert lincheck_main([str(hist)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(err), out.err
    assert lincheck_main([str(tmp_path / "missing.jsonl")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("history invalid: [Errno 2]")


def test_sim_explore_smoke_budgeted(capsys):
    rc = sim_main(["explore", "--budget-runs", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no violation" in out
