"""The scripts under tools/, on fixed inputs: no benchmark runs here."""
import hashlib
import importlib.util
import json
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_pairs_summary_on_fixed_numbers():
    """Medians and inclusive quartiles per side, wins in the metric's
    direction with ties counting for neither, and whether the medians'
    gap exceeds the parent's IQR."""
    bp = _tool("bench_pairs")
    parent = [0.18, 0.20, 0.17, 0.19, 0.21]
    change = [0.15, 0.16, 0.17, 0.14, 0.15]
    rate_p = [5000, 5100, 4900, 5200, 5050]
    rate_c = [5000, 5300, 5400, 5150, 5250]
    pairs = [({"read_p50_ms": p, "ops_per_s": rp}, {"read_p50_ms": c, "ops_per_s": rc})
             for p, c, rp, rc in zip(parent, change, rate_p, rate_c)]
    rows = {r["metric"]: r for r in bp.summarize(
        pairs, {"read_p50_ms": "lower", "ops_per_s": "higher", "absent": "lower"})}
    assert set(rows) == {"read_p50_ms", "ops_per_s"}
    read = rows["read_p50_ms"]
    assert read["parent"] == pytest.approx({"q1": 0.18, "median": 0.19, "q3": 0.20})
    assert read["change"] == pytest.approx({"q1": 0.15, "median": 0.15, "q3": 0.16})
    assert (read["pairs"], read["wins"]) == (5, 4)  # 0.17 against 0.17 is a tie
    assert read["change_pct"] == pytest.approx(-100 * 0.04 / 0.19)
    assert read["gap_exceeds_parent_iqr"]
    rate = rows["ops_per_s"]
    assert rate["parent"] == pytest.approx({"q1": 5000, "median": 5050, "q3": 5100})
    assert rate["change"]["median"] == 5250 and rate["wins"] == 3
    assert rate["gap_exceeds_parent_iqr"]  # 200 against an IQR of 100
    one = bp.summarize([({"m": 2.0}, {"m": 3.0})], {"m": "higher"})[0]
    assert one["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0} and one["wins"] == 1
    assert "read_p50_ms" in bp.format_rows(list(rows.values()))


def test_sim_digest_counts_failed_ops_by_seed(capsys):
    """Seed 6 keeps a roster naming a crashed node and loses 10 ops; seed 7
    loses none. The counts ride beside the digest, which they leave alone."""
    sd = _tool("sim_digest")
    assert sd.main(["--seeds", "6-7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["failed_ops"], out["failed_seeds"]) == (10, {"6": 10})
    run = sd._seed_runner(os.path.join(sd.ROOT, "src"), 0)
    digest = hashlib.sha256()
    for seed in (6, 7):
        digest.update(run(seed)[0])
    assert out["digest"] == digest.hexdigest()
