"""bodega's benchmark: one command, three workloads, checked outputs.

    python3 benchmark/run.py --workload sim-faults --seed 1 --seconds 20 --trace 0

Prints as its last line one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
measured untraced; with --trace 1 they are the per-layer ones, from a
separate traced run. A run whose outputs fail a check prints what failed
on stderr, prints no metrics, and exits 1. See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sim-faults", "sim-geo-reads", "live-mixed")

# End-to-end metrics that measure something a workload does not do: there
# is no simulator and no virtual clock in live-mixed, and on sim-geo-reads
# every lincheck.check call raises before it completes. They read
# NOT_MEASURED, a value that no change to the program can move.
NOT_MEASURED = 1.0
NOT_RUN = {
    "live-mixed": {"sim_ops_per_s", "lincheck_ops_per_s", "vread_p50_ms", "vread_p99_ms",
                   "vwrite_p50_ms", "vwrite_p99_ms", "vunavail_ms"},
    "sim-geo-reads": {"lincheck_ops_per_s"},
    "sim-faults": set(),
}


def _units(kind: str) -> dict[str, str]:
    """Names and units of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _fail(msg: str, code: int) -> None:
    print(msg, file=sys.stderr)
    sys.exit(code)


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sim-seeds", metavar="A-B",
                   help="simulation seeds of a simulator workload's round, inclusive "
                        "(default: 700-739 for sim-faults, 1-1 for sim-geo-reads)")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "bodega")):
        _fail(f"no bodega sources under {ROOT}/src: run from a checkout of the repository", 2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    traced = bool(args.trace)

    if args.workload == "live-mixed":
        import live

        attempted, failed, problems, metrics, dump = live.run(args.seed, args.seconds, traced)
    else:
        import sims

        seeds = None
        if args.sim_seeds:
            lo, _, hi = args.sim_seeds.partition("-")
            seeds = range(int(lo), int(hi or lo) + 1)
        rounds, setups, metrics = sims.run(args.workload, args.seconds, traced, seeds)
        problems = [p for r in rounds for p in r.problems]
        if len({r.digest for r in rounds}) != 1:
            problems.append("a round did not repeat the first round's histories")
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        dump = {"rounds": [{"ops": r.ops, "run_cpu": r.run_cpu, "round_cpu": r.round_cpu,
                            "round_wall": r.round_wall, "lincheck_cpu": r.lincheck_cpu}
                           for r in rounds],
                "setups_s": {"n": len(setups), "min": min(setups), "median": median(setups)}}

    if problems:
        _fail(f"{args.workload}: {len(problems)} check(s) failed:\n" + "\n".join(problems[:20]), 1)
    names = _units("per_layer" if traced else "end_to_end")
    if not traced:
        metrics.update(dict.fromkeys(NOT_RUN[args.workload], NOT_MEASURED))
        if set(names) - set(metrics):
            _fail(f"{args.workload}: no value for {sorted(set(names) - set(metrics))}", 1)
    # a layer that the workload does not run (the wire in a simulation, the
    # simulator in the live cluster) reads 0
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in names.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump({"result": result, "detail": dump}, f, indent=1, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
