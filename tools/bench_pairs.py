"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/bench_pairs.py --workload live-mixed --seeds 101-110 --seconds 25
    python3 tools/bench_pairs.py --workload live-mixed --seeds 111-112 --seconds 25 --aa

Extracts `--parent` (default HEAD~1) and `--change` (default HEAD) with
`git archive` into a temporary directory, then runs `benchmark/run.py` once
per seed on each, alternating which side runs first. With `--aa` both sides
are copies of the parent. Prints, per metric, each side's median and
inclusive quartiles, and the pairs the change won (ties count for neither),
with the direction each metric's `BENCHMARK.json` entry gives. `--out`
writes every run's result as JSON; nothing is written into the repository.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive quartiles; one sample is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric in `better` (name -> "lower" | "higher") of
    `pairs`, each (parent metrics, change metrics) of one seed."""
    rows = []
    for name, way in better.items():
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        par, chg = [p for p, _ in both], [c for _, c in both]
        p1, pm, p3 = quartiles(par)
        c1, cm, c3 = quartiles(chg)
        wins = sum((c < p) if way == "lower" else (c > p) for p, c in both)
        rows.append({
            "metric": name, "better": way, "pairs": len(both), "wins": wins,
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_pct": (cm - pm) / pm * 100 if pm else None,
            # the medians differ by more than the parent's own spread
            "gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':28} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
           f"{'change':>8} {'wins':>6}"]
    for r in rows:
        p, c = r["parent"], r["change"]
        pct = "" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        out.append(f"{r['metric']:28} "
                   f"{p['median']:>12.4g} [{p['q1']:.4g}, {p['q3']:.4g}]".ljust(59)
                   + f" {c['median']:>12.4g} [{c['q1']:.4g}, {c['q3']:.4g}]".ljust(31)
                   + f" {pct:>8} {r['wins']:>3}/{r['pairs']}"
                   + ("" if r["gap_exceeds_parent_iqr"] else "  (within parent IQR)"))
    return "\n".join(out)


def _extract(rev: str, dest: str) -> str:
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return dest


def _run(checkout: str, args, seed: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.sim_seeds:
        cmd += ["--sim-seeds", args.sim_seeds]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"correct": False, "returncode": p.returncode, "stderr": p.stderr[-2000:]}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, metavar="A-B", help="one pair per seed, inclusive")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-seeds", metavar="A-B", help="passed on to benchmark/run.py")
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--aa", action="store_true", help="run the parent against itself")
    ap.add_argument("--out", help="write every run's result here, as JSON")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    change_rev = args.parent if args.aa else args.change

    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        sides = {"parent": _extract(args.parent, os.path.join(tmp, "parent")),
                 "change": _extract(change_rev, os.path.join(tmp, "change"))}
        with open(os.path.join(sides["parent"], "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
        better = {m["name"]: m["better"]
                  for m in bench["per_layer" if args.trace else "end_to_end"]}
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: _run(sides[side], args, seed) for side in order}
            runs.append({"seed": seed, "first": order[0], **got})
            brief = {s: (got[s].get("failed"), got[s].get("metrics", {}).get(
                "read_p50_ms", {}).get("value")) if got[s].get("correct") else "FAILED"
                for s in ("parent", "change")}
            print(f"seed {seed}, {order[0]} first: {brief}", file=sys.stderr, flush=True)

    ok = [r for r in runs if r["parent"].get("correct") and r["change"].get("correct")]
    pairs = [tuple({k: v["value"] for k, v in r[s]["metrics"].items()} for s in ("parent", "change"))
             for r in ok]
    rows = summarize(pairs, better)
    print(f"{args.workload}, {'A/A ' if args.aa else ''}{args.parent} -> {change_rev}, "
          f"{len(ok)} of {len(runs)} pairs correct; failed ops parent "
          f"{[r['parent'].get('failed') for r in ok]}, change {[r['change'].get('failed') for r in ok]}")
    print(format_rows(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "parent": args.parent, "change": change_rev, "aa": args.aa,
                       "runs": runs, "summary": rows}, f, indent=1)


if __name__ == "__main__":
    main()
