"""Digest and CPU time of c01's randomized fault runs.

    python3 tools/sim_digest.py [--src path/to/src] [--seeds A-B] [--snapshot-every K]
                                [--against path/to/other/src]

Runs `tests.support.random_fault_scenario(seed)` with monitors on, and
lincheck over its history, for every seed in A-B (default 0-99), as c01
does. Prints one JSON object: a SHA-256 over every run's history rows
(every `OpRecord` field), metrics and violations, lincheck's included, and
the CPU seconds spent in all: `run_cpu_s` running the simulations and
`check_cpu_s` in lincheck, and their sum `cpu_s`. It also counts the ops
that did not end `ok`: `failed_ops` in all, and `failed_seeds`, each seed
that lost any mapped to how many.

`--src` picks the checkout whose `bodega` is run (default: this one), so
the same script compares two versions: a change that must keep the
simulator's behaviour prints the same digest as its parent.

`--against OTHER` times `--src` against a second checkout. Each side runs
in its own worker process (two in all), and every seed runs on both sides
in turn, the side that goes first alternating from seed to seed, so the
host's drift over a run falls on both sides alike. It prints both digests,
which must match (the exit status is 1 when they do not), both sides' CPU
totals and failed ops, and the median over the seeds of the per-seed CPU
ratio `--src` / OTHER: of the whole (`median_cpu_ratio`), of the runs alone
(`median_run_cpu_ratio`) and of lincheck alone (`median_check_cpu_ratio`).

`--snapshot-every K` sets `config.snapshot_every` on every generated
scenario (default 0: no snapshots, as c01 runs). With K > 0 the digest also
covers snapshotting, log truncation and snapshot catch-up, which c01 never
reaches.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seed_runner(src: str, snapshot_every: int):
    """A function that runs one seed on the `bodega` under `src` and returns
    the bytes it adds to the digest, the CPU seconds of its run and of its
    check, and the number of its ops that did not end `ok`."""
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.abspath(src))
    from bodega.lincheck import check
    from bodega.sim.harness import run_scenario
    from tests.support import op_row, random_fault_scenario

    def run(seed: int) -> tuple[bytes, tuple[float, float], int]:
        sc = random_fault_scenario(seed)
        sc.config.snapshot_every = snapshot_every
        c0 = time.process_time()
        res = run_scenario(sc, seed=seed, monitors=True)
        c1 = time.process_time()
        v = check([r.history_row() for r in res.history])
        cpu = (c1 - c0, time.process_time() - c1)
        violations = res.violations + ([v.describe()] if v is not None else [])
        blob = b"".join(op_row(r).encode() + b"\n" for r in res.history)
        blob += json.dumps(res.metrics, sort_keys=True).encode() + b"\n"
        blob += json.dumps(violations).encode() + b"\n"
        return blob, cpu, sum(r.outcome != "ok" for r in res.history)

    return run


def _worker(src: str, snapshot_every: int, conn) -> None:
    """Serve seeds from `conn` until it sends None."""
    run = _seed_runner(src, snapshot_every)
    while (seed := conn.recv()) is not None:
        conn.send(run(seed))


def _totals(seeds: range, cpus: list[tuple[float, float]], failed: list[int]) -> dict:
    """CPU totals over the seeds from their (run, check) seconds, and
    their failed ops."""
    run, chk = sum(c[0] for c in cpus), sum(c[1] for c in cpus)
    return {"cpu_s": round(run + chk, 2), "run_cpu_s": round(run, 2),
            "check_cpu_s": round(chk, 3), "failed_ops": sum(failed),
            "failed_seeds": {str(s): f for s, f in zip(seeds, failed) if f}}


def _median_ratio(a: list[float], b: list[float]) -> float:
    return round(statistics.median(x / y for x, y in zip(a, b)), 4)


def _against(args, seeds: range) -> int:
    ctx = multiprocessing.get_context("spawn")
    sides = []
    for src in (args.src, args.against):
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_worker, args=(src, args.snapshot_every, child))
        proc.start()
        sides.append((parent, proc, hashlib.sha256(), [], []))
    try:
        for i, seed in enumerate(seeds):
            order = sides if i % 2 == 0 else sides[::-1]
            for conn, _proc, digest, cpus, failed in order:
                conn.send(seed)
                blob, cpu, f = conn.recv()
                digest.update(blob)
                cpus.append(cpu)
                failed.append(f)
    finally:
        for conn, proc, *_ in sides:
            conn.send(None)
            proc.join(timeout=60)
    (_, _, da, ca, fa), (_, _, db, cb, fb) = sides
    out = {"seeds": f"{seeds.start}-{seeds.stop - 1}",
           "src": {"path": args.src, "digest": da.hexdigest(), **_totals(seeds, ca, fa)},
           "against": {"path": args.against, "digest": db.hexdigest(),
                       **_totals(seeds, cb, fb)},
           "median_cpu_ratio": _median_ratio([sum(c) for c in ca], [sum(c) for c in cb]),
           "median_run_cpu_ratio": _median_ratio([c[0] for c in ca], [c[0] for c in cb]),
           "median_check_cpu_ratio": _median_ratio([c[1] for c in ca], [c[1] for c in cb])}
    print(json.dumps(out))
    return 0 if da.digest() == db.digest() else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    p.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                   help="executed slots per snapshot on every scenario (0: off)")
    p.add_argument("--against", metavar="OTHER_SRC",
                   help="time --src against this checkout's src, seed by seed")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = range(lo, hi + 1)
    if args.against:
        return _against(args, seeds)
    run = _seed_runner(args.src, args.snapshot_every)
    digest = hashlib.sha256()
    cpus, failed = [], []
    for seed in seeds:
        blob, c, f = run(seed)
        digest.update(blob)
        cpus.append(c)
        failed.append(f)
    print(json.dumps({"seeds": f"{lo}-{hi}", "digest": digest.hexdigest(),
                      **_totals(seeds, cpus, failed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
