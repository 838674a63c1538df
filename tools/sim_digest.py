"""Digest and CPU time of c01's randomized fault runs.

    python3 tools/sim_digest.py [--src path/to/src] [--seeds A-B] [--snapshot-every K]

Runs `tests.support.random_fault_scenario(seed)` with monitors on, and
lincheck over its history, for every seed in A-B (default 0-99), as c01
does. Prints one JSON object: a SHA-256 over every run's history rows
(every `OpRecord` field), metrics and violations, lincheck's included, and
the CPU seconds spent running and checking.

`--src` picks the checkout whose `bodega` is run (default: this one), so
the same script compares two versions: a change that must keep the
simulator's behaviour prints the same digest as its parent.

`--snapshot-every K` sets `config.snapshot_every` on every generated
scenario (default 0: no snapshots, as c01 runs). With K > 0 the digest also
covers snapshotting, log truncation and snapshot catch-up, which c01 never
reaches.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    p.add_argument("--snapshot-every", type=int, default=0, metavar="K",
                   help="executed slots per snapshot on every scenario (0: off)")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.abspath(args.src))
    from bodega.lincheck import check
    from bodega.sim.harness import run_scenario
    from tests.support import op_row, random_fault_scenario

    digest = hashlib.sha256()
    cpu = 0.0
    for seed in range(lo, hi + 1):
        sc = random_fault_scenario(seed)
        sc.config.snapshot_every = args.snapshot_every
        c0 = time.process_time()
        res = run_scenario(sc, seed=seed, monitors=True)
        v = check([r.history_row() for r in res.history])
        cpu += time.process_time() - c0
        violations = res.violations + ([v.describe()] if v is not None else [])
        for r in res.history:
            digest.update(op_row(r).encode() + b"\n")
        digest.update(json.dumps(res.metrics, sort_keys=True).encode() + b"\n")
        digest.update(json.dumps(violations).encode() + b"\n")
    print(json.dumps({"seeds": f"{lo}-{hi}", "digest": digest.hexdigest(),
                      "cpu_s": round(cpu, 2)}))


if __name__ == "__main__":
    main()
