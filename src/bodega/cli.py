"""Command-line entry points: sim, lincheck, bodegad, bodega-bench, bodega-ctl."""
from __future__ import annotations

import argparse
import asyncio
import json
import sys

from .model import Roster


def sim_main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="sim", description="deterministic cluster simulator")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--trace", help="write the event trace (JSON lines)")
    runp.add_argument("--metrics", help="write metrics JSON")
    runp.add_argument("--history", help="write the client history (JSON lines)")
    runp.add_argument("--check", action="store_true",
                      help="run the linearizability checker on the history")

    exp = sub.add_parser("explore", help="bounded interleaving exploration")
    exp.add_argument("--mutant", choices=["commit_no_responder_coverage", "stable_no_thresh"],
                     help="run against a seeded bug; a counterexample is the expected outcome")
    exp.add_argument("--budget-runs", type=int, default=12_000)

    args = p.parse_args(argv)
    if args.cmd == "run":
        from .sim.harness import run_scenario
        from .sim.scenario import ScenarioError, load_scenario

        try:
            sc = load_scenario(args.scenario)
        except (ScenarioError, OSError) as e:  # malformed, or unreadable
            print(f"scenario invalid: {e}", file=sys.stderr)
            return 2
        res = run_scenario(sc, args.seed, trace=bool(args.trace), monitors=True)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as f:
                f.write("\n".join(res.trace) + ("\n" if res.trace else ""))
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as f:
                json.dump(res.metrics, f, indent=2, sort_keys=True)
        if args.history:
            with open(args.history, "w", encoding="utf-8") as f:
                for r in res.history:
                    f.write(json.dumps(r.history_row(), sort_keys=True) + "\n")
        ok = len(res.history)
        done = sum(1 for r in res.history if r.outcome == "ok")
        print(f"{sc.name}: {done}/{ok} ops ok; "
              f"reads {res.metrics['reads']}; writes {res.metrics['writes']}")
        rc = 0
        if res.violations:
            print("invariant violations:", *res.violations[:5], sep="\n  ")
            rc = 1
        if args.check:
            from .lincheck import check

            verdict = _print_verdict(check, [r.history_row() for r in res.history])
            rc = rc or verdict
        return rc

    from .sim.explore import explore_interleavings

    muts = frozenset({args.mutant}) if args.mutant else frozenset()
    res = explore_interleavings(muts, args.budget_runs)
    print(res.summary())
    return 0 if res.ok else 1


def lincheck_main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lincheck",
                                description="per-key linearizability verdict over a history file")
    p.add_argument("history", help="JSON-lines history")
    args = p.parse_args(argv)
    from .lincheck import HistoryError, check_file

    try:
        return _print_verdict(check_file, args.history)
    except (HistoryError, OSError) as e:  # malformed, or unreadable: no verdict
        print(f"history invalid: {e}", file=sys.stderr)
        return 2


def _print_verdict(check_fn, history) -> int:
    """Print lincheck's verdict on `history`; returns the exit status: 0 for
    yes, 1 for no, 2 when the search ran out of budget on some key."""
    from .lincheck import SearchBudgetExceeded

    try:
        v = check_fn(history)
    except SearchBudgetExceeded as e:
        print(f"linearizable: unknown (search budget exceeded: {e})")
        return 2
    if v is None:
        print("linearizable: yes")
        return 0
    print("linearizable: NO")
    print(v.describe())
    return 1


def bodegad_main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="bodegad", description="replica daemon")
    p.add_argument("--config", required=True, help="node config JSON")
    args = p.parse_args(argv)
    from .service.config import ConfigError, load_node_config
    from .service.daemon import Daemon

    try:
        cfg = load_node_config(args.config)
    except (ConfigError, OSError) as e:  # malformed, or unreadable
        print(f"config invalid: {e}", file=sys.stderr)
        return 2

    async def main() -> None:
        d = Daemon(cfg)
        try:
            await d.run_forever()
        finally:
            await d.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    except OSError as e:
        print(f"startup failed: {e}", file=sys.stderr)
        return 1
    return 0


def bench_main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="bodega-bench", description="workload driver")
    p.add_argument("--workload", required=True, help="workload spec JSON")
    p.add_argument("--cluster", required=True,
                   help="cluster peers JSON (list of client-facing host:port)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="per-op latency samples CSV")
    p.add_argument("--summary", help="summary JSON")
    p.add_argument("--history", help="history JSON lines (lincheck input)")
    p.add_argument("--unhold-floor-ms", type=float, default=50.0,
                   help="least wait for a held read before asking another node")
    args = p.parse_args(argv)
    from .service.bench import bench
    from .service.config import ConfigError, load_cluster, load_workload

    try:
        addrs = load_cluster(args.cluster)
        w = load_workload(args.workload, len(addrs))
    except (ConfigError, OSError) as e:
        print(f"input invalid: {e}", file=sys.stderr)
        return 2
    summary = asyncio.run(bench(w, addrs, seed=args.seed, unhold_floor_ms=args.unhold_floor_ms,
                                csv_path=args.csv, summary_path=args.summary,
                                history_path=args.history))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def ctl_main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="bodega-ctl", description="operator commands")
    sub = p.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("roster", help="roster operations")
    rp.add_argument("verb", choices=["get", "set", "stats"])
    rp.add_argument("roster_file", nargs="?", help="roster JSON (for set)")
    rp.add_argument("--node", required=True, help="client-facing host:port of any node")
    args = p.parse_args(argv)
    from .service.client import ctl_request

    roster = None
    if args.verb == "set":
        if not args.roster_file:
            print("roster set needs a roster JSON file", file=sys.stderr)
            return 2
        try:
            with open(args.roster_file, "r", encoding="utf-8") as f:
                roster = Roster.from_wire(json.load(f))
        except (OSError, ValueError) as e:  # unreadable, not JSON, or not a roster
            print(f"roster file invalid: {e}", file=sys.stderr)
            return 2
    verb = {"get": "roster_get", "set": "roster_set", "stats": "stats"}[args.verb]
    try:
        reply = asyncio.run(ctl_request(args.node, verb, roster))
    except (OSError, asyncio.TimeoutError) as e:
        print(f"node unreachable: {e}", file=sys.stderr)
        return 1
    if not reply.ok:
        print(f"rejected: {reply.detail}", file=sys.stderr)
        return 1
    out = {"ok": True}
    if reply.bal is not None:
        out["ballot"] = list(reply.bal)
    if reply.roster is not None:
        out["roster"] = reply.roster.to_wire()
    if args.verb == "stats":
        out["stats"] = [
            {"key": k.decode("latin-1"), "site": site, "reads": r, "writes": w}
            for k, site, r, w in reply.rows
        ]
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(sim_main())
