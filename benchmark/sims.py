"""The simulator workloads: sim-faults and sim-geo-reads.

A run repeats whole rounds of the same simulations until its time is up.
Every round is checked: the simulator's monitors, the benchmark's own
history checker, `lincheck.check` per key, the workload's property checks,
and that the round repeats the first one exactly.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from statistics import median

from bodega import lincheck
from bodega.sim.harness import Simulation
from bodega.sim.scenario import scenario_from_dict

import inputs
from metrics import NODE_COUNTERS
from histcheck import Op, check_history
from layers import Trace
from stats import longest_gap, pct

SETUP_SECONDS = 0.3  # set-ups are repeated for this long before each round
MIN_ROUNDS = 3  # a run's times are taken over at least this many rounds


@dataclass
class Round:
    ops: int = 0
    failed_ops: int = 0
    run_cpu: float = 0.0  # CPU seconds inside Simulation.run
    run_wall: float = 0.0
    round_cpu: float = 0.0  # the whole round: simulations and checks
    round_wall: float = 0.0
    virtual_us: int = 0  # simulated time covered by the runs
    lincheck_cpu: float = 0.0
    lincheck_ops: int = 0
    keys_checked: int = 0
    keys_failed: int = 0  # lincheck.check raised RecursionError
    reads: list[int] = field(default_factory=list)  # virtual latencies, us
    writes: list[int] = field(default_factory=list)
    unavail: list[int] = field(default_factory=list)  # per simulation, us
    counters: dict[str, int] = field(default_factory=dict)
    heap_events: int = 0
    msgs: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ops + self.keys_checked

    @property
    def failed(self) -> int:
        return self.failed_ops + self.keys_failed


class SimWorkload:
    def __init__(self, name: str, seeds: range | None = None) -> None:
        self.name = name
        if name == "sim-faults":
            self.specs = [(inputs.fault_scenario(s), s) for s in seeds or inputs.FAULT_SEEDS]
        else:
            self.specs = [(inputs.geo_scenario(), s) for s in seeds or inputs.GEO_SEEDS]

    def setup(self) -> list[float]:
        """Build every scenario and simulation of a round, as each round
        does, again and again for SETUP_SECONDS; returns each one's time."""
        samples: list[float] = []
        t0 = time.perf_counter()
        while not samples or time.perf_counter() - t0 < SETUP_SECONDS:
            s0 = time.perf_counter()
            self.scenarios = [(scenario_from_dict(d), seed) for d, seed in self.specs]
            for sc, seed in self.scenarios:
                Simulation(sc, seed, monitors=True)
            samples.append(time.perf_counter() - s0)
        return samples

    def round(self, monitors: bool = True, trace: Trace | None = None) -> Round:
        r = Round()
        c0, w0 = time.process_time(), time.perf_counter()
        hist_hash = hashlib.sha256()
        for sc, seed in self.scenarios:
            sim = Simulation(sc, seed, monitors=monitors)
            if trace is not None:
                for node in sim.nodes:
                    trace.wrap_node(node)
            rc0, rw0 = time.process_time(), time.perf_counter()
            res = trace.run_sim(sim) if trace is not None else sim.run()
            r.run_cpu += time.process_time() - rc0
            r.run_wall += time.perf_counter() - rw0
            r.virtual_us += sim.now
            r.heap_events += sim.seq
            r.msgs += sim.sends
            for node in res.nodes:
                for k in NODE_COUNTERS:
                    r.counters[k] = r.counters.get(k, 0) + node.counters.get(k, 0)
            if monitors and res.violations:
                r.problems += [f"{sc.name}: monitor: {v}" for v in res.violations[:3]]
            self._measure(r, sc, res.history, hist_hash)
            self._lincheck(r, sc, res.history, trace)
        r.digest = hist_hash.hexdigest()
        r.round_cpu = time.process_time() - c0
        r.round_wall = time.perf_counter() - w0
        return r

    def _measure(self, r: Round, sc, history, hist_hash) -> None:
        w = sc.workload
        done = []
        ops = []
        for rec in history:
            hist_hash.update(repr((rec.request_id, rec.op, rec.key, rec.value, rec.invoke,
                                   rec.response, rec.outcome)).encode())
            r.ops += 1
            ok = rec.outcome == "ok"
            if not ok:
                r.failed_ops += 1
            else:
                lat = rec.response - rec.invoke
                (r.reads if rec.op == "get" else r.writes).append(lat)
                done.append(rec.response)
                if self.name == "sim-geo-reads":
                    self._floors(r, rec, lat)
            ops.append(Op(rec.client, rec.op, rec.key, rec.value, rec.invoke,
                          rec.response if ok else None))
        done.sort()
        r.unavail.append(longest_gap(done, w.start, w.start + w.duration))
        r.problems += [f"{sc.name}: {p}" for p in check_history(ops)[:3]]

    @staticmethod
    def _floors(r: Round, rec, lat: int) -> None:
        floor = inputs.geo_write_floor_us(rec.site) if rec.op == "put" else inputs.geo_read_floor_us()
        if lat < floor:
            r.problems.append(f"{rec.op} {rec.request_id} from site {rec.site} took "
                              f"{lat} us, under the {floor} us floor")

    @staticmethod
    def _lincheck(r: Round, sc, history, trace: Trace | None) -> None:
        per_key: dict[bytes, list[dict]] = {}
        for rec in history:
            per_key.setdefault(rec.key, []).append(rec.history_row())
        for key in sorted(per_key):
            rows = per_key[key]
            r.keys_checked += 1
            c0 = time.process_time()
            try:
                v = trace.lincheck(lincheck.check, rows) if trace else lincheck.check(rows)
            except RecursionError:
                r.keys_failed += 1
                v = None
            r.lincheck_cpu += time.process_time() - c0
            r.lincheck_ops += len(rows)
            if v is not None:
                r.problems.append(f"{sc.name}: lincheck: {v.describe()}")


def _v_metrics(r: Round) -> dict[str, float]:
    reads, writes = sorted(r.reads), sorted(r.writes)
    return {
        "vread_p50_ms": pct(reads, 0.5) / 1e3,
        "vread_p99_ms": pct(reads, 0.99) / 1e3,
        "vwrite_p50_ms": pct(writes, 0.5) / 1e3,
        "vwrite_p99_ms": pct(writes, 0.99) / 1e3,
        "vunavail_ms": sum(r.unavail) / len(r.unavail) / 1e3,
    }


def end_to_end(rounds: list[Round], setups: list[float]) -> dict[str, float]:
    """Every round repeats the same computation (the caller checks that its
    histories match), and so does every set-up. Each rate and cost is
    taken over all the run's rounds, and `setup_s` is the median set-up:
    the host's speed moves within seconds, and the least time of a few
    rounds would report whichever brief fast spell a run happened to meet.
    The real-time read and write latencies are the simulated ones scaled
    by the real time the simulator takes per simulated second, so they
    move with `sim_ops_per_s`."""
    v = _v_metrics(rounds[0])
    ops = sum(r.ops for r in rounds)

    def total(times: str) -> float:
        return sum(getattr(r, times) for r in rounds)

    scale = total("run_wall") / (total("virtual_us") / 1e6)
    m = {
        "setup_s": median(setups),
        "ops_per_s": ops / total("round_wall"),
        "read_p50_ms": v["vread_p50_ms"] * scale,
        "read_p99_ms": v["vread_p99_ms"] * scale,
        "write_p50_ms": v["vwrite_p50_ms"] * scale,
        "write_p99_ms": v["vwrite_p99_ms"] * scale,
        "server_cpu_us_per_op": total("round_cpu") / ops * 1e6,
        "sim_ops_per_s": ops / total("run_cpu"),
        "lincheck_ops_per_s": total("lincheck_ops") / total("lincheck_cpu"),
    }
    m.update(v)
    return m


def per_layer(base: Round, no_monitors: Round, traced: Round, trace: Trace) -> dict[str, float]:
    ops = traced.ops
    m = trace.node_metrics(ops)
    for k in NODE_COUNTERS:
        m[f"node.{k}"] = traced.counters.get(k, 0)
    m.update({
        "sim.self_us_per_op": (trace.run_ns - trace.handle_total_ns) / 1e3 / ops,
        "sim.monitor_us_per_op": (base.run_cpu - no_monitors.run_cpu) / ops * 1e6,
        "sim.heap_events_per_op": traced.heap_events / ops,
        "sim.msgs_per_op": traced.msgs / ops,
        "lincheck.us_per_op": trace.lincheck_us_per_op(),
        "lincheck.keys_checked": traced.keys_checked,
        "lincheck.keys_failed": traced.keys_failed,
        "trace.rate_ratio": base.run_cpu / traced.run_cpu,
    })
    return m


def run(name: str, seconds: float, traced: bool,
        seeds: range | None = None) -> tuple[list[Round], list[float], dict[str, float]]:
    """Returns the run's rounds (all checked by the caller), its set-up
    times and its metrics."""
    wl = SimWorkload(name, seeds)
    if not traced:
        rounds, setups = [], []
        t0 = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            setups += wl.setup()
            rounds.append(wl.round())
        return rounds, setups, end_to_end(rounds, setups)
    setups = wl.setup()
    base = wl.round()
    no_monitors = wl.round(monitors=False)
    trace = Trace()
    traced_round = wl.round(trace=trace)
    return [base, no_monitors, traced_round], setups, per_layer(base, no_monitors, traced_round, trace)
