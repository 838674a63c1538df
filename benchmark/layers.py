"""Per-layer tracing for the traced runs, kept entirely in the benchmark.

Wrappers go around the layers' public entry points: each node's `handle`,
`Simulation.run`, `lincheck.check`, the daemon module's `encode` and
`FrameReader.feed`. They keep counts and busy times in memory; the run
writes them out when it ends. End-to-end figures never come from a traced
run.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from bodega.events import ClientRequest, Deliver, Send, TimerFire
from bodega.messages import Accept

from metrics import NODE_KINDS
_MSG_KIND = {name: name for name in ("Accept", "AcceptReply", "AcceptNote", "Commit", "Heartbeat")}
_MSG_KIND.update({name: "lease" for name in
                  ("Guard", "GuardReply", "Renew", "RenewReply", "Revoke", "RevokeReply")})
_MSG_KIND.update({"CatchUpRequest": "catchup", "CatchUpReply": "catchup"})


def event_kind(ev) -> str:
    t = type(ev)
    if t is Deliver:
        return _MSG_KIND.get(type(ev.msg).__name__, "other")
    if t is ClientRequest:
        return ev.cmd.kind
    if t is TimerFire:
        return "timer"
    return "other"


class Trace:
    """Counts and busy nanoseconds per layer."""

    def __init__(self) -> None:
        self.handle_ns: dict[str, int] = defaultdict(int)
        self.handle_calls: dict[str, int] = defaultdict(int)
        self.sends = 0
        self.accepts = 0
        self.accept_cmds = 0
        self.run_ns = 0
        self.lincheck_ns = 0
        self.lincheck_ops = 0
        self.enc_ns = 0
        self.enc_frames = 0
        self.enc_bytes = 0
        self.enc_bytes_by_kind: dict[str, int] = defaultdict(int)
        self.enc_frames_by_kind: dict[str, int] = defaultdict(int)
        self.dec_ns = 0
        self.dec_frames = 0

    # ------------------------------------------------------------ wrappers

    def wrap_node(self, node) -> None:
        """Time every `handle` call of one node, by event kind."""
        inner = node.handle
        handle_ns, handle_calls = self.handle_ns, self.handle_calls

        def handle(ev, now):
            t0 = perf_counter_ns()
            outs = inner(ev, now)
            kind = event_kind(ev)
            handle_ns[kind] += perf_counter_ns() - t0
            handle_calls[kind] += 1
            for o in outs:
                if type(o) is Send:
                    self.sends += 1
                    if type(o.msg) is Accept:
                        self.accepts += 1
                        self.accept_cmds += len(o.msg.batch)
            return outs

        node.handle = handle

    def run_sim(self, sim):
        t0 = perf_counter_ns()
        res = sim.run()
        self.run_ns += perf_counter_ns() - t0
        return res

    def lincheck(self, check, rows):
        t0 = perf_counter_ns()
        try:
            return check(rows)
        finally:
            self.lincheck_ns += perf_counter_ns() - t0
            self.lincheck_ops += len(rows)

    def wrap_wire(self, daemon_mod, frame_reader_cls) -> None:
        """Time the daemon module's `encode` and every `FrameReader.feed`."""
        enc = daemon_mod.encode
        feed = frame_reader_cls.feed

        def encode(frm, seq, msg):
            t0 = perf_counter_ns()
            raw = enc(frm, seq, msg)
            self.enc_ns += perf_counter_ns() - t0
            kind = type(msg).__name__
            self.enc_frames += 1
            self.enc_bytes += len(raw)
            self.enc_frames_by_kind[kind] += 1
            self.enc_bytes_by_kind[kind] += len(raw)
            return raw

        def traced_feed(reader, data):
            t0 = perf_counter_ns()
            envs = feed(reader, data)
            self.dec_ns += perf_counter_ns() - t0
            self.dec_frames += len(envs)
            return envs

        daemon_mod.encode = encode
        frame_reader_cls.feed = traced_feed

    # ------------------------------------------------------------- figures

    @property
    def handle_total_ns(self) -> int:
        return sum(self.handle_ns.values())

    @property
    def handle_total_calls(self) -> int:
        return sum(self.handle_calls.values())

    def node_metrics(self, ops: int) -> dict[str, float]:
        m = {
            "node.handle_us_per_op": self.handle_total_ns / 1e3 / ops,
            "node.events_per_op": self.handle_total_calls / ops,
            "node.sends_per_op": self.sends / ops,
            "node.cmds_per_batch": self.accept_cmds / self.accepts if self.accepts else 0.0,
        }
        for k in NODE_KINDS:
            calls = self.handle_calls.get(k, 0)
            m[f"node.handle_us.{k}"] = self.handle_ns.get(k, 0) / 1e3 / calls if calls else 0.0
        return m

    def lincheck_us_per_op(self) -> float:
        return self.lincheck_ns / 1e3 / self.lincheck_ops if self.lincheck_ops else 0.0

    def wire_metrics(self, ops: int) -> dict[str, float]:
        def mean_bytes(kind):
            n = self.enc_frames_by_kind.get(kind, 0)
            return self.enc_bytes_by_kind.get(kind, 0) / n if n else 0.0

        return {
            "wire.encode_us_per_frame": self.enc_ns / 1e3 / self.enc_frames if self.enc_frames else 0.0,
            "wire.decode_us_per_frame": self.dec_ns / 1e3 / self.dec_frames if self.dec_frames else 0.0,
            "wire.frames_per_op": self.enc_frames / ops,
            "wire.bytes_per_op": self.enc_bytes / ops,
            "wire.bytes.Accept": mean_bytes("Accept"),
            "wire.bytes.Heartbeat": mean_bytes("Heartbeat"),
        }

    @classmethod
    def from_json(cls, d: dict) -> "Trace":
        t = cls()
        for k, v in d.items():
            setattr(t, k, defaultdict(int, v) if isinstance(v, dict) else v)
        return t

    def to_json(self) -> dict:
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(self).items()}
