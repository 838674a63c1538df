"""The server daemon: the same protocol core as the simulator, behind real
sockets and real timers.

One task owns the core and consumes a single ordered event queue; connection
handlers and timers only enqueue. The core never reads the clock: `now` is
sampled once per dequeued event, so a recorded event log replays to an
identical state digest. A row of that log is the event in the message
codec's form plus its `t`.
"""
from __future__ import annotations

import asyncio
import time

from ..events import ArmTimer, CancelTimer, ClientRequest, Deliver, OperatorRequest, Reply, Send, TimerFire
from ..messages import Msg, msg_from_wire, msg_to_wire
from ..node import Node
from .config import NodeConfig, PeerAddr
from .wire import FrameReader, WireError, encode


_CLIENT_REQUESTS = (ClientRequest, OperatorRequest)


def mono_us() -> int:
    return time.monotonic_ns() // 1000


def replay_digest(cfg: NodeConfig, rows: list[dict]) -> str:
    """Feed a recorded event log through a fresh core; returns the digest."""
    node = Node(cfg.node_id, cfg.cluster, seed=cfg.seed)
    if rows and rows[0].get("kind") == "start":
        node.start(rows[0]["t"])
        rows = rows[1:]
    for row in rows:
        node.handle(msg_from_wire(row), row["t"])
    return node.state_digest()


# ------------------------------------------------------------------- daemon

class _PeerLink:
    """One outbound stream per peer; reconnects with backoff."""

    def __init__(self, daemon: "Daemon", peer_id: int, addr: str) -> None:
        self.daemon = daemon
        self.peer_id = peer_id
        self.addr = addr
        self.writer: asyncio.StreamWriter | None = None
        self.seq = 0
        self.task: asyncio.Task | None = None

    def send(self, msg: Msg) -> None:
        if self.writer is None or self.writer.is_closing():
            return  # dropped; the protocol retransmits what matters
        self.seq += 1
        try:
            self.writer.write(encode(f"n{self.daemon.cfg.node_id}", self.seq, msg))
        except ConnectionError:
            self.writer = None

    async def maintain(self) -> None:
        backoff = 0.05
        host, port = PeerAddr.parse(self.addr)
        while not self.daemon.stopping:
            if self.writer is None or self.writer.is_closing():
                try:
                    _r, w = await asyncio.open_connection(host, port)
                    self.writer = w
                    backoff = 0.05
                except OSError:
                    self.writer = None
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, 1.0)
                    continue
            await asyncio.sleep(0.2)


class Daemon:
    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self.node = Node(cfg.node_id, cfg.cluster, seed=cfg.seed)
        self.queue: asyncio.Queue = asyncio.Queue()
        self.timers: dict[tuple, tuple[int, int, asyncio.TimerHandle]] = {}
        self.timer_gen = 0
        self.links: dict[int, _PeerLink] = {}
        self.client_writers: dict[str, asyncio.StreamWriter] = {}
        self.client_seq: dict[str, int] = {}
        self.event_log: list[dict] = []
        self.stopping = False
        self.started = asyncio.Event()
        self._servers: list[asyncio.base_events.Server] = []
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        me = self.cfg.peers[self.cfg.node_id]
        ph, pp = PeerAddr.parse(me.peer)
        ch, cp = PeerAddr.parse(me.client)
        self._servers.append(await asyncio.start_server(self._peer_conn, ph, pp))
        self._servers.append(await asyncio.start_server(self._client_conn, ch, cp))
        for p in range(self.cfg.n):
            if p != self.cfg.node_id:
                link = _PeerLink(self, p, self.cfg.peers[p].peer)
                link.task = asyncio.create_task(link.maintain())
                self.links[p] = link
        self._tasks.append(asyncio.create_task(self._core_loop()))
        now = mono_us()
        if self.cfg.record_events:
            self.event_log.append({"t": now, "kind": "start"})
        self._apply(self.node.start(now))
        if self.cfg.announce and self.cfg.initial_roster is not None:
            async def _announce():
                await asyncio.sleep(0.3)  # let peer links come up
                await self.queue.put(OperatorRequest("roster_set", "boot", self.cfg.initial_roster))
            self._tasks.append(asyncio.create_task(_announce()))
        self.started.set()

    async def stop(self) -> None:
        self.stopping = True
        for s in self._servers:
            s.close()
        for t in self._tasks:
            t.cancel()
        for link in self.links.values():
            if link.task:
                link.task.cancel()
            if link.writer:
                link.writer.close()
        for w in self.client_writers.values():
            w.close()
        await asyncio.sleep(0)

    async def run_forever(self) -> None:
        await self.start()
        while not self.stopping:
            await asyncio.sleep(0.5)

    # ------------------------------------------------------------ the core

    async def _core_loop(self) -> None:
        while not self.stopping:
            ev = await self.queue.get()
            now = mono_us()
            if self.cfg.record_events:
                self.event_log.append({"t": now, **msg_to_wire(ev)})
            try:
                outs = self.node.handle(ev, now)
            except Exception:  # a poisoned event must not kill the daemon
                import traceback

                traceback.print_exc()
                continue
            self._apply(outs)

    def _apply(self, outs: list) -> None:
        for o in outs:
            if isinstance(o, Send):
                if o.to == self.cfg.node_id:
                    self.queue.put_nowait(Deliver(o.to, o.msg))
                else:
                    link = self.links.get(o.to)
                    if link is not None:
                        link.send(o.msg)
            elif isinstance(o, Reply):
                w = self.client_writers.get(o.client)
                if w is not None and not w.is_closing():
                    seq = self.client_seq.get(o.client, 0) + 1
                    self.client_seq[o.client] = seq
                    try:
                        w.write(encode(f"n{self.cfg.node_id}", seq, o.msg))
                    except ConnectionError:
                        pass
            elif isinstance(o, ArmTimer):
                self._arm(o.key, o.deadline)
            elif isinstance(o, CancelTimer):
                cur = self.timers.pop(o.key, None)
                if cur is not None:
                    cur[2].cancel()

    def _arm(self, key: tuple, deadline: int) -> None:
        cur = self.timers.pop(key, None)
        if cur is not None:
            cur[2].cancel()
        self.timer_gen += 1
        gen = self.timer_gen
        delay = max(0, deadline - mono_us()) / 1e6
        handle = asyncio.get_running_loop().call_later(delay, self._fire, key, gen)
        self.timers[key] = (deadline, gen, handle)

    def _fire(self, key: tuple, gen: int) -> None:
        cur = self.timers.get(key)
        if cur is None or cur[1] != gen:
            return
        del self.timers[key]
        self.queue.put_nowait(TimerFire(key))

    # -------------------------------------------------------- connections

    async def _peer_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        frames = FrameReader()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for env in frames.feed(data):
                    if env.frm.startswith("n"):
                        await self.queue.put(Deliver(int(env.frm[1:]), env.msg))
        except (WireError, ConnectionError, ValueError):
            pass  # close without touching node state
        finally:
            writer.close()

    async def _client_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        frames = FrameReader()
        conn_clients: set[str] = set()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for env in frames.feed(data):
                    # a client speaks only for itself, and only in requests
                    msg = env.msg
                    if type(msg) not in _CLIENT_REQUESTS or msg.client != env.frm:
                        continue
                    if msg.client not in conn_clients:
                        conn_clients.add(msg.client)
                        self.client_writers[msg.client] = writer
                    await self.queue.put(msg)
        except (WireError, ConnectionError, ValueError):
            pass
        finally:
            for cid in conn_clients:
                if self.client_writers.get(cid) is writer:
                    del self.client_writers[cid]
            writer.close()


async def serve(cfg: NodeConfig) -> Daemon:
    """Start a daemon and return it (caller owns shutdown)."""
    d = Daemon(cfg)
    await d.start()
    return d
