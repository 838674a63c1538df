"""The server daemon: the same protocol core as the simulator, behind real
sockets and real timers.

The core runs inside the event loop's callbacks. Each accepted connection
is an `asyncio.Protocol`: `data_received` decodes the frames it got and
hands each admitted event to `Daemon._step`, and so do timer callbacks and
the boot announce. `_step` runs `Node.handle` on the event, performs its
outputs, and then handles the messages the node sent itself, in the order
sent, each after the `handle` call that sent it has returned. The loop runs
one callback at a time, so the core sees one event at a time. The core never
reads the clock: `now` is sampled once per event, so a recorded event log
replays to an identical state digest. A row of that log is the event's wire
form with the local time in front, `[t, kind_id, field...]`; the first row,
`[t]`, is the node's start.
"""
from __future__ import annotations

import asyncio
import time
import traceback

from ..events import ArmTimer, CancelTimer, ClientRequest, Deliver, OperatorRequest, Reply, Send, TimerFire
from ..messages import Msg, from_wire, to_wire
from ..node import Node
from .config import NodeConfig, PeerAddr
from .wire import FrameReader, WireError, encode


_CLIENT_REQUESTS = (ClientRequest, OperatorRequest)


def mono_us() -> int:
    return time.monotonic_ns() // 1000


def replay_digest(cfg: NodeConfig, rows: list[list]) -> str:
    """Feed a recorded event log through a fresh core; returns the digest."""
    node = Node(cfg.node_id, cfg.cluster, seed=cfg.seed)
    if rows and len(rows[0]) == 1:
        node.start(rows[0][0])
        rows = rows[1:]
    for row in rows:
        node.handle(from_wire(row, 1), row[0])
    return node.state_digest()


# ------------------------------------------------------------------- daemon

class _PeerLink:
    """One outbound stream per peer; reconnects with backoff."""

    def __init__(self, daemon: "Daemon", peer_id: int, addr: str) -> None:
        self.daemon = daemon
        self.peer_id = peer_id
        self.addr = addr
        self.transport: asyncio.Transport | None = None
        self.seq = 0
        self.task: asyncio.Task | None = None

    def send(self, msg: Msg) -> None:
        if self.transport is None or self.transport.is_closing():
            return  # dropped; the protocol retransmits what matters
        self.seq += 1
        self.transport.write(encode(f"n{self.daemon.cfg.node_id}", self.seq, msg))

    async def maintain(self) -> None:
        backoff = 0.05
        host, port = PeerAddr.parse(self.addr)
        loop = asyncio.get_running_loop()
        while not self.daemon.stopping:
            if self.transport is None or self.transport.is_closing():
                try:
                    # the link only writes; the peer never answers on it
                    self.transport, _ = await loop.create_connection(asyncio.Protocol, host, port)
                    backoff = 0.05
                except OSError:
                    self.transport = None
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, 1.0)
                    continue
            await asyncio.sleep(0.2)


class _Inbound(asyncio.Protocol):
    """An accepted connection: frames in, events to the core. A frame that
    does not decode closes the connection without touching node state."""

    def __init__(self, daemon: "Daemon") -> None:
        self.daemon = daemon
        self.frames = FrameReader()
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.daemon._accepted.add(transport)

    def connection_lost(self, exc) -> None:
        self.daemon._accepted.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        try:
            envs = self.frames.feed(data)
        except WireError:
            self.transport.close()
            return
        for env in envs:
            if self.transport.is_closing():
                return
            self.admit(env)

    def admit(self, env) -> None:
        raise NotImplementedError


class _PeerConn(_Inbound):
    """A peer's outbound link, seen from the receiving node."""

    def admit(self, env) -> None:
        frm = env.frm
        if frm[:1] != "n":
            return  # not a node
        # a node sends only node messages; an event kind here would be
        # logged as a row that replay refuses
        nid = frm[1:]
        if not (nid.isascii() and nid.isdigit()) or not isinstance(env.msg, Msg):
            self.transport.close()
            return
        self.daemon._step(Deliver(int(nid), env.msg))


class _ClientConn(_Inbound):
    """A client's connection: replies to the clients it speaks for go back
    on it."""

    def __init__(self, daemon: "Daemon") -> None:
        super().__init__(daemon)
        self.clients: set[str] = set()

    def admit(self, env) -> None:
        # a client speaks only for itself, and only in requests
        msg = env.msg
        if type(msg) not in _CLIENT_REQUESTS or msg.client != env.frm:
            return
        if msg.client not in self.clients:
            self.clients.add(msg.client)
            self.daemon.client_writers[msg.client] = self.transport
        self.daemon._step(msg)

    def connection_lost(self, exc) -> None:
        writers = self.daemon.client_writers
        for cid in self.clients:
            if writers.get(cid) is self.transport:
                del writers[cid]
        super().connection_lost(exc)


class Daemon:
    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self.node = Node(cfg.node_id, cfg.cluster, seed=cfg.seed)
        self.timers: dict[tuple, tuple[int, int, asyncio.TimerHandle]] = {}
        self.timer_gen = 0
        self.links: dict[int, _PeerLink] = {}
        self.client_writers: dict[str, asyncio.Transport] = {}
        self.client_seq: dict[str, int] = {}
        self.event_log: list[list] = []
        self.stopping = False
        self._servers: list[asyncio.base_events.Server] = []
        self._accepted: set[asyncio.Transport] = set()
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        me = self.cfg.peers[self.cfg.node_id]
        ph, pp = PeerAddr.parse(me.peer)
        ch, cp = PeerAddr.parse(me.client)
        loop = asyncio.get_running_loop()
        self._servers.append(await loop.create_server(lambda: _PeerConn(self), ph, pp))
        self._servers.append(await loop.create_server(lambda: _ClientConn(self), ch, cp))
        for p in range(self.cfg.n):
            if p != self.cfg.node_id:
                link = _PeerLink(self, p, self.cfg.peers[p].peer)
                link.task = asyncio.create_task(link.maintain())
                self._tasks.append(link.task)
                self.links[p] = link
        now = mono_us()
        if self.cfg.record_events:
            self.event_log.append([now])
        self._apply(self.node.start(now), [])  # only timers: start sends nothing
        if self.cfg.announce and self.cfg.initial_roster is not None:
            async def _announce():
                await asyncio.sleep(0.3)  # let peer links come up
                self._step(OperatorRequest("roster_set", "boot", self.cfg.initial_roster))
            self._tasks.append(asyncio.create_task(_announce()))

    async def stop(self) -> None:
        """Stop serving: close the listeners, every accepted connection and
        peer link, cancel the timers, and wait for the daemon's tasks."""
        self.stopping = True
        for s in self._servers:
            s.close()
        for _deadline, _gen, handle in self.timers.values():
            handle.cancel()
        self.timers.clear()
        for t in self._tasks:
            t.cancel()
        for link in self.links.values():
            if link.transport is not None:
                link.transport.close()
        for tr in list(self._accepted):
            tr.close()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for s in self._servers:
            await s.wait_closed()

    async def run_forever(self) -> None:
        await self.start()
        while not self.stopping:
            await asyncio.sleep(0.5)

    # ------------------------------------------------------------ the core

    def _step(self, ev) -> None:
        """Run the core on one event, then on each message it sent to
        itself, first sent first handled."""
        if self.stopping:
            return
        fifo = [ev]
        for ev in fifo:  # _apply appends this node's self-sends as the loop runs
            now = mono_us()
            if self.cfg.record_events:
                self.event_log.append([now, *to_wire(ev)])
            try:
                outs = self.node.handle(ev, now)
            except Exception:  # a poisoned event must not kill the daemon
                traceback.print_exc()
                continue
            self._apply(outs, fifo)

    def _apply(self, outs: list, fifo: list) -> None:
        me = self.cfg.node_id
        for o in outs:
            t = type(o)
            if t is Send:
                if o.to == me:
                    fifo.append(Deliver(me, o.msg))
                else:
                    link = self.links.get(o.to)
                    if link is not None:
                        link.send(o.msg)
            elif t is Reply:
                w = self.client_writers.get(o.client)
                if w is not None and not w.is_closing():
                    seq = self.client_seq.get(o.client, 0) + 1
                    self.client_seq[o.client] = seq
                    w.write(encode(f"n{me}", seq, o.msg))
            elif t is ArmTimer:
                self._arm(o.key, o.deadline)
            elif t is CancelTimer:
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
        self._step(TimerFire(key))


async def serve(cfg: NodeConfig) -> Daemon:
    """Start a daemon and return it (caller owns shutdown)."""
    d = Daemon(cfg)
    await d.start()
    return d
