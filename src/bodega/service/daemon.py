"""The server daemon: the same protocol core as the simulator, behind real
sockets and real timers.

The core runs inside the event loop's callbacks. Each accepted connection
is an `asyncio.Protocol`: `data_received` decodes the frames it got and
hands each admitted event to `Daemon._step`, and so do timer callbacks and
the boot announce. `_step` runs `Node.handle` on the event, performs its
outputs, and then handles the messages the node sent itself, in the order
sent, each after the `handle` call that sent it has returned. The loop runs
one callback at a time, so the core sees one event at a time. The core never
reads the clock: `now` is the loop's clock (`loop_us`), sampled once per
event, and timers are armed on that clock, so a recorded event log replays
to an identical state digest (`Node.replay`). A row of that log is the
event's wire form with the local time in front, `[t, kind_id, field...]`;
the first row, `[t]`, is the node's start, which comes before the daemon
listens. A simulator trace holds the same rows, with the global time and
the node id in front.

Start-up and links wait on events, not on the clock. Each outbound peer
link is a `_PeerLink` protocol that reconnects as soon as its connection is
lost, and a peer connecting to this node cuts short the backoff of every
link that is down. An `announce` node sends its boot roster once its links
to every peer are up and every peer's link to it has connected, or after
`t_hb_fail` if some are not; heartbeats carry the roster to a peer that
comes later.
"""
from __future__ import annotations

import asyncio
import traceback

from ..events import ArmTimer, CancelTimer, ClientRequest, Deliver, OperatorRequest, Reply, Send, TimerFire
from ..messages import Msg, to_wire
from ..node import Node
from . import loop_us
from .config import NodeConfig, PeerAddr
from .wire import FrameReader, WireError, encode


# ------------------------------------------------------------------- daemon

class _PeerLink(asyncio.Protocol):
    """The outbound stream to one peer; it only writes, the peer never
    answers on it. `connection_made` keeps the transport and tells the
    daemon; `connection_lost` sets `down`, which wakes `maintain` to
    reconnect at once. A refused connect backs off from 50 ms, doubling up
    to 1 s, unless `retry` is set first: the daemon sets it when a peer
    connects to it, since that peer is now listening."""

    def __init__(self, daemon: "Daemon", peer_id: int, addr: str) -> None:
        self.daemon = daemon
        self.peer_id = peer_id
        self.addr = addr
        self.transport: asyncio.Transport | None = None
        self.seq = 0
        self.down = asyncio.Event()  # set while there is no connection
        self.down.set()
        self.retry = asyncio.Event()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.down.clear()
        self.daemon._link_up()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.down.set()

    def send(self, msg: Msg) -> None:
        if self.transport is None or self.transport.is_closing():
            return  # dropped; the protocol retransmits what matters
        self.seq += 1
        self.transport.write(encode(f"n{self.daemon.cfg.node_id}", self.seq, msg))

    async def maintain(self) -> None:
        backoff = 0.05
        host, port = PeerAddr.parse(self.addr)
        loop = asyncio.get_running_loop()
        while not self.daemon.stopped.is_set():
            self.retry.clear()
            try:
                await loop.create_connection(lambda: self, host, port)
            except OSError:
                try:
                    await asyncio.wait_for(self.retry.wait(), backoff)
                except asyncio.TimeoutError:
                    pass
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = 0.05
            await self.down.wait()


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
    """A peer's outbound link, seen from the receiving node. Its arrival
    means the peer is listening: the links that are down retry now."""

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.daemon._peers_in += 1
        for link in self.daemon.links.values():
            link.retry.set()
        self.daemon._link_up()

    def connection_lost(self, exc) -> None:
        self.daemon._peers_in -= 1
        super().connection_lost(exc)

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
    on it, numbered by `seq`, so what the daemon keeps per client goes
    with the connection."""

    def __init__(self, daemon: "Daemon") -> None:
        super().__init__(daemon)
        self.clients: set[str] = set()
        self.seq = 0  # of the last reply frame sent on this connection

    def admit(self, env) -> None:
        # a client speaks only for itself, and only in requests
        msg = env.msg
        t = type(msg)
        cid = msg.cmd.client if t is ClientRequest else msg.client if t is OperatorRequest else None
        if cid != env.frm:
            return
        if cid not in self.clients:
            self.clients.add(cid)
            self.daemon.client_writers[cid] = self
        self.daemon._step(msg)

    def connection_lost(self, exc) -> None:
        writers = self.daemon.client_writers
        for cid in self.clients:
            if writers.get(cid) is self:
                del writers[cid]
        super().connection_lost(exc)


class Daemon:
    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self.node = Node(cfg.node_id, cfg.cluster, seed=cfg.seed)
        self.timers: dict[tuple, asyncio.TimerHandle] = {}
        self.links: dict[int, _PeerLink] = {}
        self.client_writers: dict[str, _ClientConn] = {}  # a client's latest connection
        self.event_log: list[list] = []
        self.stopped = asyncio.Event()
        self._announce: asyncio.TimerHandle | None = None
        self._peers_in = 0  # open connections from peers' links
        self._servers: list[asyncio.base_events.Server] = []
        self._accepted: set[asyncio.Transport] = set()
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        # the core starts before the ports open, so no frame reaches it first
        now = loop_us()
        if self.cfg.record_events:
            self.event_log.append([now])
        self._apply(self.node.start(now), [])  # only timers: start sends nothing
        # the links exist, and connect, before a peer's frame can make the
        # core send on them
        for p in range(self.cfg.n):
            if p != self.cfg.node_id:
                link = _PeerLink(self, p, self.cfg.peers[p].peer)
                self.links[p] = link
                self._tasks.append(asyncio.create_task(link.maintain()))
        me = self.cfg.peers[self.cfg.node_id]
        ph, pp = PeerAddr.parse(me.peer)
        ch, cp = PeerAddr.parse(me.client)
        loop = asyncio.get_running_loop()
        self._servers.append(await loop.create_server(lambda: _PeerConn(self), ph, pp))
        self._servers.append(await loop.create_server(lambda: _ClientConn(self), ch, cp))
        if self.cfg.announce and self.cfg.initial_roster is not None:
            self._announce = loop.call_later(self.cfg.cluster.t_hb_fail / 1e6, self._boot_announce)
            self._link_up()  # the links may all have come up while the ports opened

    def _link_up(self) -> None:
        """A link to or from a peer came up. A pending boot announce goes
        out once the links both ways are up: every outbound link is
        connected, and as many peer connections are open as there are
        peers, so no peer's first reply is dropped on a link still down."""
        if (self._announce is not None and self._peers_in >= len(self.links)
                and all(l.transport is not None for l in self.links.values())):
            self._boot_announce()

    def _boot_announce(self) -> None:
        self._announce.cancel()
        self._announce = None
        self._step(OperatorRequest("roster_set", "boot", self.cfg.initial_roster))

    async def stop(self) -> None:
        """Stop serving: close the listeners, every accepted connection and
        peer link, cancel the timers, and wait for the daemon's tasks and
        for each link's `connection_lost`."""
        self.stopped.set()
        if self._announce is not None:
            self._announce.cancel()
            self._announce = None
        for s in self._servers:
            s.close()
        for handle in self.timers.values():
            handle.cancel()
        self.timers.clear()
        for t in self._tasks:
            t.cancel()
        for link in self.links.values():
            if link.transport is not None:
                link.transport.abort()  # a stopped node's unsent messages are lost, as in a crash
        for tr in list(self._accepted):
            tr.close()
        await asyncio.gather(*self._tasks, *(link.down.wait() for link in self.links.values()),
                             return_exceptions=True)
        for s in self._servers:
            await s.wait_closed()

    async def run_forever(self) -> None:
        await self.start()
        await self.stopped.wait()

    # ------------------------------------------------------------ the core

    def _step(self, ev) -> None:
        """Run the core on one event, then on each message it sent to
        itself, first sent first handled."""
        if self.stopped.is_set():
            return
        fifo = [ev]
        for ev in fifo:  # _apply appends this node's self-sends as the loop runs
            now = loop_us()
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
                conn = self.client_writers.get(o.client)
                if conn is not None and not conn.transport.is_closing():
                    conn.seq += 1
                    conn.transport.write(encode(f"n{me}", conn.seq, o.msg))
            elif t is ArmTimer:
                self._arm(o.key, o.deadline)
            elif t is CancelTimer:
                handle = self.timers.pop(o.key, None)
                if handle is not None:
                    handle.cancel()

    def _arm(self, key: tuple, deadline: int) -> None:
        """(Re-)arm `key` at `deadline`, a `loop_us()` time. The old handle
        is cancelled, and asyncio skips a cancelled handle even once it is
        due, so only the latest arm of a key ever fires."""
        handle = self.timers.get(key)
        if handle is not None:
            handle.cancel()
        self.timers[key] = asyncio.get_running_loop().call_at(deadline / 1e6, self._fire, key)

    def _fire(self, key: tuple) -> None:
        del self.timers[key]
        self._step(TimerFire(key))


async def serve(cfg: NodeConfig) -> Daemon:
    """Start a daemon and return it (caller owns shutdown)."""
    d = Daemon(cfg)
    await d.start()
    return d
