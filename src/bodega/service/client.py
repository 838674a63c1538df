"""Asyncio client library: drives the same retry/unhold session logic as the
simulated clients against real sockets."""
from __future__ import annotations

import asyncio
import time
from collections import deque

from ..events import OperatorRequest
from ..messages import CtlReply
from ..model import Command, Roster
from ..reads import ClientArm, ClientCache, ClientDone, ClientSend, ClientSession
from . import loop_us
from .config import PeerAddr
from .wire import FrameReader, WireError, encode


class _Link(asyncio.Protocol):
    """The client's connection to one node: each reply decoded in
    `data_received` goes straight to the client. A frame that does not
    decode closes the link; the next send to the node reconnects."""

    def __init__(self, client: "KvClient") -> None:
        self.client = client
        self.frames = FrameReader()
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.transport = None

    def data_received(self, data: bytes) -> None:
        try:
            envs = self.frames.feed(data)
        except WireError:
            self.transport.close()
            return
        for env in envs:
            self.client._deliver(env.msg)


def _wake(fut: asyncio.Future) -> None:
    if not fut.done():
        fut.set_result(None)


class KvClient:
    """One logical client near `site`. Thread-unsafe; one op at a time per
    instance (run several instances for concurrency). No other client or
    run may share its `cid`, which names one incarnation (see `Command`).

    Its I/O is callbacks: each node link is a protocol whose replies land
    in `replies`, and a waiting op awaits one future, which the first
    reply or a timer armed for that wait resolves. Replies that arrive
    between ops wait in `replies`; the next op's session drops them by
    seq. Time is `loop_us()`."""

    def __init__(self, client_addrs: list[str], site: int, cid: str,
                 unhold_floor_ms: float = 50.0, op_timeout_s: float = 30.0) -> None:
        self.addrs = client_addrs
        self.cid = cid
        self.cache = ClientCache(site, len(client_addrs), int(unhold_floor_ms * 1000))
        self.patience = int(op_timeout_s * 1_000_000)
        self.links: dict[int, _Link] = {}
        self.seq = 0
        self.replies: deque = deque()
        self.op_seq = 0  # the seq of the last op
        self._waiter: asyncio.Future | None = None

    async def close(self) -> None:
        for link in self.links.values():
            if link.transport is not None:
                link.transport.close()
        self.links.clear()

    def _deliver(self, msg) -> None:
        self.replies.append(msg)
        if self._waiter is not None:
            _wake(self._waiter)

    async def _send(self, node: int, msg) -> None:
        link = self.links.get(node)
        tr = None if link is None else link.transport
        if tr is None or tr.is_closing():
            host, port = PeerAddr.parse(self.addrs[node])
            try:
                tr, _link = await asyncio.get_running_loop().create_connection(
                    lambda: _Link(self), host, port)
            except OSError:
                return  # unreachable node: the session timer will rotate
            self.links[node] = _link
        self.seq += 1
        tr.write(encode(self.cid, self.seq, msg))

    async def op(self, op: str, key: bytes, value: bytes | None = None,
                 request_id: str | None = None) -> tuple[str, bytes | None, int]:
        """Run one op to completion; returns (outcome, value, latency_us). Its
        seq is the last plus 1, or n of a `request_id` "<cid>.<n>" above the
        last; any other id raises ValueError, as its write would be skipped."""
        seq = self.op_seq + 1
        if request_id is not None:
            cid, _dot, n = request_id.rpartition(".")
            if cid != self.cid or not (n.isascii() and n.isdigit()) or int(n) < seq:
                raise ValueError(f"request id {request_id!r} is not {self.cid}.<n>, n >= {seq}")
            seq = int(n)
        self.op_seq = seq
        loop = asyncio.get_running_loop()
        cmd = Command(op, key, (value or b"") if op == "put" else None, self.cid, seq)
        started = loop_us()
        sess = ClientSession(self.cache, cmd, started, self.patience)
        outs = sess.begin()
        deadline = started + self.cache.unhold_floor
        replies = self.replies
        while True:
            done: ClientDone | None = None
            for o in outs:
                if isinstance(o, ClientSend):
                    await self._send(o.target, o.req)
                elif isinstance(o, ClientArm):
                    deadline = o.deadline
                elif isinstance(o, ClientDone):
                    done = o
            if done is not None:
                return done.outcome, done.value, loop_us() - started
            if not replies:
                self._waiter = fut = loop.create_future()
                timer = loop.call_at(deadline / 1e6, _wake, fut)
                try:
                    await fut
                finally:
                    timer.cancel()
                    self._waiter = None
            if replies:
                outs = sess.on_msg(replies.popleft(), loop_us())
            else:
                outs = sess.on_timer(loop_us())

    async def put(self, key: bytes, value: bytes):
        return await self.op("put", key, value)

    async def get(self, key: bytes):
        return await self.op("get", key)


async def ctl_request(addr: str, verb: str, roster: Roster | None = None,
                      timeout_s: float = 5.0) -> CtlReply:
    """One-shot operator request against a node's client port."""
    host, port = PeerAddr.parse(addr)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode("ctl", 1, OperatorRequest(verb, "ctl", roster)))
        await writer.drain()
        frames = FrameReader()
        deadline = time.monotonic() + timeout_s
        while True:
            data = await asyncio.wait_for(reader.read(65536),
                                          max(0.01, deadline - time.monotonic()))
            if not data:
                raise ConnectionError("connection closed before reply")
            for env in frames.feed(data):
                if isinstance(env.msg, CtlReply):
                    return env.msg
    finally:
        writer.close()
