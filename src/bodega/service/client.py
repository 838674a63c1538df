"""Asyncio client library: drives the same retry/unhold session logic as the
simulated clients against real sockets."""
from __future__ import annotations

import asyncio
import time

from ..events import OperatorRequest
from ..messages import CtlReply
from ..model import Command, Roster
from ..reads import ClientArm, ClientCache, ClientDone, ClientSend, ClientSession
from .config import PeerAddr
from .wire import FrameReader, encode


def mono_us() -> int:
    return time.monotonic_ns() // 1000


class KvClient:
    """One logical client near `site`. Thread-unsafe; one op at a time per
    instance (run several instances for concurrency). No other client or
    run may share its `cid`, which names one incarnation (see `Command`)."""

    def __init__(self, client_addrs: list[str], site: int, cid: str,
                 unhold_floor_ms: float = 50.0, op_timeout_s: float = 30.0) -> None:
        self.addrs = client_addrs
        self.cid = cid
        self.cache = ClientCache(site, len(client_addrs), int(unhold_floor_ms * 1000))
        self.patience = int(op_timeout_s * 1_000_000)
        self.conns: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self.seq = 0
        self.inbox: asyncio.Queue = asyncio.Queue()
        self._readers: list[asyncio.Task] = []
        self.op_seq = 0  # the seq of the last op

    async def close(self) -> None:
        for t in self._readers:
            t.cancel()
        for _r, w in self.conns.values():
            w.close()
        self.conns.clear()

    async def _conn(self, node: int):
        c = self.conns.get(node)
        if c is not None and not c[1].is_closing():
            return c
        host, port = PeerAddr.parse(self.addrs[node])
        reader, writer = await asyncio.open_connection(host, port)
        self.conns[node] = (reader, writer)
        self._readers.append(asyncio.create_task(self._read_loop(node, reader)))
        return reader, writer

    async def _read_loop(self, node: int, reader: asyncio.StreamReader) -> None:
        frames = FrameReader()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for env in frames.feed(data):
                    self.inbox.put_nowait(env.msg)
        except (ConnectionError, ValueError):
            return

    async def _send(self, node: int, msg) -> None:
        try:
            _r, w = await self._conn(node)
            self.seq += 1
            w.write(encode(self.cid, self.seq, msg))
            await w.drain()
        except OSError:
            pass  # unreachable node: the session timer will rotate

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
        cmd = Command(op, key, (value or b"") if op == "put" else None, self.cid, seq)
        started = mono_us()
        sess = ClientSession(self.cache, cmd, started, self.patience)
        outs = sess.begin()
        deadline = started + self.cache.unhold_floor
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
                return done.outcome, done.value, mono_us() - started
            timeout = max(0.0, (deadline - mono_us()) / 1e6)
            try:
                msg = await asyncio.wait_for(self.inbox.get(), timeout)
            except asyncio.TimeoutError:
                outs = sess.on_timer(mono_us())
                continue
            outs = sess.on_msg(msg, mono_us())

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
