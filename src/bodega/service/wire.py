"""Length-prefixed JSON wire framing for peer and client connections.

Envelope: 4-byte big-endian length, then a JSON object
{proto_version, from, kind, payload, seq}. `seq` increases strictly per
(sender, peer) connection so redelivered frames can be dropped; oversized or
truncated frames close the connection without touching node state.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from ..events import Event
from ..messages import Msg, UnknownKindError, msg_from_wire, msg_to_wire

PROTO_VERSION = 1
MAX_FRAME = 8 * 1024 * 1024
_LEN = struct.Struct(">I")


class WireError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Envelope:
    frm: str  # "n3" for nodes, client ids otherwise
    seq: int
    msg: Msg | Event  # a client request is an event of the core


def encode(frm: str, seq: int, msg: Msg | Event) -> bytes:
    body = json.dumps({
        "proto_version": PROTO_VERSION,
        "from": frm,
        "kind": "msg",
        "payload": msg_to_wire(msg),
        "seq": seq,
    }, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME:
        raise WireError(f"frame too large: {len(body)}")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> Envelope:
    try:
        d = json.loads(body)
    except json.JSONDecodeError as e:
        raise WireError(f"bad JSON body: {e}") from None
    if d.get("proto_version") != PROTO_VERSION:
        raise WireError(f"unsupported proto_version {d.get('proto_version')!r}")
    if d.get("kind") != "msg":
        raise WireError(f"unknown envelope kind {d.get('kind')!r}")
    try:
        msg = msg_from_wire(d["payload"])
    except UnknownKindError as e:
        raise WireError(str(e)) from None
    except (KeyError, TypeError) as e:
        raise WireError(f"malformed payload: {e}") from None
    return Envelope(str(d.get("from", "")), int(d.get("seq", 0)), msg)


class FrameReader:
    """Incremental decoder for a byte stream of envelopes, with per-sender
    sequence dedup."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.last_seq: dict[str, int] = {}

    def feed(self, data: bytes) -> list[Envelope]:
        self.buf.extend(data)
        out: list[Envelope] = []
        while True:
            if len(self.buf) < 4:
                return out
            (length,) = _LEN.unpack(self.buf[:4])
            if length > MAX_FRAME:
                raise WireError(f"frame too large: {length}")
            if len(self.buf) < 4 + length:
                return out
            body = bytes(self.buf[4 : 4 + length])
            del self.buf[: 4 + length]
            env = decode_body(body)
            last = self.last_seq.get(env.frm)
            if last is not None and env.seq <= last:
                continue  # redelivery: drop silently
            self.last_seq[env.frm] = env.seq
            out.append(env)
