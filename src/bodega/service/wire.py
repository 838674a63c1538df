"""Length-prefixed JSON wire framing for peer and client connections.

A frame is a 4-byte big-endian length, then a JSON array
`[proto_version, from, seq, kind_id, field...]`: the envelope's three
fields, then the message in the codec's wire form (`bodega.messages`), whose
`kind_id` is the message class's index in the codec's kind table. Kinds are
only ever appended to that table, so an id never changes meaning; a change
to a kind's fields bumps PROTO_VERSION. `seq` increases strictly per
(sender, peer) connection so redelivered frames can be dropped. A frame that
is oversized, truncated, not JSON or not a registered kind's wire form
raises WireError, and nothing else, so the connection closes without
touching node state.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from ..events import Event
from ..messages import Msg, WireError, from_wire, to_wire

PROTO_VERSION = 4
MAX_FRAME = 8 * 1024 * 1024
_LEN = struct.Struct(">I")
_dumps = json.JSONEncoder(separators=(",", ":")).encode
_loads = json.JSONDecoder().raw_decode


@dataclass(slots=True)
class Envelope:
    frm: str  # "n3" for nodes, client ids otherwise
    seq: int
    msg: Msg | Event  # a client request is an event of the core


def encode(frm: str, seq: int, msg: Msg | Event) -> bytes:
    body = _dumps([PROTO_VERSION, frm, seq, *to_wire(msg)]).encode()
    if len(body) > MAX_FRAME:
        raise WireError(f"frame too large: {len(body)}")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes | bytearray) -> Envelope:
    try:
        text = body.decode()
        a, end = _loads(text)
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise WireError(f"bad JSON body: {type(e).__name__}") from None
    if end != len(text):
        raise WireError("trailing bytes after the JSON body")
    if type(a) is not list or len(a) < 4 or a[0] != PROTO_VERSION:
        raise WireError(f"not a version-{PROTO_VERSION} frame")
    frm, seq = a[1], a[2]
    if type(frm) is not str or type(seq) is not int:
        raise WireError("ill-typed envelope")
    return Envelope(frm, seq, from_wire(a, 3))


class FrameReader:
    """Incremental decoder for a byte stream of envelopes, with per-sender
    sequence dedup."""

    def __init__(self) -> None:
        self.buf = bytearray()
        self.last_seq: dict[str, int] = {}

    def feed(self, data: bytes) -> list[Envelope]:
        buf = self.buf
        if buf:
            buf += data
            data = buf
        out: list[Envelope] = []
        pos, n = 0, len(data)
        while n - pos >= 4:
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_FRAME:
                raise WireError(f"frame too large: {length}")
            end = pos + 4 + length
            if end > n:
                break
            env = decode_body(data[pos + 4 : end])
            pos = end
            last = self.last_seq.get(env.frm)
            if last is not None and env.seq <= last:
                continue  # redelivery: drop silently
            self.last_seq[env.frm] = env.seq
            out.append(env)
        if data is buf:
            del buf[:pos]
        else:
            buf += data[pos:]
        return out
