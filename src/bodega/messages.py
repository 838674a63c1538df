"""Protocol and client message types, with a JSON-dict wire codec.

Every message is a frozen dataclass with a `kind` tag. Byte-string fields
cross the JSON boundary latin-1 encoded so arbitrary bytes round-trip.
The core's input events (`bodega.events`) go through the same codec: a
client sends a `ClientRequest` or `OperatorRequest` as is, and the daemon's
event log stores each event in this form, a `Deliver` with its message
nested.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .events import ClientRequest, Deliver, OperatorRequest, TimerFire
from .model import Ballot, Command, Roster


@dataclass(frozen=True, slots=True)
class Msg:
    pass


# ---------------------------------------------------------------- lease msgs

@dataclass(frozen=True, slots=True)
class Guard(Msg):
    bal: Ballot
    thresh: int  # highest slot the sender has ever accepted


@dataclass(frozen=True, slots=True)
class GuardReply(Msg):
    bal: Ballot


@dataclass(frozen=True, slots=True)
class Renew(Msg):
    bal: Ballot


@dataclass(frozen=True, slots=True)
class RenewReply(Msg):
    bal: Ballot


@dataclass(frozen=True, slots=True)
class Revoke(Msg):
    bal: Ballot


@dataclass(frozen=True, slots=True)
class RevokeReply(Msg):
    bal: Ballot


# ------------------------------------------------------------ consensus msgs

@dataclass(frozen=True, slots=True)
class Prepare(Msg):
    bal: Ballot
    from_slot: int


@dataclass(frozen=True, slots=True)
class PrepareReply(Msg):
    bal: Ballot
    # accepted tail: (slot, accepted ballot, batch, committed?) for slots >= from_slot
    tail: tuple[tuple[int, Ballot, tuple[Command, ...], bool], ...] = ()
    higher: Ballot | None = None  # nack: a higher ballot is known


@dataclass(frozen=True, slots=True)
class Accept(Msg):
    bal: Ballot
    slot: int
    batch: tuple[Command, ...]


@dataclass(frozen=True, slots=True)
class AcceptReply(Msg):
    bal: Ballot
    slot: int
    higher: Ballot | None = None  # nack: a higher ballot is known


@dataclass(frozen=True, slots=True)
class AcceptNote(Msg):
    bal: Ballot
    slot: int


@dataclass(frozen=True, slots=True)
class Commit(Msg):
    # the ballot the slots were committed under; receivers whose accepted
    # ballot is older must fetch the batch instead of blindly marking
    bal: Ballot
    slots: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CatchUpRequest(Msg):
    slots: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CatchUpReply(Msg):
    # entries: (slot, ballot, batch, committed?)
    entries: tuple[tuple[int, Ballot, tuple[Command, ...], bool], ...]
    # snapshot install when the requested range fell below log truncation
    snap_upto: int = 0
    snap_kv: tuple[tuple[bytes, bytes], ...] = ()
    snap_applied: tuple[str, ...] = ()


# ------------------------------------------------------- heartbeat / control

@dataclass(frozen=True, slots=True)
class Heartbeat(Msg):
    bal: Ballot
    roster: Roster | None  # None = lightweight
    renew: bool = False  # piggybacked Renew(bal)
    renew_reply: bool = False  # piggybacked RenewReply(bal)
    commit_upto: int = 0  # sender's contiguous committed prefix


@dataclass(frozen=True, slots=True)
class FullRosterRequest(Msg):
    bal: Ballot  # the unknown ballot that prompted the request


@dataclass(frozen=True, slots=True)
class StatsReport(Msg):
    # per-key counters grouped by the clients' preferred server id:
    # (key, preferred site, reads, writes)
    rows: tuple[tuple[bytes, int, int, int], ...]


# -------------------------------------------------------------- client-facing
# (the replies; a client's requests are `events.ClientRequest` and
# `events.OperatorRequest`)

@dataclass(frozen=True, slots=True)
class ClientReadReply(Msg):
    request_id: str
    value: bytes | None  # None = null (key never written)
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(frozen=True, slots=True)
class ClientWriteReply(Msg):
    request_id: str
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(frozen=True, slots=True)
class ClientRedirect(Msg):
    request_id: str
    target: int
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(frozen=True, slots=True)
class ClientUnavailable(Msg):
    request_id: str


@dataclass(frozen=True, slots=True)
class CtlReply(Msg):
    ok: bool
    detail: str = ""
    bal: Ballot | None = None
    roster: Roster | None = None
    rows: tuple[tuple[bytes, int, int, int], ...] = ()


# ----------------------------------------------------------------- the codec

_KINDS: dict[str, type] = {cls.__name__: cls for cls in (
    Guard, GuardReply, Renew, RenewReply, Revoke, RevokeReply,
    Prepare, PrepareReply, Accept, AcceptReply, AcceptNote, Commit,
    CatchUpRequest, CatchUpReply, Heartbeat, FullRosterRequest, StatsReport,
    ClientReadReply, ClientWriteReply, ClientRedirect, ClientUnavailable, CtlReply,
    ClientRequest, OperatorRequest, Deliver, TimerFire,
)}


def _enc(v):
    if isinstance(v, Ballot):
        return {"_b": v.to_wire()}
    if isinstance(v, Roster):
        return {"_r": v.to_wire()}
    if isinstance(v, Command):
        return {"_c": v.to_wire()}
    if isinstance(v, bytes):
        return {"_y": v.decode("latin-1")}
    if isinstance(v, Msg):
        return msg_to_wire(v)
    if isinstance(v, (tuple, list)):
        return [_enc(x) for x in v]
    if isinstance(v, frozenset):
        return sorted(_enc(x) for x in v)
    return v


def _dec(v):
    if isinstance(v, dict):
        if "_b" in v:
            return Ballot.from_wire(v["_b"])
        if "_r" in v:
            return Roster.from_wire(v["_r"])
        if "_c" in v:
            return Command.from_wire(v["_c"])
        if "_y" in v:
            return v["_y"].encode("latin-1")
        if "kind" in v:
            return msg_from_wire(v)
        return v
    if isinstance(v, list):
        return tuple(_dec(x) for x in v)
    return v


def msg_to_wire(msg) -> dict:
    """Encode a message or event to a JSON-serializable dict with a `kind`
    tag."""
    out: dict = {"kind": type(msg).__name__}
    for f in fields(msg):
        out[f.name] = _enc(getattr(msg, f.name))
    return out


class UnknownKindError(ValueError):
    pass


def msg_from_wire(d: dict):
    """Decode a dict produced by msg_to_wire; raises UnknownKindError.
    Keys that are not fields of the kind (an event-log row's `t`) are
    ignored."""
    kind = d.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise UnknownKindError(f"unknown message kind: {kind!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            kwargs[f.name] = _dec(d[f.name])
    return cls(**kwargs)
