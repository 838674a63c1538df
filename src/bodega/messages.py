"""Protocol and client message types, and the one codec for them and for
the core's input events.

Every message is a plain slots dataclass, as the events are: a message is
built for every send, and a frozen dataclass costs several times more to
build. Messages are values all the same, shared by every peer a broadcast
reaches, and are never mutated. The codec (`to_wire`/`from_wire`) is
compiled at import from the dataclass annotations: a message or event
becomes a flat JSON array `[kind_id, field...]`, and decoding checks the
type of every field. The core's input events (`bodega.events`) are kinds of
the same codec: a client sends a `ClientRequest` or `OperatorRequest` as
is, and each row of the daemon's event log holds an event in this form, a
`Deliver` with its message nested.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from types import NoneType, UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .events import ClientRequest, Deliver, OperatorRequest, TimerFire
from .model import Ballot, Command, Roster


@dataclass(slots=True)
class Msg:
    pass


# ---------------------------------------------------------------- lease msgs

@dataclass(slots=True)
class Guard(Msg):
    bal: Ballot
    thresh: int  # highest slot the sender has ever accepted


@dataclass(slots=True)
class GuardReply(Msg):
    bal: Ballot


@dataclass(slots=True)
class Renew(Msg):
    bal: Ballot


@dataclass(slots=True)
class RenewReply(Msg):
    bal: Ballot


@dataclass(slots=True)
class Revoke(Msg):
    bal: Ballot


@dataclass(slots=True)
class RevokeReply(Msg):
    bal: Ballot


# ------------------------------------------------------------ consensus msgs

@dataclass(slots=True)
class Prepare(Msg):
    bal: Ballot
    from_slot: int


@dataclass(slots=True)
class PrepareReply(Msg):
    bal: Ballot
    # accepted tail: (slot, accepted ballot, batch, committed?) for slots >= from_slot
    tail: tuple[tuple[int, Ballot, tuple[Command, ...], bool], ...] = ()
    higher: Ballot | None = None  # nack: a higher ballot is known


@dataclass(slots=True)
class Accept(Msg):
    bal: Ballot
    slot: int
    batch: tuple[Command, ...]


@dataclass(slots=True)
class AcceptReply(Msg):
    bal: Ballot
    slot: int
    higher: Ballot | None = None  # nack: a higher ballot is known


@dataclass(slots=True)
class AcceptNote(Msg):
    bal: Ballot
    slot: int


@dataclass(slots=True)
class Commit(Msg):
    # the ballot the slots were committed under; receivers whose accepted
    # ballot is older must fetch the batch instead of blindly marking
    bal: Ballot
    slots: tuple[int, ...]


@dataclass(slots=True)
class CatchUpRequest(Msg):
    slots: tuple[int, ...]


@dataclass(slots=True)
class CatchUpReply(Msg):
    # entries: (slot, ballot, batch, committed?)
    entries: tuple[tuple[int, Ballot, tuple[Command, ...], bool], ...]
    # snapshot install when the requested range fell below log truncation
    snap_upto: int = 0
    snap_kv: tuple[tuple[bytes, bytes], ...] = ()
    snap_sessions: tuple[tuple[str, int], ...] = ()


# ------------------------------------------------------- heartbeat / control

@dataclass(slots=True)
class Heartbeat(Msg):
    bal: Ballot
    roster: Roster | None  # None = lightweight
    renew: bool = False  # piggybacked Renew(bal)
    renew_reply: bool = False  # piggybacked RenewReply(bal)
    commit_upto: int = 0  # sender's contiguous committed prefix


@dataclass(slots=True)
class FullRosterRequest(Msg):
    bal: Ballot  # the unknown ballot that prompted the request


@dataclass(slots=True)
class StatsReport(Msg):
    # per-key counters grouped by the clients' preferred server id:
    # (key, preferred site, reads, writes)
    rows: tuple[tuple[bytes, int, int, int], ...]


# -------------------------------------------------------------- client-facing
# (the replies; a client's requests are `events.ClientRequest` and
# `events.OperatorRequest`), each carrying its request's seq

@dataclass(slots=True)
class ClientReadReply(Msg):
    seq: int
    value: bytes | None  # None = null (key never written)
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(slots=True)
class ClientWriteReply(Msg):
    seq: int
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(slots=True)
class ClientRedirect(Msg):
    seq: int
    target: int
    bal: Ballot | None = None
    roster: Roster | None = None


@dataclass(slots=True)
class ClientUnavailable(Msg):
    seq: int


@dataclass(slots=True)
class CtlReply(Msg):
    ok: bool
    detail: str = ""
    bal: Ballot | None = None
    roster: Roster | None = None
    rows: tuple[tuple[bytes, int, int, int], ...] = ()


# ----------------------------------------------------------------- the codec
#
# A message's wire form is a JSON array: its kind id, then its fields in
# declaration order. The kind id is the class's index in _KINDS; new kinds
# are only ever appended, so an id keeps its meaning. The field types the
# schema declares go untagged: bytes as latin-1 strings, a row (a
# NamedTuple value such as a Ballot or a Command, or a fixed-length tuple)
# as the array of its items, a Roster as its `to_wire` form, a nested
# message (`Deliver.msg`) as its wire form.

_KINDS: tuple[type, ...] = (
    Guard, GuardReply, Renew, RenewReply, Revoke, RevokeReply,
    Prepare, PrepareReply, Accept, AcceptReply, AcceptNote, Commit,
    CatchUpRequest, CatchUpReply, Heartbeat, FullRosterRequest, StatsReport,
    ClientReadReply, ClientWriteReply, ClientRedirect, ClientUnavailable, CtlReply,
    ClientRequest, OperatorRequest, Deliver, TimerFire,
)

# JSON gives lists; an event-log row kept in memory also holds the tuples
# that `to_wire` passes through unchanged
_ARRAYS = (list, tuple)


class WireError(ValueError):
    """Input that is not the wire form of a registered kind."""


def _bad(where: str) -> WireError:
    return WireError(f"{where}: ill-typed")


def _named(tp) -> bool:
    """A NamedTuple class."""
    return isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields")


def _row(tp) -> tuple | None:
    """The item types of a row type, a NamedTuple or a fixed-length tuple,
    in order; None for any other type."""
    if _named(tp):
        hints = get_type_hints(tp)
        return tuple(hints[f] for f in tp._fields)
    args = get_args(tp)
    if get_origin(tp) is tuple and Ellipsis not in args:
        return args
    return None


class _Compiler:
    """Writes the Python source of one encoder and one type-checking decoder
    per kind from its dataclass annotations, and compiles it. Field types
    the schema does not use raise TypeError here, at import."""

    def __init__(self) -> None:
        self.env = {"_ARRAYS": _ARRAYS, "_bad": _bad, "WireError": WireError, "Roster": Roster,
                    "to_wire": to_wire, "_nested_msg": _nested_msg, "_new": tuple.__new__}
        self.n = 0

    def name(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def define(self, src: str, name: str):
        exec(src, self.env)
        return self.env[name]

    # An encoder is one expression over the value's name `x`.
    def enc(self, tp, x: str) -> str:
        # bare tuple: a timer key of names and ids
        if tp in (int, bool, str, tuple) or get_origin(tp) is Literal:
            return x
        if tp is bytes:
            return f'{x}.decode("latin-1")'
        if _named(tp):
            return f"[{', '.join(self.enc(t, f'{x}.{f}') for f, t in zip(tp._fields, _row(tp)))}]"
        if tp is Roster:
            return f"{x}.to_wire()"
        if tp is Msg:
            return f"to_wire({x})"
        args = get_args(tp)
        if get_origin(tp) is UnionType and args[1] is NoneType:
            inner = self.enc(args[0], x)
            return x if inner == x else f"(None if {x} is None else {inner})"
        if get_origin(tp) is tuple and args[1:] == (Ellipsis,):
            row = _row(args[0])
            if row is not None:  # unpacked in the loop, a NamedTuple too
                es = [self.name("e") for _ in row]
                parts = [self.enc(t, e) for t, e in zip(row, es)]
                # a NamedTuple goes as a list: the decoder takes no other tuple type
                if parts == es and not _named(args[0]):
                    return x
                return f"[[{', '.join(parts)}] for {', '.join(es)} in {x}]"
            e = self.name("e")
            inner = self.enc(args[0], e)
            return x if inner == e else f"[{inner} for {e} in {x}]"
        raise TypeError(f"no wire form for {tp!r}")

    # A decoder is statements that check the value bound to `x` and rebind
    # `x` to the decoded value.
    def dec(self, tp, x: str, where: str, ind: str) -> list[str]:
        bad = f"raise _bad({where!r})"
        if tp in (int, bool, str):
            return [f"{ind}if type({x}) is not {tp.__name__}: {bad}"]
        if get_origin(tp) is Literal:
            if any(type(a) is not str for a in get_args(tp)):
                raise TypeError(f"no wire form for {tp!r}")
            return [f"{ind}if {x} not in {get_args(tp)!r}: {bad}"]
        if tp is tuple:
            e = self.name("e")
            return [f"{ind}if type({x}) not in _ARRAYS: {bad}",
                    f"{ind}for {e} in {x}:",
                    f"{ind}    if type({e}) is not str and type({e}) is not int: {bad}",
                    f"{ind}{x} = tuple({x})"]
        if tp is bytes:
            return [f"{ind}if type({x}) is not str: {bad}",
                    f'{ind}{x} = {x}.encode("latin-1")']
        if tp is Roster:
            return [f"{ind}{x} = Roster.from_wire({x})"]
        if tp is Msg:
            return [f"{ind}{x} = _nested_msg({x})"]
        row = _row(tp)
        if row is not None:
            es = [self.name("e") for _ in row]
            lines = [f"{ind}if type({x}) not in _ARRAYS or len({x}) != {len(row)}: {bad}",
                     f"{ind}{', '.join(es)}, = {x}"]
            for t, e in zip(row, es):
                lines += self.dec(t, e, where, ind)
            items = f"({', '.join(es)},)"
            if _named(tp):
                self.env[tp.__name__] = tp
                items = f"_new({tp.__name__}, {items})"
            return lines + [f"{ind}{x} = {items}"]
        args = get_args(tp)
        if get_origin(tp) is UnionType and args[1] is NoneType:
            return [f"{ind}if {x} is not None:"] + self.dec(args[0], x, where, ind + "    ")
        if get_origin(tp) is tuple and args[1:] == (Ellipsis,):
            e, out = self.name("e"), self.name("out")
            return [f"{ind}if type({x}) not in _ARRAYS: {bad}",
                    f"{ind}{out} = []",
                    f"{ind}for {e} in {x}:",
                    *self.dec(args[0], e, where, ind + "    "),
                    f"{ind}    {out}.append({e})",
                    f"{ind}{x} = tuple({out})"]
        raise TypeError(f"no wire form for {tp!r}")

    def kind(self, kid: int, cls: type):
        """(encoder, decoder) of one kind. The encoder returns the wire
        form; the decoder takes an array and the index of the first field."""
        hints = get_type_hints(cls, localns={"Msg": Msg})
        names = [f.name for f in fields(cls)]
        self.env["_" + cls.__name__] = cls
        enc_src = (f"def enc(m):\n    return [{kid}"
                   + "".join(f", {self.enc(hints[n], 'm.' + n)}" for n in names) + "]")
        lines = [f"def dec(v, i):",
                 f"    if len(v) != i + {len(names)}:",
                 f"        raise WireError({cls.__name__ + ': wrong number of fields'!r})"]
        xs = ["f_" + n for n in names]
        if names:
            lines.append(f"    {', '.join(xs)}, = v[i:]")
        for n, x in zip(names, xs):
            lines += self.dec(hints[n], x, f"{cls.__name__}.{n}", "    ")
        lines.append(f"    return _{cls.__name__}({', '.join(xs)})")
        return self.define(enc_src, "enc"), self.define("\n".join(lines), "dec")


def to_wire(msg) -> list:
    """A registered message or event in its wire form, a JSON-serialisable
    array (`[kind_id, field...]`)."""
    return _ENCODERS[type(msg)](msg)


def from_wire(v, at: int = 0):
    """Decode the wire form that starts at index `at` of the array `v`: a
    frame or an event-log row has a header in front of it. Every field's
    type is checked; anything but the wire form of a registered kind raises
    WireError, and nothing else."""
    if type(v) not in _ARRAYS or len(v) <= at:
        raise WireError("no message")
    kid = v[at]
    if type(kid) is not int or not 0 <= kid < len(_DECODERS):
        raise WireError(f"unknown kind id {kid!r:.20}")
    try:
        return _DECODERS[kid](v, at + 1)
    except WireError:
        raise
    except ValueError as e:  # a Roster's from_wire, or a non-latin-1 byte string
        raise WireError(str(e)) from None


def _nested_msg(v) -> Msg:
    """A node message nested in an event: events never nest."""
    if type(v) in _ARRAYS and v and type(v[0]) is int and v[0] in _MSG_IDS:
        return from_wire(v)
    raise WireError("Deliver.msg: not a node message")


def _compile() -> tuple[dict, list, frozenset]:
    c = _Compiler()
    encoders, decoders = {}, []
    for kid, cls in enumerate(_KINDS):
        enc, dec = c.kind(kid, cls)
        encoders[cls] = enc
        decoders.append(dec)
    return encoders, decoders, frozenset(k for k, cls in enumerate(_KINDS) if issubclass(cls, Msg))


_ENCODERS, _DECODERS, _MSG_IDS = _compile()
