"""Input events and output effects of the pure protocol core.

A node is driven exclusively through `Node.handle(event, now)` where `now` is
the node's local clock in microseconds; it returns a list of effects for the
host (simulator or daemon) to perform. The core never reads a clock or a
socket itself.

One event or effect object is built per message, timer and client request,
so these are plain slots dataclasses: frozen ones cost several times more to
construct. They are values all the same and are never mutated.

The four events are also messages of the wire codec (`bodega.messages`):
`ClientRequest` and `OperatorRequest` are what a client sends to a node's
client port, and every event is one row of the daemon's event log.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import Command, Roster

if TYPE_CHECKING:
    from .messages import Msg

# Timer keys are tuples: ("hb_tick",), ("hb_fail", peer), ("lease", intent, peer),
# ("batch",), ("tune",). Re-arming a key replaces the previous deadline.
TimerKey = tuple


@dataclass(slots=True)
class Event:
    pass


@dataclass(slots=True)
class Deliver(Event):
    frm: int
    msg: Msg


@dataclass(slots=True)
class TimerFire(Event):
    key: TimerKey


@dataclass(slots=True)
class ClientRequest(Event):
    cmd: Command  # names its client, whom the replies go to
    preferred: int = -1  # the client's preferred nearby server id
    want_roster: bool = False
    fresh: bool = True  # False on redirect-follows and reissues (stats dedup)


@dataclass(slots=True)
class OperatorRequest(Event):
    """Operator verbs: explicit roster change, roster/stats queries."""

    verb: str  # "roster_set" | "roster_get" | "stats"
    client: str = "op"
    roster: Roster | None = None


@dataclass(slots=True)
class Output:
    pass


@dataclass(slots=True)
class Send(Output):
    to: int
    msg: Msg


@dataclass(slots=True)
class Reply(Output):
    client: str
    msg: Msg
    # for a read answered from the local log: (key, anchor slot) the value
    # was taken at. Host-side metadata for monitors; never sent on the wire.
    served_at: tuple[bytes, int] | None = None


@dataclass(slots=True)
class ArmTimer(Output):
    key: TimerKey
    deadline: int  # absolute local-clock microseconds


@dataclass(slots=True)
class CancelTimer(Output):
    key: TimerKey
