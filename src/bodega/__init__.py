"""Replicated key-value store with roster leases for local linearizable
reads, plus a deterministic simulator and a linearizability checker."""

from .model import (
    Ballot,
    ClusterConfig,
    Command,
    EMPTY_ROSTER,
    KeyRange,
    NodeId,
    Roster,
    full_range_roster,
    next_ballot,
    validate_roster,
)
from .node import Node

__version__ = "0.1.0"

__all__ = [
    "Ballot",
    "ClusterConfig",
    "Command",
    "EMPTY_ROSTER",
    "KeyRange",
    "Node",
    "NodeId",
    "Roster",
    "full_range_roster",
    "next_ballot",
    "validate_roster",
    "__version__",
]
