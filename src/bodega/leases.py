"""All-to-all roster lease engine.

Every node is simultaneously a grantor (guarding/endowing, with conservative
timers) and a grantee (guarded/endowed, with aggressive timers). Deadlines are
absolute instants on the owning node's local clock; bounded clock drift is a
property of the clock source, not of this module.

Timer policy per peer:
  grantor:  guarding = send + t_lease + t_delta
            endowing = guard-reply receipt + 2 * t_lease + t_delta,
                       then renew send / renew-reply receipt + t_lease + t_delta
  grantee:  guarded  = guard receipt + t_lease - t_delta
            endowed  = renew receipt + t_lease - t_delta

The grantee side always expires no later than the grantor side, which is what
makes waiting out a silent peer safe.

The same wait guards acceptance. A node never accepts a proposal at a ballot
above its own while it still endows grants for its own ballot: it revokes
them first and answers only once every grant is returned or has expired
(`Node._on_accept`). Any quorum that commits at the higher ballot meets any
majority of grants a stale node could hold, so no node stays stable past a
commit it cannot see.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .events import ArmTimer, CancelTimer, Output, Send
from .messages import Guard, GuardReply, Renew, RenewReply, Revoke, RevokeReply
from .model import Ballot, ClusterConfig, NodeId

INTENTS = ("guarding", "endowing", "guarded", "endowed")


@dataclass(slots=True)
class LeaseEngine:
    me: NodeId
    cfg: ClusterConfig
    guarding: dict[NodeId, int] = field(default_factory=dict)
    endowing: dict[NodeId, int] = field(default_factory=dict)
    guarded: dict[NodeId, int] = field(default_factory=dict)
    endowed: dict[NodeId, int] = field(default_factory=dict)
    thresh: dict[NodeId, int] = field(default_factory=dict)
    unreplied_renew: set[NodeId] = field(default_factory=set)
    # revocation in progress: the old ballot and the peers we must hear from
    revoking: Ballot | None = None
    revoke_waiting: set[NodeId] = field(default_factory=set)
    # m-th smallest threshold over the endowed peers, None until computed.
    # Every change to `endowed` membership or to `thresh` resets it.
    _mth: int | None = None
    # a lower bound on every `endowed` deadline: until `now` passes it, no
    # grant is past its deadline
    _until: int = 0

    def _set(self, intent: str) -> dict[NodeId, int]:
        return getattr(self, intent)

    def _arm(self, intent: str, peer: NodeId, deadline: int) -> ArmTimer:
        d = self._set(intent)
        if intent == "endowed":
            if peer not in d:
                self._mth = None
            if deadline < self._until:
                self._until = deadline
        d[peer] = deadline
        return ArmTimer(("lease", intent, peer), deadline)

    def _drop(self, intent: str, peer: NodeId) -> list[Output]:
        d = self._set(intent)
        if peer in d:
            del d[peer]
            if intent == "endowed":
                self._mth = None
            return [CancelTimer(("lease", intent, peer))]
        return []

    # ------------------------------------------------------------ activation

    def initiate(self, bal: Ballot, my_thresh: int, now: int) -> list[Output]:
        """Start granting leases for `bal` to every node, including self."""
        out: list[Output] = []
        guard = Guard(bal, my_thresh)
        for p in range(self.cfg.n):
            out += self._drop("endowing", p)
            out.append(self._arm("guarding", p, now + self.cfg.t_lease + self.cfg.t_delta))
            out.append(Send(p, guard))
        return out

    def reguard(self, bal: Ballot, peer: NodeId, my_thresh: int, now: int) -> list[Output]:
        out: list[Output] = self._drop("endowing", peer)
        out.append(self._arm("guarding", peer, now + self.cfg.t_lease + self.cfg.t_delta))
        out.append(Send(peer, Guard(bal, my_thresh)))
        return out

    def on_guard(self, frm: NodeId, bal: Ballot, thresh: int, cur_bal: Ballot, now: int) -> list[Output]:
        if bal != cur_bal:
            return []
        if frm in self.guarded or frm in self.endowed:
            return []
        self.thresh[frm] = thresh
        self._mth = None
        out = [self._arm("guarded", frm, now + self.cfg.t_lease - self.cfg.t_delta)]
        out.append(Send(frm, GuardReply(bal)))
        return out

    def on_guard_reply(self, frm: NodeId, bal: Ballot, cur_bal: Ballot, now: int) -> list[Output]:
        if bal != cur_bal or frm not in self.guarding:
            return []
        out = self._drop("guarding", frm)
        out.append(self._arm(
            "endowing", frm,
            now + 2 * self.cfg.t_lease + self.cfg.t_delta,
        ))
        # the first renew goes out immediately so the lease activates within
        # the same round; later refreshes ride heartbeats
        out.append(Send(frm, Renew(bal)))
        return out

    def on_renew(self, frm: NodeId, bal: Ballot, cur_bal: Ballot, now: int) -> list[Output]:
        if bal != cur_bal:
            return []
        out: list[Output] = []
        if frm in self.guarded:
            out += self._drop("guarded", frm)
            self.endowed[frm] = 0  # deadline set below
            self._mth = None
        if frm in self.endowed:
            out.append(self._arm("endowed", frm, now + self.cfg.t_lease - self.cfg.t_delta))
            self.unreplied_renew.add(frm)
        return out

    def on_renew_reply(self, frm: NodeId, bal: Ballot, cur_bal: Ballot, now: int) -> list[Output]:
        if bal != cur_bal or frm not in self.endowing:
            return []
        return [self._arm("endowing", frm, now + self.cfg.t_lease + self.cfg.t_delta)]

    # ------------------------------------------------------------ revocation

    def start_revocation(self, old_bal: Ballot, now: int) -> list[Output]:
        """Clear guarding, broadcast Revoke(old_bal), and begin waiting out
        every endowing peer (reply or expiry)."""
        out: list[Output] = []
        for p in list(self.guarding):
            out += self._drop("guarding", p)
        self.revoking = old_bal
        self.revoke_waiting = set(self.endowing)
        msg = Revoke(old_bal)
        for p in range(self.cfg.n):
            out.append(Send(p, msg))
        return out

    def revocation_complete(self) -> bool:
        return self.revoking is not None and not self.revoke_waiting

    def on_revoke(self, frm: NodeId, bal: Ballot, cur_bal: Ballot) -> list[Output]:
        out: list[Output] = []
        if bal >= cur_bal:
            out += self._drop("guarded", frm)
            out += self._drop("endowed", frm)
        out.append(Send(frm, RevokeReply(bal)))
        return out

    def on_revoke_reply(self, frm: NodeId, bal: Ballot) -> list[Output]:
        if self.revoking is None or bal != self.revoking:
            return []
        self.revoke_waiting.discard(frm)
        return self._drop("endowing", frm)

    # ----------------------------------------------------- timers & renewals

    def on_timer(self, intent: str, peer: NodeId) -> bool:
        """Expire (intent, peer); returns True if the entry was present."""
        d = self._set(intent)
        live = peer in d
        if live:
            del d[peer]
            if intent == "endowed":
                self._mth = None
        if intent == "endowing":
            self.revoke_waiting.discard(peer)
        return live

    def heartbeat_piggyback(self, now: int) -> tuple[dict[NodeId, bool], dict[NodeId, bool], list[Output]]:
        """Per-peer renew / renew-reply flags for the next heartbeat round.

        Extends every endowing deadline at send time (the grantor-side
        optimistic extension that backs the piggybacked Renew).
        """
        renews: dict[NodeId, bool] = {}
        replies: dict[NodeId, bool] = {}
        out: list[Output] = []
        if self.revoking is None:
            deadline = now + self.cfg.t_lease + self.cfg.t_delta
            for p in self.endowing:
                out.append(self._arm("endowing", p, deadline))
                renews[p] = True
        for p in list(self.unreplied_renew):
            if p in self.endowed:
                replies[p] = True
            self.unreplied_renew.discard(p)
        return renews, replies, out

    def revoke_retransmit(self) -> list[Output]:
        """Re-send Revoke to peers that have not answered yet (revokes are
        answered unconditionally, so this accelerates partition recovery)."""
        if self.revoking is None:
            return []
        return [Send(p, Revoke(self.revoking)) for p in sorted(self.revoke_waiting)]

    # ------------------------------------------------------------- stability

    def is_stable(self, committed_prefix: int, now: int, no_thresh_check: bool = False) -> bool:
        """True iff this node holds a majority of grants whose safety
        thresholds are covered by the locally committed prefix. A grant
        counts only while `now` is at or before its deadline: a host that
        ran late may handle input before the grant's overdue expiry timer.

        Equivalently, the m-th smallest threshold among the grantors is
        covered; while every grant is in time, that threshold is cached
        until the grants or thresholds change.
        """
        m = self.cfg.majority
        endowed = self.endowed
        if len(endowed) < m:
            return False
        if now > self._until:
            self._until = min(endowed.values())
            if now > self._until:  # a grant past its deadline, its expiry timer not yet run
                held = [p for p, deadline in endowed.items() if now <= deadline]
                if len(held) < m:
                    return False
                return no_thresh_check or (
                    sorted(self.thresh.get(p, 0) for p in held)[m - 1] <= committed_prefix)
        if no_thresh_check:
            return True
        mth = self._mth
        if mth is None:
            mth = self._mth = sorted(self.thresh.get(p, 0) for p in endowed)[m - 1]
        return mth <= committed_prefix

    # ---------------------------------------------------------------- resets

    def reset_for_new_ballot(self) -> list[Output]:
        """Drop all lease state when adopting a new ballot; grants and guards
        belong to exactly one ballot epoch."""
        out: list[Output] = []
        for intent in INTENTS:
            for p in list(self._set(intent)):
                out += self._drop(intent, p)
        self.thresh.clear()
        self._mth = None
        self.unreplied_renew.clear()
        self.revoking = None
        self.revoke_waiting = set()
        return out
