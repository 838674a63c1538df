"""Two-engine lease harness with adversarially drifting clocks.

Drives one grantor/grantee pair through randomized guard / renew / revoke /
expire sequences with message delays and drops, both clocks pinned at the
±drift envelope. The invariant under test: whenever the grantee considers a
grant active, the grantor's own expiry for that grant (converted to global
time) is no earlier than the grantee's.
"""
from __future__ import annotations

import heapq
import random

from bodega.events import ArmTimer, CancelTimer, Send
from bodega.leases import LeaseEngine
from bodega.messages import Guard, GuardReply, Renew, RenewReply, Revoke, RevokeReply
from bodega.model import Ballot, ClusterConfig, next_ballot
from bodega.sim.harness import ClockModel

S, P = 0, 1  # grantor of interest, grantee of interest


class LeasePair:
    def __init__(self, seed: int, break_grantee_margin: bool = False) -> None:
        rng = random.Random(seed)
        self.rng = rng
        # scaled-down timers with the standard ratios; the drift rate is the
        # exact envelope for this delta/lease pair
        self.cfg = ClusterConfig(n=3, t_lease=250_000,
                                 t_delta=10_000, t_hb_send=12_000, t_hb_fail=120_000)
        rho = self.cfg.t_delta / (2.0 * self.cfg.t_lease)
        flip = rng.random() < 0.5
        self.clocks = {
            S: ClockModel(rng.randrange(5_000), rho if flip else -rho),
            P: ClockModel(rng.randrange(5_000), -rho if flip else rho),
        }
        p_cfg = self.cfg
        if break_grantee_margin:
            # harness self-test: a grantee that ignores the drift margin must
            # be caught by the invariant check
            p_cfg = ClusterConfig(n=3, t_lease=250_000,
                                  t_delta=-self.cfg.t_delta,
                                  t_hb_send=12_000, t_hb_fail=120_000)
        self.engines = {S: LeaseEngine(S, self.cfg), P: LeaseEngine(P, p_cfg)}
        self.bal = Ballot(1, S)
        self.heap: list = []
        self.seq = 0
        self.timers: dict[tuple, int] = {}
        self.now = 0
        self.violations: list[str] = []
        self.drop_prob = 0.15

    def push(self, t: int, kind: str, *data) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, data))

    def route(self, owner: int, outs: list) -> None:
        for o in outs:
            if isinstance(o, Send):
                if o.to not in (S, P):
                    continue  # the third node is silent in this harness
                if o.to != owner and self.rng.random() < self.drop_prob:
                    continue
                delay = 0 if o.to == owner else self.rng.randrange(self.cfg.t_delta + 1)
                self.push(self.now + delay, "msg", o.to, owner, o.msg)
            elif isinstance(o, ArmTimer):
                gen = self.timers.get((owner, o.key), 0) + 1
                self.timers[(owner, o.key)] = gen
                fire = self.clocks[owner].global_of(o.deadline)
                self.push(fire, "timer", owner, o.key, gen)
            elif isinstance(o, CancelTimer):
                if (owner, o.key) in self.timers:
                    self.timers[(owner, o.key)] += 1

    def check_invariant(self) -> None:
        e_p = self.engines[P]
        e_s = self.engines[S]
        if S not in e_p.endowed:
            return
        now_p = self.clocks[P].local(self.now)
        if now_p >= e_p.endowed[S]:
            return  # already expired on the grantee's clock
        g_p = self.clocks[P].global_of(e_p.endowed[S])
        if P in e_s.endowing:
            g_s = self.clocks[S].global_of(e_s.endowing[P])
            if g_s < g_p:
                self.violations.append(
                    f"t={self.now}: grantor expiry {g_s} earlier than grantee {g_p}")
        elif e_s.revoking is None:
            # the grantor dropped the grant while the grantee still holds it
            self.violations.append(
                f"t={self.now}: grantor forgot an active grant (grantee until {g_p})")

    def on_msg(self, to: int, frm: int, msg) -> None:
        e = self.engines[to]
        lt = self.clocks[to].local(self.now)
        if isinstance(msg, Guard):
            outs = e.on_guard(frm, msg.bal, msg.thresh, self.bal_of(to), lt)
        elif isinstance(msg, GuardReply):
            outs = e.on_guard_reply(frm, msg.bal, self.bal_of(to), lt)
        elif isinstance(msg, Renew):
            outs = e.on_renew(frm, msg.bal, self.bal_of(to), lt)
        elif isinstance(msg, RenewReply):
            outs = e.on_renew_reply(frm, msg.bal, self.bal_of(to), lt)
        elif isinstance(msg, Revoke):
            outs = e.on_revoke(frm, msg.bal, self.bal_of(to))
        elif isinstance(msg, RevokeReply):
            outs = e.on_revoke_reply(frm, msg.bal)
        else:
            outs = []
        self.route(to, outs)

    def bal_of(self, _node: int) -> Ballot:
        # both sides track the same ballot in this two-party harness
        return self.bal

    def run(self, horizon: int = 3_000_000) -> list[str]:
        lt0 = self.clocks[S].local(0)
        self.route(S, self.engines[S].initiate(self.bal, 0, lt0))
        # periodic heartbeats on both engines
        for node in (S, P):
            self.push(self.cfg.t_hb_send, "hb", node)
        # a few randomized revocation cycles
        t = self.rng.randrange(200_000, 900_000)
        while t < horizon - 400_000:
            self.push(t, "revoke")
            t += self.rng.randrange(400_000, 1_200_000)
        revoking = False
        while self.heap:
            t, _seq, kind, data = heapq.heappop(self.heap)
            if t > horizon:
                break
            self.now = t
            e_s = self.engines[S]
            if kind == "msg":
                to, frm, msg = data
                self.on_msg(to, frm, msg)
            elif kind == "timer":
                owner, key, gen = data
                if self.timers.get((owner, key)) != gen:
                    continue
                if key[0] == "lease":
                    self.engines[owner].on_timer(key[1], key[2])
                    if owner == S and key[1] in ("guarding", "endowing") and not revoking:
                        lt = self.clocks[S].local(t)
                        self.route(S, e_s.reguard(self.bal, key[2], 0, lt))
            elif kind == "hb":
                node = data[0]
                lt = self.clocks[node].local(t)
                renews, replies, outs = self.engines[node].heartbeat_piggyback(lt)
                self.route(node, outs)
                for peer in renews:
                    self.route(node, [Send(peer, Renew(self.bal))])
                for peer in replies:
                    self.route(node, [Send(peer, RenewReply(self.bal))])
                self.push(t + self.cfg.t_hb_send, "hb", node)
            elif kind == "revoke":
                lt = self.clocks[S].local(t)
                revoking = True
                self.route(S, e_s.start_revocation(self.bal, lt))
            # revocation completion: move to the next ballot and re-initiate
            if revoking and e_s.revocation_complete():
                revoking = False
                self.bal = next_ballot(self.bal, S)
                self.route(S, e_s.reset_for_new_ballot())
                self.route(P, self.engines[P].reset_for_new_ballot())
                lt = self.clocks[S].local(self.now)
                self.route(S, e_s.initiate(self.bal, 0, lt))
            self.check_invariant()
        return self.violations


def run_sequences(count: int, seed0: int = 0) -> tuple[int, list[str]]:
    bad: list[str] = []
    for i in range(count):
        pair = LeasePair(seed0 + i)
        v = pair.run()
        if v:
            bad.append(f"seed {seed0 + i}: {v[0]}")
    return count, bad
