"""Lease engine unit tests: handler-by-handler behavior plus the stable
condition against a brute-force subset oracle."""
from itertools import combinations, product

import pytest

from bodega.events import Send
from bodega.leases import LeaseEngine
from bodega.messages import Guard, GuardReply, Renew, RenewReply, Revoke, RevokeReply
from bodega.model import Ballot, ClusterConfig


CFG = ClusterConfig(n=5, t_lease=2_500_000, t_delta=100_000)
B = Ballot(4, 2)


def sends(outs, cls):
    return [o for o in outs if isinstance(o, Send) and isinstance(o.msg, cls)]


def make_engine(me=0):
    return LeaseEngine(me, CFG)


def test_initiate_guards_everyone():
    e = make_engine()
    outs = e.initiate(B, 17, now=1000)
    gs = sends(outs, Guard)
    assert len(gs) == 5 and all(g.msg.thresh == 17 for g in gs)
    assert set(e.guarding) == set(range(5))
    assert all(dl == 1000 + CFG.t_lease + CFG.t_delta for dl in e.guarding.values())


def test_initiate_fresh_node_thresh_zero():
    e = make_engine()
    outs = e.initiate(Ballot(1, 0), 0, now=0)
    assert all(g.msg.thresh == 0 for g in sends(outs, Guard))


def test_guard_retry_single_peer():
    e = make_engine()
    e.initiate(B, 17, now=0)
    assert e.on_timer("guarding", 1)
    outs = e.reguard(B, 1, 19, now=50)
    gs = sends(outs, Guard)
    assert len(gs) == 1 and gs[0].to == 1 and gs[0].msg.thresh == 19


def test_handle_guard_matching_ballot():
    e = make_engine()
    outs = e.on_guard(3, B, 9, cur_bal=B, now=2000)
    assert e.thresh[3] == 9
    assert e.guarded[3] == 2000 + CFG.t_lease - CFG.t_delta
    assert len(sends(outs, GuardReply)) == 1


def test_handle_guard_stale_ballot_ignored():
    e = make_engine()
    outs = e.on_guard(3, Ballot(2, 1), 9, cur_bal=B, now=0)
    assert outs == [] and 3 not in e.guarded


def test_handle_guard_duplicate_noop():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, B, cur_bal=B, now=10)  # moves to endowed
    outs = e.on_guard(3, B, 11, cur_bal=B, now=20)
    assert outs == [] and e.thresh[3] == 9


def test_guard_reply_moves_to_endowing_and_renews():
    e = make_engine()
    e.initiate(B, 0, now=0)
    outs = e.on_guard_reply(1, B, cur_bal=B, now=100)
    assert 1 not in e.guarding and 1 in e.endowing
    assert e.endowing[1] == 100 + 2 * CFG.t_lease + CFG.t_delta
    assert len(sends(outs, Renew)) == 1


def test_guard_reply_after_timeout_noop():
    e = make_engine()
    e.initiate(B, 0, now=0)
    e.on_timer("guarding", 1)
    assert e.on_guard_reply(1, B, cur_bal=B, now=100) == []
    assert e.on_guard_reply(2, Ballot(1, 1), cur_bal=B, now=100) == []


def test_renew_moves_guarded_to_endowed():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, B, cur_bal=B, now=500)
    assert 3 not in e.guarded and 3 in e.endowed
    assert e.endowed[3] == 500 + CFG.t_lease - CFG.t_delta


def test_renew_refreshes_endowed():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, B, cur_bal=B, now=500)
    e.on_renew(3, B, cur_bal=B, now=900)
    assert e.endowed[3] == 900 + CFG.t_lease - CFG.t_delta


def test_renew_ballot_mismatch_ignored():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, Ballot(9, 9), cur_bal=B, now=500)
    assert 3 in e.guarded and 3 not in e.endowed


def test_renew_reply_extends_endowing():
    e = make_engine()
    e.initiate(B, 0, now=0)
    e.on_guard_reply(1, B, cur_bal=B, now=100)
    e.on_renew_reply(1, B, cur_bal=B, now=300)
    assert e.endowing[1] == 300 + CFG.t_lease + CFG.t_delta


def test_renew_reply_stale_or_expired_noop():
    e = make_engine()
    assert e.on_renew_reply(1, B, cur_bal=B, now=0) == []
    e.initiate(B, 0, now=0)
    e.on_guard_reply(1, B, cur_bal=B, now=100)
    assert e.on_renew_reply(1, Ballot(1, 1), cur_bal=B, now=200) == []


def test_revocation_completion_by_replies():
    e = make_engine()
    e.initiate(B, 0, now=0)
    for p in range(5):
        e.on_guard_reply(p, B, cur_bal=B, now=10)
    outs = e.start_revocation(B, now=100)
    assert len(sends(outs, Revoke)) == 5
    assert not e.guarding and e.revoke_waiting == set(range(5))
    assert not e.revocation_complete()
    for p in range(5):
        e.on_revoke_reply(p, B)
    assert e.revocation_complete()
    assert not e.endowing


def test_revocation_completion_by_expiry():
    e = make_engine()
    e.initiate(B, 0, now=0)
    e.on_guard_reply(1, B, cur_bal=B, now=10)
    e.start_revocation(B, now=100)
    for p in (0, 2, 3, 4):
        e.on_revoke_reply(p, B)
    assert not e.revocation_complete()
    e.on_timer("endowing", 1)  # crashed peer expires
    assert e.revocation_complete()


def test_revocation_empty_endowing_completes_immediately():
    e = make_engine()
    e.start_revocation(B, now=0)
    assert e.revocation_complete()


def test_handle_revoke_removes_and_always_replies():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, B, cur_bal=B, now=10)
    outs = e.on_revoke(3, B, cur_bal=B)
    assert 3 not in e.endowed
    assert len(sends(outs, RevokeReply)) == 1
    # lower ballot: sets untouched, reply still sent
    e.on_guard(2, B, 5, cur_bal=B, now=20)
    outs = e.on_revoke(2, Ballot(1, 0), cur_bal=B)
    assert 2 in e.guarded and len(sends(outs, RevokeReply)) == 1
    # unknown peer: reply only
    outs = e.on_revoke(4, B, cur_bal=B)
    assert len(sends(outs, RevokeReply)) == 1


def test_timer_expiry_removes_from_set():
    e = make_engine()
    e.on_guard(3, B, 9, cur_bal=B, now=0)
    e.on_renew(3, B, cur_bal=B, now=10)
    assert len(e.endowed) == 1
    assert e.on_timer("endowed", 3)
    assert len(e.endowed) == 0
    assert not e.on_timer("endowed", 3)  # already removed


def test_heartbeat_piggyback_extends_and_flags():
    e = make_engine()
    e.initiate(B, 0, now=0)
    e.on_guard_reply(1, B, cur_bal=B, now=10)
    e.on_guard(0, B, 0, cur_bal=B, now=10)
    e.on_renew(0, B, cur_bal=B, now=20)
    renews, replies, _ = e.heartbeat_piggyback(now=1000)
    assert renews == {1: True}
    assert replies == {0: True}
    assert e.endowing[1] == 1000 + CFG.t_lease + CFG.t_delta
    renews2, replies2, _ = e.heartbeat_piggyback(now=2000)
    assert replies2 == {}  # replied once


def test_exclusivity_invariant():
    e = make_engine()
    e.initiate(B, 0, now=0)
    e.on_guard(2, B, 1, cur_bal=B, now=1)
    e.on_guard_reply(2, B, cur_bal=B, now=2)
    e.on_renew(2, B, cur_bal=B, now=3)
    e.on_renew_reply(2, B, cur_bal=B, now=4)
    assert not (set(e.guarding) & set(e.endowing))
    assert not (set(e.guarded) & set(e.endowed))


# ------------------------------------------------------------- stable check

def brute_force_stable(endowed: set[int], thresh: dict[int, int], m: int, prefix: int) -> bool:
    if len(endowed) < m:
        return False
    for sub in combinations(sorted(endowed), m):
        if all(thresh[p] <= prefix for p in sub):
            return True
    return False


def engine_with(endowed: set[int], thresh: dict[int, int], n: int) -> LeaseEngine:
    cfg = ClusterConfig(n=n)
    e = LeaseEngine(0, cfg)
    for p in endowed:
        e.endowed[p] = 10**9
    e.thresh.update(thresh)
    return e


def test_stable_example_from_thresholds():
    e = engine_with({0, 1, 2, 3}, {0: 0, 1: 5, 2: 7, 3: 9}, n=5)
    assert e.is_stable(7, 0) is True
    assert brute_force_stable({0, 1, 2, 3}, {0: 0, 1: 5, 2: 7, 3: 9}, 3, 7)


def test_stable_too_few_grants():
    e = engine_with({0, 1}, {0: 0, 1: 0}, n=5)
    assert e.is_stable(100, 0) is False


def test_stable_threshold_gate():
    # majority of grants held but the committed prefix is below every
    # m-subset's threshold requirement
    e = engine_with({0, 1, 2}, {0: 4, 1: 5, 2: 6}, n=5)
    assert e.is_stable(3, 0) is False
    assert e.is_stable(5, 0) is False  # the only size-3 subset requires prefix >= 6
    assert e.is_stable(6, 0) is True


def test_a_grant_counts_only_until_its_deadline():
    """A grant whose expiry timer has not fired yet no longer counts once
    `now` is past its deadline, for the majority and for the thresholds."""
    e = engine_with({0, 1, 2, 3}, {0: 0, 1: 5, 2: 7, 3: 9}, n=5)
    e.endowed.update({0: 100, 1: 200})
    assert e.is_stable(7, 100) is True
    assert e.is_stable(7, 101) is False  # grant 0 is out: the third threshold is 9
    assert e.is_stable(9, 101) is True
    assert e.is_stable(9, 201) is False  # two grants of the three needed
    assert e.is_stable(7, 100) is True


def test_stable_matches_brute_force_exhaustive():
    for n in (3, 5, 7):
        m = (n + 1) // 2
        for mask in range(2 ** n):
            endowed = {p for p in range(n) if mask >> p & 1}
            for vals in product(range(3), repeat=len(endowed)):
                thresh = dict(zip(sorted(endowed), vals))
                e = engine_with(endowed, thresh, n)
                for prefix in range(3):
                    want = brute_force_stable(endowed, thresh, m, prefix)
                    assert e.is_stable(prefix, 0) == want, (n, endowed, thresh, prefix)
