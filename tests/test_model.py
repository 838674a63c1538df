import pytest
from hypothesis import given, settings, strategies as st

from bodega.messages import Guard, to_wire
from bodega.model import (
    Ballot,
    ClusterConfig,
    EMPTY_ROSTER,
    KeyRange,
    Roster,
    SettingError,
    cluster_config_from_dict,
    full_range_roster,
    next_ballot,
    validate_roster,
)


def test_next_ballot_construction():
    assert next_ballot(Ballot(2, 1), 3) == Ballot(3, 3)
    assert next_ballot(Ballot(0, 0), 0) == Ballot(1, 0)


def test_ballot_lexicographic_order():
    assert Ballot(3, 0) > Ballot(2, 4)
    assert Ballot(3, 3) > Ballot(3, 0)
    assert Ballot(0, 0) < Ballot(1, 0)
    assert Ballot(2, 1) >= Ballot(2, 1) and not Ballot(2, 1) < Ballot(2, 1)
    assert sorted([Ballot(2, 0), Ballot(1, 4), Ballot(2, -1)]) == [
        Ballot(1, 4), Ballot(2, -1), Ballot(2, 0)]


def test_ballot_value_semantics():
    """Hash, repr and wire form are those of the (round, node) pair, so dict
    and set order, trace text and frames do not depend on how Ballot is
    implemented."""
    b = Ballot(3, 1)
    assert (b.round, b.node) == (3, 1)
    assert hash(b) == hash((3, 1))
    assert repr(b) == "Ballot(round=3, node=1)"
    assert to_wire(Guard(b, 0))[1] == [3, 1]
    assert {Ballot(3, 1): "x"}[Ballot(3, 1)] == "x"


@given(st.integers(0, 100), st.integers(0, 6), st.integers(0, 6))
def test_next_ballot_strictly_increasing(r, n, p):
    cur = Ballot(r, n)
    assert next_ballot(cur, p) > cur


@given(st.tuples(st.integers(0, 20), st.integers(0, 6)),
       st.tuples(st.integers(0, 20), st.integers(0, 6)))
def test_distinct_pairs_never_compare_equal(a, b):
    ba, bb = Ballot(*a), Ballot(*b)
    assert (ba == bb) == (a == b)


def test_responders_full_range_with_leader():
    ros = full_range_roster(0, {2, 3, 4})
    assert ros.responders_of(b"x") == {0, 2, 3, 4}


def test_responders_empty_roster():
    assert EMPTY_ROSTER.responders_of(b"x") == frozenset()


def test_responders_range_membership():
    ros = Roster(1, (
        (KeyRange(b"a", b"c"), frozenset({2})),
        (KeyRange(b"c", b"z"), frozenset({3})),
    ))
    assert ros.responders_of(b"b") == {1, 2}
    assert ros.responders_of(b"c") == {1, 3}
    # no range matches: leader only
    assert ros.responders_of(b"zz") == {1}


@given(st.binary(max_size=4))
def test_responders_always_contain_leader(key):
    ros = Roster(2, ((KeyRange(b"a", b"m"), frozenset({0, 1})),))
    assert 2 in ros.responders_of(key)


@st.composite
def valid_rosters(draw):
    """A roster that passes `validate_roster` for 7 nodes: ranges between
    consecutive drawn bounds, adjacent or with gaps, the last one possibly
    unbounded above; possibly no ranges, and possibly no leader."""
    bounds = sorted(set(draw(st.lists(st.binary(max_size=3), max_size=8))))
    ranges = tuple(
        (KeyRange(lo, hi), draw(st.frozensets(st.integers(0, 6), max_size=4)))
        for lo, hi in zip(bounds, bounds[1:] + [None]) if draw(st.booleans()))
    return Roster(draw(st.none() | st.integers(0, 6)), ranges), bounds


@settings(max_examples=500, derandomize=True, deadline=None)
@given(valid_rosters(), st.lists(st.binary(max_size=4), max_size=4))
def test_responders_of_is_the_union_of_the_ranges_holding_the_key(drawn, keys):
    ros, bounds = drawn
    assert validate_roster(ros, 7) is None
    near = [b[:-1] + bytes([b[-1] - 1]) + b"\xff" for b in bounds if b and b[-1]]
    for b in bounds:
        near += [b, b + b"\x00", b[:-1]]
    for key in keys + near:
        want = set().union(*(nodes for rng, nodes in ros.responder_map if rng.contains(key)))
        if ros.leader is not None:
            want.add(ros.leader)
        assert ros.responders_of(key) == want, (ros, key)


def test_validate_ok():
    ros = Roster(0, (
        (KeyRange(b"a", b"m"), frozenset({1, 2})),
        (KeyRange(b"m", None), frozenset({3})),
    ))
    assert validate_roster(ros, 5) is None


def test_validate_overlap():
    ros = Roster(0, (
        (KeyRange(b"a", b"m"), frozenset({1})),
        (KeyRange(b"k", b"z"), frozenset({2})),
    ))
    v = validate_roster(ros, 5)
    assert v is not None and "overlap" in v.reason


def test_validate_bad_id():
    ros = full_range_roster(0, {7})
    v = validate_roster(ros, 5)
    assert v is not None and "7" in v.reason


def test_validate_unsorted():
    ros = Roster(0, (
        (KeyRange(b"m", None), frozenset({1})),
        (KeyRange(b"a", b"c"), frozenset({2})),
    ))
    assert validate_roster(ros, 5) is not None


def test_cluster_config_rules():
    ClusterConfig(n=5)
    with pytest.raises(ValueError):
        ClusterConfig(n=4)
    with pytest.raises(ValueError):
        ClusterConfig(n=5, t_hb_send=2_000_000)  # violates hb_send < hb_fail
    with pytest.raises(ValueError):
        ClusterConfig(n=5, t_lease=1_000_000)  # violates hb_fail < lease
    assert ClusterConfig(n=5).majority == 3
    assert ClusterConfig(n=7).majority == 4


def test_guard_ms_must_equal_lease():
    assert cluster_config_from_dict(5, {"guard_ms": 1500, "lease_ms": 1500}).t_lease == 1_500_000
    assert cluster_config_from_dict(5, {"guard_ms": 2500}).t_lease == 2_500_000
    with pytest.raises(SettingError) as e:
        cluster_config_from_dict(5, {"guard_ms": 2000})
    assert e.value.key == "guard_ms"
    with pytest.raises(SettingError):
        cluster_config_from_dict(5, {"guard_ms": 1400, "lease_ms": 1500})


def test_roster_wire_roundtrip():
    ros = Roster(1, (
        (KeyRange(b"a", b"c"), frozenset({2})),
        (KeyRange(b"c", None), frozenset({3, 4})),
    ))
    assert Roster.from_wire(ros.to_wire()) == ros
    # the lookup built from the two fields is not a third one
    assert hash(Roster.from_wire(ros.to_wire())) == hash(ros)
    assert "_lookup" not in repr(ros)
