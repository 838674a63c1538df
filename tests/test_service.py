"""Networked deployment tests: wire framing robustness, a real localhost
cluster driven through the client library, the operator interface and the
bench driver, the client port's input check, and event-log replay parity
with the protocol core."""
import asyncio
import dataclasses
import json
import socket
import time

import pytest

from bodega.events import ClientRequest, Deliver, OperatorRequest, Send, TimerFire
from bodega.lincheck import check_file
from bodega.messages import (
    Accept, ClientReadReply, ClientRedirect, ClientUnavailable, ClientWriteReply, CtlReply, Guard,
    from_wire, to_wire,
)
from bodega.model import Ballot, Command, full_range_roster
from bodega.node import Node
from bodega.service import loop_us
from bodega.service.bench import bench
from bodega.service.config import ConfigError, node_config_from_dict
from bodega.service import daemon as daemon_mod
from bodega.service.daemon import Daemon
from bodega.service import client as client_mod
from bodega.service.client import KvClient, ctl_request
from bodega.service.wire import PROTO_VERSION, FrameReader, WireError, decode_body, encode
from bodega.workload import Workload


def free_ports(k):
    socks, ports = [], []
    for _ in range(k):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def cluster_configs(n, record_events=False, timers=None, announce=None):
    """Configs of an n-node localhost cluster; with `announce`, a roster,
    node 0 announces it at boot."""
    ports = free_ports(2 * n)
    peers = [{"peer": f"127.0.0.1:{ports[2*i]}", "client": f"127.0.0.1:{ports[2*i+1]}"}
             for i in range(n)]
    base_timers = {"hb_send_ms": 40, "hb_fail_ms": 250, "guard_ms": 600,
                   "lease_ms": 600, "delta_ms": 25, "unhold_floor_ms": 40}
    base_timers.update(timers or {})
    cfgs = []
    for i in range(n):
        cfgs.append(node_config_from_dict({
            "id": i, "peers": peers, "timers": base_timers, "seed": 7,
            "record_events": record_events,
            "announce": announce is not None and i == 0,
            "initial_roster": None if announce is None else announce.to_wire(),
        }))
    return cfgs


def fresh_node(cfg):
    """A new core as `cfg`'s daemon builds it, to replay its event log."""
    return Node(cfg.node_id, cfg.cluster, seed=cfg.seed)


# ------------------------------------------------------------------ framing

def test_envelope_roundtrip():
    msg = Guard(Ballot(3, 1), 42)
    raw = encode("n1", 9, msg)
    fr = FrameReader()
    envs = fr.feed(raw)
    assert len(envs) == 1
    assert envs[0].frm == "n1" and envs[0].seq == 9 and envs[0].msg == msg


def test_framing_handles_partial_and_concatenated():
    msgs = [Guard(Ballot(1, 0), i) for i in range(3)]
    raw = b"".join(encode("n0", i + 1, m) for i, m in enumerate(msgs))
    fr = FrameReader()
    got = []
    for cut in range(0, len(raw), 7):
        got += fr.feed(raw[cut:cut + 7])
    assert [e.msg for e in got] == msgs


def test_seq_dedup_drops_redelivery():
    msg = Guard(Ballot(1, 0), 0)
    fr = FrameReader()
    assert len(fr.feed(encode("n0", 5, msg))) == 1
    assert len(fr.feed(encode("n0", 5, msg))) == 0
    assert len(fr.feed(encode("n0", 4, msg))) == 0
    assert len(fr.feed(encode("n0", 6, msg))) == 1


def test_unknown_kind_rejected():
    body = json.dumps([2, "n0", 1, 999]).encode()
    with pytest.raises(WireError):
        decode_body(body)


def test_oversized_frame_rejected():
    fr = FrameReader()
    with pytest.raises(WireError):
        fr.feed(b"\xff\xff\xff\xff" + b"x")


def test_msg_codec_roundtrips_everything():
    from bodega.messages import (
        AcceptNote, AcceptReply, CatchUpReply, Commit, Heartbeat,
        PrepareReply, StatsReport,
    )
    cmds = (Command("put", b"k", b"v", "r", 1), Command("get", b"k", None, "r", 2))
    samples = [
        Accept(Ballot(2, 1), 7, cmds),
        AcceptReply(Ballot(2, 1), 7, higher=Ballot(3, 0)),
        AcceptNote(Ballot(2, 1), 7),
        Commit(Ballot(2, 1), (7, 8)),
        PrepareReply(Ballot(2, 1), ((7, Ballot(1, 1), cmds, True),)),
        CatchUpReply(((7, Ballot(1, 1), cmds, False),), 3, ((b"a", b"b"),), (("r", 2),)),
        Heartbeat(Ballot(2, 1), full_range_roster(0, {1, 2}), True, False, 9),
        StatsReport(((b"k", 1, 3, 4),)),
        CtlReply(True, "", Ballot(1, 0), full_range_roster(0, set()), ((b"k", 0, 1, 2),)),
    ]
    for m in samples:
        assert from_wire(to_wire(m)) == m, m
        _assert_same_types(m, from_wire(to_wire(m)))


def test_msg_codec_roundtrips_events():
    """Client requests go on the wire, and every event goes into the event
    log, in the message codec's form."""
    samples = [
        ClientRequest(Command("put", b"k", b"\xff", "c1", 1), 2, True, False),
        ClientRequest(Command("get", b"k", None, "c1", 2)),
        OperatorRequest("roster_set", "ctl", full_range_roster(0, {1, 2})),
        OperatorRequest("stats"),
        Deliver(1, Accept(Ballot(2, 1), 7, (Command("put", b"k", b"v", "r", 1),))),
        TimerFire(("lease", "guarding", 2)),
        TimerFire(("hb_tick",)),
    ]
    for ev in samples:
        assert from_wire(json.loads(json.dumps(to_wire(ev)))) == ev, ev
        _assert_same_types(ev, from_wire(json.loads(json.dumps(to_wire(ev)))))


def _assert_same_types(a, b) -> None:
    """`b` has `a`'s type throughout, so every decoded command is a Command
    and every ballot a Ballot: a NamedTuple equals the plain tuple of its
    fields, so `==` alone would pass a decoder that builds tuples."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_types(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        for x, y in zip(a, b, strict=True):
            _assert_same_types(x, y)


def test_read_reply_frame_is_small():
    """A 64-byte read reply costs at most 120 bytes on the wire."""
    raw = encode("n0", 2**20, ClientReadReply(123456, b"p0c1.123456.".ljust(64, b"x")))
    assert len(raw) <= 120, len(raw)


def test_accept_frame_is_small():
    """An Accept of two 64-byte puts costs at most 250 bytes on the wire: a
    command is written as its fields, with no key names."""
    value = b"p0c1.1234.".ljust(64, b"x")
    batch = (Command("put", b"k000123", value, "p0c1", 1234),
             Command("put", b"k000124", value, "p0c2", 1234))
    raw = encode("n0", 2**20, Accept(Ballot(2, 0), 1234, batch))
    assert len(raw) <= 250, len(raw)


def _body(*fields):
    return json.dumps([PROTO_VERSION, *fields]).encode()


_READ_REPLY = to_wire(ClientReadReply(1, None))[0]
_CLIENT_REQUEST = to_wire(ClientRequest(Command("get", b"k", None, "c1", 1)))[0]
_GUARD = to_wire(Guard(Ballot(1, 0), 0))[0]

# bodies that are JSON but no frame: each must raise WireError, not the
# RecursionError, AttributeError or TypeError they once raised
MALFORMED_BODIES = {
    "nested_100k_deep": b"[" * 100_000 + b"]" * 100_000,
    "one_number": b"[1]",
    "number_for_bytes": _body("n1", 1, _READ_REPLY, 1, 5, None, None),
    "numeric_command_key": _body("c1", 1, _CLIENT_REQUEST, ["get", 5, None, "c1", 1], -1, False, True),
    "command_kind_not_put_or_get": _body("c1", 1, _CLIENT_REQUEST,
                                         ["cas", "k", None, "c1", 1], -1, False, True),
    "command_as_object": _body("c1", 1, _CLIENT_REQUEST,
                               {"kind": "get", "key": "k", "client": "c1", "seq": 1}, -1, False, True),
    "command_of_four_fields": _body("c1", 1, _CLIENT_REQUEST, ["get", "k", "c1", 1], -1, False, True),
    "ballot_of_three": _body("n1", 1, _GUARD, [1, 0, 0], 0),
    "ballot_non_int_node": _body("n1", 1, _GUARD, [1, "0"], 0),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_BODIES))
def test_malformed_body_raises_wire_error(name):
    with pytest.raises(WireError):
        decode_body(MALFORMED_BODIES[name])


def test_kv_client_takes_only_its_own_increasing_request_ids():
    """The cluster acknowledges a write whose seq is at or below the highest
    it has executed for the client id, and skips it. So `KvClient.op`
    refuses a request id that names another client, has no integer seq, or
    does not increase, and refuses it before it sends anything."""
    async def main():
        cli = KvClient(["127.0.0.1:1"] * 3, 0, "c7", unhold_floor_ms=5, op_timeout_s=0.02)
        sent = []

        async def send(node, msg):
            sent.append(msg)
        cli._send = send
        assert (await cli.op("put", b"k", b"v", request_id="c7.5"))[0] == "timeout"
        assert {r.cmd for r in sent} == {Command("put", b"k", b"v", "c7", 5)}
        for rid in ("c8.6", "c7.x", "c7.", "c7", "c7.-6", "c7.6.1", "c7.\u0663", "c7.5", "c7.4"):
            sent.clear()
            with pytest.raises(ValueError):
                await cli.op("put", b"k", b"w", request_id=rid)
            assert sent == [] and cli.op_seq == 5, rid
        await cli.op("get", b"k")
        assert {r.cmd.seq for r in sent} == {6}
        sent.clear()
        await cli.op("get", b"k", request_id="c7.9")
        assert {r.cmd.seq for r in sent} == {9} and cli.op_seq == 9
        await cli.close()
    asyncio.run(main())


# ------------------------------------------------------------- live cluster

async def _start_cluster(cfgs):
    daemons = []
    for cfg in cfgs:
        d = Daemon(cfg)
        await d.start()
        daemons.append(d)
    return daemons


async def _until(cond, deadline_s=5.0):
    """Poll until `cond()` holds; fail after `deadline_s`."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + deadline_s
    while not cond():
        assert loop.time() < deadline, f"{cond.__name__} not met after {deadline_s} s"
        await asyncio.sleep(0.001)


async def _until_ready(daemons, bal, deadline_s=5.0):
    """Poll until, at ballot `bal`, the roster's leader is `leader_ready`
    and every node the roster names is stable; fail after `deadline_s`."""
    nodes = {d.cfg.node_id: d.node for d in daemons}

    def ready_at_bal():
        ros = next((n.ros for n in nodes.values() if n.bal == bal), None)
        return (ros is not None and nodes[ros.leader].leader_ready
                and all(nodes[i].bal == bal and nodes[i].is_stable() for i in ros.special_nodes()))

    await _until(ready_at_bal, deadline_s)


async def _stop_cluster(daemons):
    for d in daemons:
        await d.stop()
    await asyncio.sleep(0.05)


def test_live_cluster_put_get_and_roster_ops():
    async def main():
        cfgs = cluster_configs(3, record_events=True)
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            # fresh cluster: ballot (0,0), empty roster
            rep = await ctl_request(addrs[1], "roster_get")
            assert rep.ok and rep.bal == Ballot(0, 0)
            assert rep.roster is not None and rep.roster.leader is None

            # invalid roster rejected before anything is announced
            bad = full_range_roster(0, {7})
            rep = await ctl_request(addrs[0], "roster_set", bad)
            assert not rep.ok and "7" in rep.detail

            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
            assert rep.ok and rep.bal == Ballot(1, 0)
            await _until_ready(daemons, rep.bal)

            cli = KvClient(addrs, site=2, cid="t0", op_timeout_s=5.0)
            outcome, _v, _lat = await cli.put(b"x", b"1")
            assert outcome == "ok"
            outcome, value, _lat = await cli.get(b"x")
            assert outcome == "ok" and value == b"1"
            outcome, value, _lat = await cli.get(b"never-written")
            assert outcome == "ok" and value is None
            await cli.close()

            rep = await ctl_request(addrs[2], "roster_get")
            assert rep.ok and rep.bal == Ballot(1, 0)
            assert rep.roster.leader == 0

            # the stats verb answers with the current tune window's
            # counters, which stay empty while the tuner is off
            rep = await ctl_request(addrs[2], "stats")
            assert rep.ok and not rep.rows
        finally:
            logs = [list(d.event_log) for d in daemons]
            nodes = [d.node for d in daemons]
            await _stop_cluster(daemons)
        # replay parity: every daemon's recorded events reproduce its digest,
        # also after a trip through JSON
        for i, d_log in enumerate(logs):
            assert fresh_node(cfgs[i]).replay(d_log) == nodes[i].state_digest()
            assert fresh_node(cfgs[i]).replay(json.loads(json.dumps(d_log))) == nodes[i].state_digest()

    asyncio.run(main())


def test_client_port_drops_what_is_not_the_senders_own_request():
    """A client-port frame reaches the core only as a ClientRequest or
    OperatorRequest naming the envelope's sender; anything else is dropped
    with no reply and leaves no event."""
    async def main():
        cfg = cluster_configs(3, record_events=True)[0]
        d = Daemon(cfg)
        await d.start()
        try:
            reader, writer = await asyncio.open_connection(*cfg.peers[0].client.split(":"))
            await asyncio.sleep(0.05)
            digest = d.node.state_digest()
            bad = [
                Guard(Ballot(9, 1), 5),
                Deliver(1, Accept(Ballot(9, 1), 1, (Command("put", b"k", b"v", "x", 1),))),
                TimerFire(("tune",)),
                ClientRequest(Command("put", b"k", b"v", "other", 2)),
                OperatorRequest("roster_set", "other", full_range_roster(0, {1})),
            ]
            for seq, msg in enumerate(bad, 1):
                writer.write(encode("c1", seq, msg))
            writer.write(encode("c1", len(bad) + 1, OperatorRequest("roster_get", "c1")))
            await writer.drain()
            frames, got = FrameReader(), []
            while not got:
                data = await asyncio.wait_for(reader.read(65536), 5)
                assert data, "connection closed"
                got = frames.feed(data)
            await asyncio.sleep(0.05)
            writer.close()
            assert [type(e.msg) for e in got] == [CtlReply]
            assert d.node.state_digest() == digest
            assert set(d.client_writers) <= {"c1"}
            # the node's own timers and self-sends aside (its tuner is off)
            events = [from_wire(row, 1) for row in d.event_log[1:]]
            from_client = [e for e in events
                           if type(e) in (ClientRequest, OperatorRequest)
                           or (type(e) is Deliver and e.frm != 0)
                           or (type(e) is TimerFire and e.key == ("tune",))]
            assert from_client == [OperatorRequest("roster_get", "c1")]
        finally:
            await d.stop()
            await asyncio.sleep(0.05)

    asyncio.run(main())


def test_daemon_closes_a_connection_on_a_malformed_frame():
    """Each malformed body, framed and sent to either port, closes that
    connection, leaves the node's state alone, and the daemon keeps serving."""
    async def main():
        cfg = cluster_configs(3)[0]
        d = Daemon(cfg)
        await d.start()
        try:
            await asyncio.sleep(0.05)
            digest = d.node.state_digest()
            for port in (cfg.peers[0].peer, cfg.peers[0].client):
                for name, body in sorted(MALFORMED_BODIES.items()):
                    reader, writer = await asyncio.open_connection(*port.split(":"))
                    writer.write(len(body).to_bytes(4, "big") + body)
                    await writer.drain()
                    assert await asyncio.wait_for(reader.read(), 5) == b"", (port, name)
                    writer.close()
            assert d.node.state_digest() == digest
            rep = await ctl_request(cfg.peers[0].client, "roster_get")
            assert rep.ok and rep.bal == Ballot(0, 0)
        finally:
            await d.stop()

    asyncio.run(main())


def test_peer_port_closes_on_what_no_peer_sends():
    """A peer-port frame must be a node message from a node id: an event
    kind, or a sender like "n²" that `int` refuses, closes the connection,
    leaves no event-log row, and the log still replays. No error escapes
    to the event loop."""
    async def main():
        errors = []
        asyncio.get_running_loop().set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        cfg = cluster_configs(3, record_events=True)[0]
        d = Daemon(cfg)
        await d.start()
        try:
            await asyncio.sleep(0.05)
            digest = d.node.state_digest()
            frames = [
                encode("n1", 1, TimerFire(("tune",))),
                encode("n1", 1, ClientRequest(Command("put", b"k", b"v", "c1", 1))),
                encode("n1", 1, Deliver(1, Accept(Ballot(9, 1), 1, ()))),
                encode("n\u00b2", 1, Guard(Ballot(9, 1), 5)),
            ]
            for frame in frames:
                reader, writer = await asyncio.open_connection(*cfg.peers[0].peer.split(":"))
                writer.write(frame)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 5) == b"", frame
                writer.close()
            assert errors == []
            assert d.node.state_digest() == digest
            assert all(type(from_wire(row, 1)) is not Deliver or row[2] == 0
                       for row in d.event_log[1:])
        finally:
            await d.stop()
        assert fresh_node(cfg).replay(d.event_log) == d.node.state_digest()

    asyncio.run(main())


def test_stop_leaves_no_task_and_no_connection_open():
    """Stopping every daemon of a cluster whose links are up leaves no task
    pending, has each peer link see its `connection_lost`, and closes the
    connections the daemons accepted."""
    async def main():
        cfgs = cluster_configs(3)
        daemons = await _start_cluster(cfgs)
        links = [link for d in daemons for link in d.links.values()]
        await _until(lambda: all(link.transport is not None for link in links))
        conns = [await asyncio.open_connection(*addr.split(":"))
                 for addr in (cfgs[0].peers[0].peer, cfgs[0].peers[0].client)]
        rep = await ctl_request(cfgs[0].peers[0].client, "roster_get")
        assert rep.ok
        for d in daemons:
            await d.stop()
        assert [t for t in asyncio.all_tasks() if t is not asyncio.current_task()] == []
        assert all(link.transport is None for link in links)
        for reader, writer in conns:
            assert await asyncio.wait_for(reader.read(), 1) == b""  # closed by the daemon
            writer.close()

    asyncio.run(main())


_START_ORDERS = {"announcer_first": ([0], [1, 2]), "all_at_once": ([], [0, 1, 2]),
                 "announcer_last": ([1, 2], [0])}


@pytest.mark.parametrize("order", sorted(_START_ORDERS))
def test_boot_announce_waits_for_the_links_not_the_clock(order):
    """An announcing node, node 0, sends its boot roster once its links to
    every peer are up, whatever order the nodes start in: the cluster
    serves within 0.25 s of the last start. Started first, node 0 is left
    alone for 1.2 s, so its links are deep in backoff."""
    async def main():
        # t_hb_fail, the announce's fallback, is well past the test's span
        cfgs = cluster_configs(3, announce=full_range_roster(0, {0, 1, 2}),
                               timers={"hb_fail_ms": 3000, "guard_ms": 4000, "lease_ms": 4000})
        first, last = _START_ORDERS[order]
        daemons = await _start_cluster([cfgs[i] for i in first])
        try:
            if order == "announcer_first":
                await asyncio.sleep(1.2)
                assert daemons[0].node.bal == Ballot(0, 0)
            daemons += await _start_cluster([cfgs[i] for i in last])
            await _until_ready(daemons, Ballot(1, 0), deadline_s=0.25)
            assert all(link.transport is not None for d in daemons for link in d.links.values())
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_boot_announce_waits_for_each_peers_link_back(monkeypatch):
    """The peers' links to the announcing node 0 connect 0.3 s late, after
    node 0's own links are up. Node 0 waits for them before it announces,
    so no peer's first reply is dropped, and the cluster serves within
    0.25 s of those links' connect, not a retransmit timer later."""
    delay = 0.3
    maintain = daemon_mod._PeerLink.maintain

    async def slow_link_back(link):
        if link.peer_id == 0:
            await asyncio.sleep(delay)
        await maintain(link)

    monkeypatch.setattr(daemon_mod._PeerLink, "maintain", slow_link_back)

    async def main():
        cfgs = cluster_configs(3, announce=full_range_roster(0, {0, 1, 2}),
                               timers={"hb_fail_ms": 3000, "guard_ms": 4000, "lease_ms": 4000})
        daemons = await _start_cluster([cfgs[1], cfgs[2], cfgs[0]])
        try:
            await _until_ready(daemons, Ballot(1, 0), deadline_s=delay + 0.25)
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_boot_announce_falls_back_to_hb_fail():
    """With a peer that never comes up, the announcing node sends its boot
    roster after t_hb_fail; a peer started later gets it from heartbeats."""
    async def main():
        cfgs = cluster_configs(3, announce=full_range_roster(0, {1}))
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        daemons = await _start_cluster(cfgs[:2])
        try:
            await _until(lambda: daemons[0].node.bal == Ballot(1, 0))
            took = loop.time() - t0
            assert 0.25 <= took < 1.0, took
            await _until_ready(daemons, Ballot(1, 0))
            daemons += await _start_cluster(cfgs[2:])
            await _until(lambda: daemons[2].node.bal == Ballot(1, 0))
            await _until_ready(daemons, Ballot(1, 0))
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_peer_link_reconnects_at_once():
    """A peer link whose connection the receiver closes is up again within
    0.1 s, five times over; the nodes' state is unchanged and the cluster
    still serves."""
    async def main():
        cfgs = cluster_configs(3)
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            bal, roster = rep.bal, rep.roster
            digests = [d.node.state_digest() for d in daemons]
            link = daemons[0].links[1]
            for _ in range(5):
                old = link.transport
                here = old.get_extra_info("sockname")
                accepted = next(tr for tr in daemons[1]._accepted
                                if tr.get_extra_info("peername") == here)
                accepted.close()
                await _until(lambda: link.transport not in (None, old), deadline_s=0.1)
            for i, d in enumerate(daemons):
                rep = await ctl_request(addrs[i], "roster_get")
                assert rep.ok and rep.bal == bal and rep.roster == roster
            assert [d.node.state_digest() for d in daemons] == digests
            cli = KvClient(addrs, site=1, cid="t4", op_timeout_s=5.0)
            assert (await cli.put(b"k", b"v"))[0] == "ok"
            assert (await cli.get(b"k"))[:2] == ("ok", b"v")
            await cli.close()
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_self_sends_are_handled_in_order_after_their_cause():
    """A message a node sends itself is handled after the handle call that
    sent it returns, first sent first handled."""
    me, bal = 0, Ballot(1, 0)
    cfg = cluster_configs(3, record_events=True)[me]
    d = Daemon(cfg)
    calls, depth = [], [0]

    def handle(ev, now):
        assert depth[0] == 0, "handle re-entered"
        depth[0] += 1
        calls.append(ev)
        if type(ev) is OperatorRequest:
            outs = [Send(me, Guard(bal, 1)), Send(1, Guard(bal, 9)), Send(me, Guard(bal, 2))]
        elif ev.msg.thresh == 1:
            outs = [Send(me, Guard(bal, 3))]
        else:
            outs = []
        depth[0] -= 1
        return outs

    async def main():  # the daemon's clock is its running loop's
        d._step(OperatorRequest("roster_get", "c1"))

    d.node.handle = handle
    asyncio.run(main())
    assert [type(e) for e in calls] == [OperatorRequest, Deliver, Deliver, Deliver]
    assert [(e.frm, e.msg.thresh) for e in calls[1:]] == [(me, 1), (me, 2), (me, 3)]
    assert [from_wire(row, 1) for row in d.event_log] == calls


def test_a_key_re_armed_in_the_loop_turn_of_its_old_deadline_fires_once():
    """A callback re-arms key K in the loop turn in which K's old deadline
    is due, so K's old handle is already in the ready queue when `_arm`
    cancels it. The core sees one TimerFire(K), at the new deadline."""
    d = Daemon(cluster_configs(3)[0])
    key, fired = ("hb_tick",), []
    d.node.handle = lambda ev, now: fired.append((ev, now)) or []

    async def main():
        loop = asyncio.get_running_loop()
        old = loop_us() + 1000
        new = old + 50_000
        d._arm(key, old)
        loop.call_at((old - 500) / 1e6, d._arm, key, new)
        time.sleep(0.005)  # both are due when the loop next looks
        await asyncio.sleep(0.1)  # past the new deadline
        assert [ev for ev, _now in fired] == [TimerFire(key)]
        assert fired[0][1] >= new - 1 and d.timers == {}

    asyncio.run(main())


_REPLIES = (ClientReadReply, ClientWriteReply, ClientRedirect, ClientUnavailable, CtlReply)


def test_layer_wrappers_see_every_frame_and_event(monkeypatch):
    """The wrappers a benchmark installs around the daemon module's
    `encode`, `FrameReader.feed` and each node's `handle` see every frame
    the daemons send or receive and every event their cores handle."""
    from bodega.service import daemon as daemon_mod

    sent, received = [0], [0]
    encode_, feed_ = daemon_mod.encode, FrameReader.feed

    def counting_encode(frm, seq, msg):
        sent[0] += 1
        return encode_(frm, seq, msg)

    def counting_feed(reader, data):
        envs = feed_(reader, data)
        # the client library decodes only replies; the daemons everything else
        received[0] += sum(type(e.msg) not in _REPLIES for e in envs)
        return envs

    monkeypatch.setattr(daemon_mod, "encode", counting_encode)
    monkeypatch.setattr(FrameReader, "feed", counting_feed)
    # each client connection numbers its reply frames, and goes when it closes
    conns = []
    conn_init = daemon_mod._ClientConn.__init__

    def tracking_init(conn, daemon):
        conn_init(conn, daemon)
        conns.append(conn)
    monkeypatch.setattr(daemon_mod._ClientConn, "__init__", tracking_init)

    async def main():
        cfgs = cluster_configs(3, record_events=True)
        daemons = await _start_cluster(cfgs)
        handled = [0] * len(daemons)
        for i, d in enumerate(daemons):
            def counting_handle(ev, now, inner=d.node.handle, i=i):
                handled[i] += 1
                return inner(ev, now)
            d.node.handle = counting_handle
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            cli = KvClient(addrs, site=1, cid="w1", op_timeout_s=5.0)
            for i in range(5):
                assert (await cli.put(b"k%d" % i, b"v"))[0] == "ok"
                assert (await cli.get(b"k%d" % i))[0] == "ok"
            await cli.close()
        finally:
            await _stop_cluster(daemons)
        events = [[from_wire(row, 1) for row in d.event_log[1:]] for d in daemons]
        assert handled == [len(evs) for evs in events]
        assert sent[0] == (sum(l.seq for d in daemons for l in d.links.values())
                           + sum(c.seq for c in conns))
        from_network = sum(type(e) in (ClientRequest, OperatorRequest)
                           or (type(e) is Deliver and e.frm != i)
                           for i, evs in enumerate(events) for e in evs)
        assert received[0] == from_network > 0

    asyncio.run(main())


def test_live_cluster_redirect_and_local_read_paths():
    async def main():
        cfgs = cluster_configs(3)
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {2}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            cli = KvClient(addrs, site=2, cid="t1", op_timeout_s=5.0)
            assert (await cli.put(b"k", b"v"))[0] == "ok"
            # responder-site read is served by node 2 without re-contact
            outcome, value, _ = await cli.get(b"k")
            assert outcome == "ok" and value == b"v"
            assert daemons[2].node.counters.get("reads_local", 0) >= 1
            # non-responder node redirects a read toward the leader
            cli1 = KvClient(addrs, site=1, cid="t2", op_timeout_s=5.0)
            outcome, value, _ = await cli1.get(b"k")
            assert outcome == "ok" and value == b"v"
            assert daemons[1].node.counters.get("reads_redirected", 0) >= 1
            await cli.close()
            await cli1.close()
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_live_cluster_survives_node_kill():
    async def main():
        cfgs = cluster_configs(5, timers={"hb_send_ms": 40, "hb_fail_ms": 200,
                                          "guard_ms": 500, "lease_ms": 500,
                                          "delta_ms": 20})
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {2, 3, 4}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            cli = KvClient(addrs, site=1, cid="t3", op_timeout_s=8.0)
            assert (await cli.put(b"a", b"1"))[0] == "ok"
            await daemons[4].stop()  # kill one responder
            # cluster recovers once the failure change removes node 4
            outcome, _v, _lat = await cli.put(b"a", b"2")
            assert outcome == "ok"
            outcome, value, _lat = await cli.get(b"a")
            assert outcome == "ok" and value == b"2"
            rep = await ctl_request(addrs[0], "roster_get")
            assert 4 not in rep.roster.special_nodes()
            await cli.close()
        finally:
            await _stop_cluster([d for i, d in enumerate(daemons) if i != 4])

    asyncio.run(main())


async def _serving_cluster():
    """A 3-node cluster whose roster names responders 1 and 2, ready to
    serve: (daemons, client addresses)."""
    cfgs = cluster_configs(3)
    daemons = await _start_cluster(cfgs)
    addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
    rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
    assert rep.ok
    await _until_ready(daemons, rep.bal)
    return daemons, addrs


def test_kv_client_rotates_past_a_closed_client_port():
    """A refused connect is no error: with its own node's client port
    closed, a client's get goes to the next node of its rotation on the
    unhold timer and completes there."""
    async def main():
        daemons, addrs = await _serving_cluster()
        try:
            writer = KvClient(addrs, site=2, cid="a0", op_timeout_s=5.0)
            assert (await writer.put(b"k", b"v"))[0] == "ok"
            await writer.close()
            closed = list(addrs)
            closed[1] = f"127.0.0.1:{free_ports(1)[0]}"
            cli = KvClient(closed, site=1, cid="a1", unhold_floor_ms=20, op_timeout_s=5.0)
            after = cli.cache.preference_order(b"k")[1]  # no roster cached: node 0
            outcome, value, latency_us = await cli.get(b"k")
            assert (outcome, value) == ("ok", b"v") and latency_us >= 20_000
            assert sorted(cli.links) == [after]
            await cli.close()
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_kv_client_reconnects_a_connection_the_node_closed():
    """After a node closes the client's connection between two ops, the
    second op connects to the same node again and is served there, well
    before the unhold timer would rotate it elsewhere."""
    async def main():
        daemons, addrs = await _serving_cluster()
        try:
            cli = KvClient(addrs, site=1, cid="b1", unhold_floor_ms=2000, op_timeout_s=5.0)
            assert (await cli.put(b"k", b"v"))[0] == "ok"
            assert (await cli.get(b"k"))[:2] == ("ok", b"v")
            link = cli.links[1]
            here = link.transport.get_extra_info("sockname")
            accepted = next(tr for tr in daemons[1]._accepted
                            if tr.get_extra_info("peername") == here)
            accepted.close()
            await _until(lambda: link.transport is None)
            outcome, value, latency_us = await cli.get(b"k")
            assert (outcome, value) == ("ok", b"v") and latency_us < 1_000_000
            assert cli.links[1] is not link and cli.links[1].transport is not None
            await cli.close()
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_a_daemon_keeps_nothing_per_client_once_its_connections_close():
    """50 clients, each with its own id, connect, do an op and close: no
    daemon has an entry left that names one of them."""
    async def main():
        daemons, addrs = await _serving_cluster()
        try:
            for n in range(50):
                cli = KvClient(addrs, site=1, cid=f"gone{n}", op_timeout_s=5.0)
                op = cli.put(b"k", b"v%d" % n) if n % 2 else cli.get(b"k")
                assert (await op)[0] == "ok"
                await cli.close()
            await _until(lambda: all(not d.client_writers for d in daemons))
            for d in daemons:
                for name, field in vars(d).items():
                    if isinstance(field, (dict, set, list)):
                        held = [x for x in field if isinstance(x, str) and x.startswith("gone")]
                        assert held == [], (d.cfg.node_id, name)
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


def test_sequential_puts_to_an_idle_leader_never_arm_the_batch_timer():
    """One client's puts reach the leader one at a time, each after the
    previous one committed, so the leader proposes each at once: its
    daemon never holds a ("batch",) timer."""
    async def main():
        daemons, addrs = await _serving_cluster()
        leader = daemons[0]
        armed = []

        def arm(key, deadline, inner=leader._arm):
            armed.append(key)
            inner(key, deadline)
        leader._arm = arm
        try:
            cli = KvClient(addrs, site=1, cid="p1", op_timeout_s=5.0)
            for n in range(50):
                assert (await cli.put(b"k%d" % (n % 3), b"v%d" % n))[0] == "ok"
            await cli.close()
        finally:
            await _stop_cluster(daemons)
        assert ("batch",) not in armed
        assert leader.node.counters["proposals"] >= 50

    asyncio.run(main())


def test_kv_client_ops_start_no_task_and_close_leaves_nothing():
    """The client's I/O is protocol callbacks and one future per wait:
    200 ops create no asyncio Task, each wait cancels its timer, and
    `close()` closes every transport."""
    async def main():
        daemons, addrs = await _serving_cluster()
        loop = asyncio.get_running_loop()
        try:
            cli = KvClient(addrs, site=1, cid="c1", op_timeout_s=5.0)
            assert (await cli.put(b"k0", b"v"))[0] == "ok"  # connects to the leader and node 1
            tasks = asyncio.all_tasks()
            created = []

            def factory(loop, coro):
                created.append(coro)
                return asyncio.Task(coro, loop=loop)
            loop.set_task_factory(factory)
            try:
                for n in range(200):
                    key = b"k%d" % (n % 7)
                    outcome = (await (cli.put(key, b"v%d" % n) if n % 10 == 0
                                      else cli.get(key)))[0]
                    assert outcome == "ok"
            finally:
                loop.set_task_factory(None)
            assert created == [] and asyncio.all_tasks() == tasks
            transports = [link.transport for link in cli.links.values()]
            assert len(transports) == 2
            await cli.close()
            assert all(tr.is_closing() for tr in transports)
            assert [h for h in loop._scheduled
                    if not h.cancelled() and h._callback is client_mod._wake] == []
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())


@pytest.mark.parametrize("rate", [0.0, 40.0], ids=["closed", "open"])
def test_bench_against_a_live_cluster(tmp_path, rate):
    """bodega-bench's driver: a linearizable history, a summary that counts
    its records, and an open loop that issues at most rate x duration + 1
    ops per client whatever the cluster's speed."""
    w = Workload(start=0, duration=1_000_000, keys=8, key_len=4, value_len=16, write_ratio=0.3,
                 clients=[(1, 1), (2, 1)], open_rate_per_s=rate, op_timeout=5_000_000)

    async def main():
        cfgs = cluster_configs(3)
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            return await bench(w, addrs, seed=3, csv_path=str(tmp_path / "ops.csv"),
                               history_path=str(tmp_path / "hist.jsonl"))
        finally:
            await _stop_cluster(daemons)

    summary = asyncio.run(main())
    rows = [json.loads(line) for line in (tmp_path / "hist.jsonl").read_text().splitlines()]
    assert rows and check_file(str(tmp_path / "hist.jsonl")) is None
    ok = [r for r in rows if r["outcome"] == "ok"]
    assert summary["reads"].get("count", 0) == sum(r["op"] == "get" for r in ok)
    assert summary["writes"].get("count", 0) == sum(r["op"] == "put" for r in ok)
    for site in ("1", "2"):
        mine = [r for r in ok if r["client"].startswith(f"b{site}.")]
        got = summary["per_site"][site]
        assert got["reads"].get("count", 0) + got["writes"].get("count", 0) == len(mine)
    per_client = {c: sum(r["client"] == c for r in rows) for c in {r["client"] for r in rows}}
    assert len(per_client) == 2
    if rate:
        assert all(k <= rate * w.duration / 1e6 + 1 for k in per_client.values()), per_client
        # ops are invoked on the schedule, not a pause after the last reply
        for c in per_client:
            invokes = [r["invoke"] for r in rows if r["client"] == c]
            assert {b - a for a, b in zip(invokes, invokes[1:])} == {int(1e6 / rate)}


def test_two_bench_runs_against_one_cluster_make_one_history(tmp_path):
    """A client id names one incarnation of a client, so each bench run
    names its clients apart: a second run against the same cluster must
    have its writes take effect, not acknowledged and skipped as the first
    run's. The two histories together, each run's ids kept apart, are
    linearizable."""
    w = Workload(start=0, duration=1_000_000, keys=8, key_len=4, value_len=16, write_ratio=0.3,
                 clients=[(1, 1), (2, 1)], op_timeout=5_000_000)

    async def main():
        cfgs = cluster_configs(3)
        daemons = await _start_cluster(cfgs)
        addrs = [c.peers[i].client for i, c in enumerate(cfgs)]
        try:
            rep = await ctl_request(addrs[0], "roster_set", full_range_roster(0, {1, 2}))
            assert rep.ok
            await _until_ready(daemons, rep.bal)
            for run in (1, 2):
                await bench(w, addrs, seed=2 + run, history_path=str(tmp_path / f"h{run}.jsonl"))
        finally:
            await _stop_cluster(daemons)

    asyncio.run(main())
    runs = [[json.loads(line) for line in (tmp_path / f"h{run}.jsonl").read_text().splitlines()]
            for run in (1, 2)]
    clients = [{r["client"] for r in rows} for rows in runs]
    both = tmp_path / "both.jsonl"
    with open(both, "w", encoding="utf-8") as f:
        for run, rows in enumerate(runs, 1):
            for r in rows:
                r["client"], r["request_id"] = f"{run}/{r['client']}", f"{run}/{r['request_id']}"
                f.write(json.dumps(r) + "\n")
    assert all(runs) and check_file(str(both)) is None
    assert not clients[0] & clients[1]


def test_node_config_validation():
    with pytest.raises(ConfigError):
        node_config_from_dict({"id": 0, "peers": []})
    with pytest.raises(ConfigError):
        node_config_from_dict({
            "id": 9,
            "peers": [{"peer": "h:1", "client": "h:2"}] * 3,
        })
    with pytest.raises(ConfigError):
        node_config_from_dict({
            "id": 0,
            "peers": [{"peer": "h:1", "client": "h:2"}] * 3,
            "timers": {"hb_send_ms": 5000},  # breaks hb_send < hb_fail
        })
    with pytest.raises(ConfigError):
        node_config_from_dict({
            "id": 0,
            "peers": [{"peer": "h:1", "client": "h:2"}] * 3,
            "initial_roster": {"leader": 0, "ranges": [{"lo": "", "hi": None, "responders": ["1"]}]},
        })
    cfg = node_config_from_dict({
        "id": 0,
        "peers": [{"peer": "127.0.0.1:1", "client": "127.0.0.1:2"}] * 5,
    })
    assert cfg.n == 5 and cfg.cluster.majority == 3
    # a flag that is not a JSON boolean, an ill-typed id, peer entry or
    # timers block, and a root that is not an object, each named
    good = {"id": 0, "peers": [{"peer": "h:1", "client": "h:2"}] * 3}
    for key, value in [("announce", "false"), ("record_events", "no"), ("id", "a"),
                       ("peers", ["peer=h:1 client=h:2"] * 3), ("timers", 5)]:
        with pytest.raises(ConfigError, match=key):
            node_config_from_dict(dict(good, **{key: value}))
    with pytest.raises(ConfigError, match="<root>"):
        node_config_from_dict([good])
