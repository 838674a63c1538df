"""The daemons' process of the live-mixed workload.

Three bodega daemons share this process's event loop, on free localhost
ports. Node 0 announces the roster (leader 0, responders {0, 1, 2}). The
process talks to the benchmark in JSON lines: on stdout it prints
{"addrs": [...]} once the daemons listen and {"stable": true} once every
node is stable under the roster and the leader has stepped up; then it
answers each stdin command:

    cpu     {"cpu": <process CPU seconds>}
    trace   install the benchmark's layer wrappers, then {"trace": true}
    report  {"cpu": ..., "trace": <layer counts or null>, "counters": {...}}
    quit    stop the daemons, print {"bye": true} and exit

It also exits when stdin closes.
"""
from __future__ import annotations

import asyncio
import json
import os
import socket
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bodega.model import full_range_roster  # noqa: E402
from bodega.service import daemon as daemon_mod  # noqa: E402
from bodega.service.config import node_config_from_dict  # noqa: E402
from bodega.service.daemon import Daemon  # noqa: E402
from bodega.service.wire import FrameReader  # noqa: E402

import inputs  # noqa: E402
from layers import Trace  # noqa: E402
from metrics import NODE_COUNTERS  # noqa: E402

N = 3


def free_ports(k: int) -> list[int]:
    socks = []
    try:
        for _ in range(k):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def ready(daemons: list[Daemon]) -> bool:
    nodes = [d.node for d in daemons]
    bal = nodes[0].bal
    return (nodes[inputs.LIVE_LEADER].leader_ready
            and all(n.bal == bal and n.is_stable() for n in nodes))


async def main() -> None:
    ports = free_ports(2 * N)
    peers = [{"peer": f"127.0.0.1:{ports[2 * i]}", "client": f"127.0.0.1:{ports[2 * i + 1]}"}
             for i in range(N)]
    roster = full_range_roster(inputs.LIVE_LEADER, set(inputs.LIVE_RESPONDERS)).to_wire()
    daemons = [Daemon(node_config_from_dict({
        "id": i, "peers": peers, "timers": inputs.LIVE_TIMERS_MS, "seed": 7,
        "announce": i == inputs.LIVE_LEADER, "initial_roster": roster,
    })) for i in range(N)]
    for d in daemons:
        await d.start()
    say({"addrs": [p["client"] for p in peers]})
    while not ready(daemons):
        await asyncio.sleep(0.002)
    say({"stable": True})

    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin)
    trace: Trace | None = None
    try:
        while True:
            cmd = (await stdin.readline()).decode().strip()
            if cmd in ("", "quit"):
                break
            if cmd == "cpu":
                say({"cpu": time.process_time()})
            elif cmd == "trace":
                trace = Trace()
                for d in daemons:
                    trace.wrap_node(d.node)
                trace.wrap_wire(daemon_mod, FrameReader)
                say({"trace": True})
            elif cmd == "report":
                counters = {k: sum(d.node.counters.get(k, 0) for d in daemons) for k in NODE_COUNTERS}
                say({"cpu": time.process_time(), "counters": counters,
                     "trace": None if trace is None else trace.to_json()})
            else:
                say({"error": f"unknown command {cmd!r}"})
    finally:
        for d in daemons:
            await d.stop()
        await asyncio.sleep(0.05)
    say({"bye": True})


if __name__ == "__main__":
    asyncio.run(main())
