"""Micro-benchmark of the wire codec: bytes, encode and decode time per
frame for the message kinds that dominate live-mixed, against `json.loads`
of the same frame body.

    python3 tools/wire_bench.py [--src path/to/src]

`--src` picks the checkout whose `bodega` is measured (default: this one),
so the same script times two versions, both with `(client, seq)` commands. Prints one JSON object. A time is
the mean µs per call over NUMBER calls, in the fastest of REPEAT repeats: on
a shared host, other load only ever adds time. Decoding and `json.loads`
alternate within each repeat, so both see the same host.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEAT = 7
NUMBER = 20000


def samples():
    from bodega.events import ClientRequest
    from bodega.messages import Accept, ClientReadReply, Heartbeat
    from bodega.model import Ballot, Command

    value = b"p0c1.1234.".ljust(64, b"x")  # a 64-byte value, as live-mixed writes
    put = Command("put", b"k000123", value, "p0c1", 1234)
    return {
        "ClientRequest": ClientRequest(Command("get", b"k000123", None, "p0c1", 1235), 1, False, True),
        "ClientReadReply": ClientReadReply(1235, value),
        "Accept": Accept(Ballot(2, 0), 1234, (put, Command("put", b"k000124", value, "p0c2", 1234))),
        "Heartbeat": Heartbeat(Ballot(2, 0), None, True, False, 1234),
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from bodega.service.wire import decode_body, encode

    def us(*fns) -> list[float]:
        best = [float("inf")] * len(fns)
        for _ in range(REPEAT):
            for i, fn in enumerate(fns):
                best[i] = min(best[i], timeit.timeit(fn, number=NUMBER))
        return [t / NUMBER * 1e6 for t in best]

    out = {}
    for kind, msg in samples().items():
        frame = encode("n0", 2**20, msg)
        body = frame[4:]
        assert decode_body(body).msg == msg
        enc, dec, loads = us(lambda: encode("n0", 2**20, msg), lambda: decode_body(body),
                             lambda: json.loads(body))
        out[kind] = {"bytes": len(frame), "encode_us": round(enc, 3), "decode_us": round(dec, 3),
                     "json_loads_us": round(loads, 3), "decode_over_json_loads": round(dec / loads, 3)}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
