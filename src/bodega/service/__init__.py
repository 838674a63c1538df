"""The networked host: the daemon, the client library and bodega-bench."""
import asyncio


def loop_us() -> int:
    """The running loop's `time()` in integer microseconds: the one clock of
    the daemon's core, the client's ops and bodega-bench's schedule."""
    return int(asyncio.get_running_loop().time() * 1e6)
