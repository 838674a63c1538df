"""Names shared by the benchmark's layers: BENCHMARK.json lists the metrics."""

# event kinds of Node.handle: client ops, the consensus messages by name,
# then lease messages, catch-up messages, timers and everything else
NODE_KINDS = ("get", "put", "Accept", "AcceptReply", "AcceptNote", "Commit",
              "Heartbeat", "lease", "catchup", "timer", "other")

# the core's own counters, read after a run
NODE_COUNTERS = ("reads_held", "reads_released", "roster_adopted", "stepups")
