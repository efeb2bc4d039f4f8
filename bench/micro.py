"""The micro ladder (ROADMAP item 1): one row per primitive a cell's
host time is made of, as host ns/op **and** kernel events/op.

ns/op is the median of ``TRIALS`` trials of at least ``MIN_LOOP_S``
seconds of looping each; events/op is deterministic, must repeat
exactly across trials, and is asserted.  Run alone with
``python -m bench.micro``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, NamedTuple, Tuple

from repro.hardware.node import Node
from repro.hardware.specs import GRID5000_NANCY_NODE
from repro.net.fabric import Fabric
from repro.net.rpc import RpcService
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.hashtable import HashTable
from repro.ramcloud.log import Log
from repro.ramcloud.segment import LogEntry, Segment
from repro.ramcloud.tablets import key_hash
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, Store
from repro.ycsb.keyspace import make_key_chooser
from repro.ycsb.stats import LatencyRecorder

__all__ = ["MicroRow", "ROWS", "run_ladder", "MIN_LOOP_S", "TRIALS"]

# ISSUE 11 asked for 200 ms; halved so a traced run, which repeats the
# whole ladder, stays inside the driver's per-run budget.
MIN_LOOP_S = 0.1
TRIALS = 5
KEYS = [f"user{i}" for i in range(20_000)]


class MicroRow(NamedTuple):
    """One measured primitive."""

    ns_per_op: float
    events_per_op: float


# Each loop runs ``n`` operations on fresh objects and returns the
# number of kernel events they scheduled (0 for non-simulation rows).


def _timeout(n: int) -> int:
    """Schedule + pop in batches of 1,000, so the heap stays about as
    deep as a cell's (hundreds of pending events), not ``n`` deep."""
    sim = Simulator(debug=False)
    for _ in range(n // 1000):
        for _ in range(1000):
            sim.timeout(1e-6)
        sim.run()
    return sim._seq


def _process_spawn(n: int) -> int:
    sim = Simulator(debug=False)

    def body():
        return
        yield

    for _ in range(n):
        sim.process(body())
    sim.run()
    return sim._seq


def _drive(sim: Simulator, generator) -> int:
    """Run one process to completion; events it took, spawn excluded."""
    before = sim._seq
    sim.process(generator)
    sim.run()
    return sim._seq - before - 2  # bootstrap + the process's own trigger


def _process_resume(n: int) -> int:
    sim = Simulator(debug=False)

    def body():
        for _ in range(n):
            yield sim.timeout(0.0)

    return _drive(sim, body())


def _grant_uncontended(n: int) -> int:
    sim = Simulator(debug=False)
    resource = Resource(sim, 1)

    def body():
        for _ in range(n):
            token = resource.request()
            yield token
            resource.release(token)

    return _drive(sim, body())


def _grant_contended(n: int) -> int:
    """Four processes share one slot and hold it across a timeout, so
    all but the first request queue; one op = one acquisition."""
    sim = Simulator(debug=False)
    resource = Resource(sim, 1)
    holders = 4

    def body(count):
        for _ in range(count):
            token = resource.request()
            yield token
            yield sim.timeout(1e-6)
            resource.release(token)

    before = sim._seq
    for _ in range(holders):
        sim.process(body(n // holders))
    sim.run()
    return sim._seq - before - 2 * holders


def _store_putget(n: int) -> int:
    sim = Simulator(debug=False)
    store = Store(sim)

    def body():
        for i in range(n):
            store.put(i)
            yield store.get()

    return _drive(sim, body())


def _rpc_roundtrip(n: int) -> int:
    """``RpcService.call`` between two nodes on an otherwise idle
    fabric, answered by a minimal echo dispatcher."""
    sim = Simulator(debug=False)
    fabric = Fabric(sim)
    src = Node(sim, GRID5000_NANCY_NODE, "src")
    dst = Node(sim, GRID5000_NANCY_NODE, "dst")
    fabric.attach(src)
    fabric.attach(dst)
    service = RpcService(sim, fabric, dst, "echo")

    def echo():
        while True:
            request = yield service.inbox.get()
            request.respond(None)

    def caller():
        for _ in range(n):
            yield from service.call(src, "echo")

    sim.process(echo())
    before = sim._seq
    done = sim.process(caller())
    sim.run_process(done)
    return sim._seq - before - 2


def _hashtable_lookup(n: int) -> int:
    table = HashTable()
    segment = Segment(0, 8 * 1024 * 1024)
    for key in KEYS:
        table.insert(1, key, segment, LogEntry(1, key, 1024, 1))
    lookup = table.lookup
    keys = KEYS
    size = len(keys)
    for i in range(n):
        lookup(1, keys[i % size])
    return 0


def _hashtable_insert(n: int) -> int:
    table = HashTable()
    segment = Segment(0, 8 * 1024 * 1024)
    entry = LogEntry(1, "user0", 1024, 1)
    insert = table.insert
    keys = KEYS
    size = len(keys)
    for i in range(n):
        insert(1, keys[i % size], segment, entry)
    return 0


def _log_append(n: int) -> int:
    log = Log(ServerConfig(replication_factor=0))
    append = log.append
    keys = KEYS
    size = len(keys)
    for i in range(n):
        append(1, keys[i % size], 1024, i + 1)
    return 0


def _key_hash(n: int) -> int:
    keys = KEYS
    size = len(keys)
    for i in range(n):
        key_hash(keys[i % size])
    return 0


def _chooser(distribution: str) -> Callable[[int], int]:
    def loop(n: int) -> int:
        chooser = make_key_chooser(distribution, len(KEYS),
                                   RandomStream(1, "micro"))
        next_key = chooser.next_key
        for _ in range(n):
            next_key()
        return 0
    return loop


def _stats_record(n: int) -> int:
    recorder = LatencyRecorder("micro")
    record = recorder.record
    for i in range(n):
        record(float(i), 1e-5)
    return 0


def _stats_percentile(n: int) -> int:
    recorder = LatencyRecorder("micro")
    stream = RandomStream(1, "micro")
    for i in range(len(KEYS)):
        recorder.record(float(i), stream.uniform())
    for _ in range(n):
        recorder.percentile(99)
    return 0


# name -> (loop, first n to try).  ``ns`` rows report ns/op; the one
# ``ms`` row (a percentile over 20,000 samples) reports ms/op.
ROWS: Dict[str, Tuple[Callable[[int], int], int]] = {
    "sim.kernel.timeout_ns": (_timeout, 20_000),
    "sim.kernel.process_spawn_ns": (_process_spawn, 10_000),
    "sim.kernel.process_resume_ns": (_process_resume, 20_000),
    "sim.resources.grant_uncontended_ns": (_grant_uncontended, 20_000),
    "sim.resources.grant_contended_ns": (_grant_contended, 20_000),
    "sim.resources.store_putget_ns": (_store_putget, 20_000),
    "net.rpc.roundtrip_host_ns": (_rpc_roundtrip, 2_000),
    "ramcloud.hashtable.lookup_ns": (_hashtable_lookup, 100_000),
    "ramcloud.hashtable.insert_ns": (_hashtable_insert, 100_000),
    "ramcloud.log.append_ns": (_log_append, 20_000),
    "ramcloud.tablets.key_hash_ns": (_key_hash, 20_000),
    "ycsb.keyspace.uniform_ns": (_chooser("uniform"), 50_000),
    "ycsb.keyspace.zipfian_ns": (_chooser("zipfian"), 50_000),
    "ycsb.stats.record_ns": (_stats_record, 100_000),
    "ycsb.stats.percentile_ms": (_stats_percentile, 20),
}


def _timed(loop: Callable[[int], int], n: int) -> Tuple[float, int]:
    start = time.perf_counter()
    events = loop(n)
    return time.perf_counter() - start, events


def measure_row(loop: Callable[[int], int], n: int) -> MicroRow:
    """Grow ``n`` until one trial loops for ``MIN_LOOP_S``, then take
    the median of ``TRIALS`` trials.  Raises if events/op varies."""
    elapsed, _events = _timed(loop, n)
    while elapsed < MIN_LOOP_S:
        n = int(n * max(2.0, 1.2 * MIN_LOOP_S / max(elapsed, 1e-9)))
        if n > 1000:
            n -= n % 1000  # rows split n over processes or batches
        elapsed, _events = _timed(loop, n)
    trials = [_timed(loop, n) for _ in range(TRIALS)]
    events = {e for _t, e in trials}
    if len(events) != 1:
        raise AssertionError(
            f"{loop.__name__}: kernel events per trial vary: {sorted(events)}")
    return MicroRow(
        ns_per_op=1e9 * statistics.median(t for t, _e in trials) / n,
        events_per_op=events.pop() / n)


def run_ladder() -> Dict[str, MicroRow]:
    """Measure every row."""
    return {name: measure_row(loop, n) for name, (loop, n) in ROWS.items()}


def main() -> None:
    print(f"{'row':<40}{'per op':>14}  {'events/op':>10}")
    for name, row in run_ladder().items():
        if name.endswith("_ms"):
            value = f"{row.ns_per_op / 1e6:,.3f} ms"
        else:
            value = f"{row.ns_per_op:,.1f} ns"
        print(f"{name:<40}{value:>14}  {row.events_per_op:>10.3f}")


if __name__ == "__main__":
    main()
