"""The closed-loop YCSB client driver.

One :class:`YcsbClient` corresponds to one YCSB process on one client
node (§III-C: "launching simultaneously one instance of a YCSB client
on each client node ... We use a single client per machine").  The
client issues operations synchronously; each operation pays a
client-side overhead (``CLIENT_OVERHEAD``) that models the YCSB/Java
stack — the dominant term in the paper's per-client op rates (e.g.
236 Kop/s across 10 clients on an unloaded 10-server cluster, i.e.
≈42 µs per op of which only ≈12 µs is server+network).

Optional throttling implements the paper's Fig. 13 client-side rate
limiting (``target_ops_per_second``).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.net.rpc import RpcTimeout
from repro.ramcloud.client import RETRY_BACKOFF, RamCloudClient
from repro.ramcloud.errors import ObjectDoesntExist
from repro.ramcloud.indexing import secondary_key
from repro.sim.distributions import RandomStream
from repro.sim.kernel import Interrupt, Simulator, Timeout
from repro.ycsb.keyspace import (LatestKeyChooser, format_key,
                                 make_key_chooser, parse_key)
from repro.ycsb.stats import OperationStats
from repro.ycsb.workload import WorkloadSpec

__all__ = ["YcsbClient", "CLIENT_OVERHEAD"]

# Per-operation client-side cost (request generation, (de)serialization,
# benchmark bookkeeping).  Calibrated so an unloaded read takes ≈42 µs
# end to end, matching Table II's per-client read-only rates.
CLIENT_OVERHEAD = 30.0e-6

# The Interrupt cause a give-up deadline throws into its client.
GIVE_UP = "gave up"


def _give_up(deadline: Timeout) -> None:
    """A give-up deadline fired: interrupt the client process it carries."""
    deadline.value.interrupt(GIVE_UP)


class YcsbClient:  # simlint: disable=PERF001 O(clients) service object; __dict__ cost is amortized
    """One YCSB client process bound to a client node."""

    def __init__(self, sim: Simulator, rc_client: RamCloudClient,
                 table_id: int, workload: WorkloadSpec,
                 stream: RandomStream,
                 give_up_after: Optional[float] = None,
                 index_id: Optional[int] = None):
        self.sim = sim
        self.rc = rc_client
        self.table_id = table_id
        self.workload = workload
        self.stream = stream
        # Abort the run if a single op stays unserviceable this long
        # (models the paper's runs "always crashing ... because of
        # excessive timeouts", §VI).  Enforced as a hard deadline that
        # interrupts the operation: a dropped request that would stall
        # for the full RPC timeout trips it even though no exception ever
        # reaches the client.  Also bounds the underlying retry loop so
        # an op that can never complete is abandoned.
        self.give_up_after = give_up_after
        if give_up_after is not None and rc_client.max_retries is None:
            rc_client.max_retries = (
                int(give_up_after / RETRY_BACKOFF) + 1)
        self.stats = OperationStats()
        # Dynamic admission throttle (cluster power capping): when an
        # experiment assigns an AdmissionThrottle here, it replaces the
        # static ``target_ops_per_second`` pacing below.  None (the
        # default) leaves the paper's Fig. 13 token bucket untouched.
        self.throttle = None
        # Secondary index over the table (indexed workload mixes).
        # None means writes carry no index entries and the iscan/
        # ilookup ops are never drawn — bit-identical to before.
        self.index_id = index_id
        self.keys = make_key_chooser(workload.request_distribution,
                                     workload.num_records, stream)
        self._insert_counter = workload.num_records
        self.gave_up = False
        # Per-request consistency mix (empty = every op at the cluster
        # default, no extra RNG draws — existing runs bit-identical).
        self._consistency_mix = workload.consistency_mix

    def _choose_level(self) -> Optional[str]:
        """Draw this op's ConsistencyLevel from the workload mix.
        Only called when a mix is configured, so default workloads
        consume no stream draws here."""
        roll = self.stream.uniform()
        for level, proportion in self._consistency_mix:
            if roll < proportion:
                return level
            roll -= proportion
        return None  # remainder: the cluster's configured default

    # -- operation mix ---------------------------------------------------

    def _choose_op(self) -> str:
        w = self.workload
        roll = self.stream.uniform()
        if roll < w.read_proportion:
            return "read"
        roll -= w.read_proportion
        if roll < w.update_proportion:
            return "update"
        roll -= w.update_proportion
        if roll < w.insert_proportion:
            return "insert"
        roll -= w.insert_proportion
        if roll < w.scan_proportion:
            return "scan"
        roll -= w.scan_proportion
        if roll < w.index_scan_proportion:
            return "iscan"
        roll -= w.index_scan_proportion
        if roll < w.index_lookup_proportion:
            return "ilookup"
        return "rmw"

    def _next_insert_key(self) -> str:
        if isinstance(self.keys, LatestKeyChooser):
            return self.keys.record_insert()
        key = format_key(self._insert_counter)
        self._insert_counter += 1
        return key

    # -- the run phase ------------------------------------------------------

    def run(self) -> Generator:
        """Execute ``ops_per_client`` operations; returns the stats."""
        w = self.workload
        yield from self.rc.refresh_map()
        sim = self.sim
        stats = self.stats
        stats.started_at = sim.now
        start = sim.now
        rate = w.target_ops_per_second
        overhead = CLIENT_OVERHEAD
        give_up_after = self.give_up_after
        # op → recorder, built once (not per completed operation).
        recorders = {"read": stats.reads, "update": stats.updates,
                     "insert": stats.inserts, "scan": stats.scans,
                     "rmw": stats.updates, "iscan": stats.index_ops,
                     "ilookup": stats.index_ops}
        # The process running this generator: the give-up deadline
        # interrupts it.
        process = sim.active_process
        for i in range(w.ops_per_client):
            # The whole iteration listens for the give-up interrupt: a
            # deadline that fires in the very instant its op completes
            # lands at the next think-time wait instead.
            try:
                now = sim.now
                if self.throttle is not None:
                    # Dynamic pacing: the power-cap controller moves the
                    # shared throttle's rate at run time.
                    delay = self.throttle.reserve()
                elif rate > 0:
                    # Token-bucket pacing: operation i may not start
                    # before its scheduled slot.
                    delay = start + i / rate - now
                else:
                    delay = 0.0
                if delay > 0:
                    # The pacing wait and the think time are one timer,
                    # at the float two chained timers would reach.
                    yield sim.timeout_at((now + delay) + overhead)
                else:
                    yield sim.timeout(overhead)
                op = self._choose_op()
                issued = sim.now
                if give_up_after is None:
                    yield from self._execute(op)
                else:
                    # An op still unfinished at the deadline (e.g. a
                    # silently dropped request waiting out the 1 s RPC
                    # timeout) is interrupted and abandoned mid-flight;
                    # one that finishes first withdraws the deadline.
                    deadline = sim.timeout(give_up_after, process)
                    deadline.add_callback(_give_up)
                    try:
                        yield from self._execute(op)
                    finally:
                        deadline.cancel()
            except Interrupt as interrupt:
                if interrupt.cause != GIVE_UP:
                    raise
                stats.errors += 1
                self.gave_up = True
                break
            except ObjectDoesntExist:
                stats.errors += 1
                continue
            except RpcTimeout:
                # max_retries exhausted (only when configured).
                stats.errors += 1
                self.gave_up = True
                break
            latency = sim.now - issued
            if give_up_after is not None and latency > give_up_after:
                self.gave_up = True
                break
            recorders[op].record(sim.now, latency)
        stats.finished_at = sim.now
        return stats

    def _index_entries_for(self, key: str):
        """The (index_id, secondary) pairs this record carries, or None
        on unindexed runs.  The secondary key is derived from the
        record number (the experiment preload uses the same mapping),
        so an update rewrites the same pairs and maintains the index
        consistently."""
        if self.index_id is None:
            return None
        return ((self.index_id, secondary_key(parse_key(key))),)

    def _execute(self, op: str) -> Generator:
        w = self.workload
        level = self._choose_level() if self._consistency_mix else None
        if op == "read":
            yield from self.rc.read(self.table_id, self.keys.next_key(),
                                    level=level)
        elif op == "update":
            key = self.keys.next_key()
            yield from self.rc.write(self.table_id, key,
                                     w.record_size, level=level,
                                     index_entries=self._index_entries_for(key))
        elif op == "insert":
            key = self._next_insert_key()
            yield from self.rc.write(self.table_id, key,
                                     w.record_size, level=level,
                                     index_entries=self._index_entries_for(key))
        elif op == "scan":
            # YCSB scan: from a random start key, fetch a uniformly
            # random number of consecutive records (mapped onto
            # RAMCloud's MultiRead, as the real YCSB binding does).
            start = self.stream.randint(0, w.num_records - 1)
            length = self.stream.randint(1, w.max_scan_length)
            keys = [format_key((start + i) % w.num_records)
                    for i in range(length)]
            yield from self.rc.multiread(self.table_id, keys)
        elif op == "iscan":
            # Workload E over the secondary index: a random start key,
            # a uniformly random run length, served by the range Search
            # RPC with indexlet fan-out.
            start = self.stream.randint(0, w.num_records - 1)
            length = self.stream.randint(1, w.max_scan_length)
            yield from self.rc.search(self.index_id, secondary_key(start),
                                      secondary_key(start + length),
                                      limit=length)
        elif op == "ilookup":
            # Point lookup by secondary key (a width-one Search).
            i = self.stream.randint(0, w.num_records - 1)
            yield from self.rc.search(self.index_id, secondary_key(i),
                                      secondary_key(i + 1), limit=4)
        elif op == "rmw":
            key = self.keys.next_key()
            yield from self.rc.read(self.table_id, key, level=level)
            yield from self.rc.write(self.table_id, key, w.record_size,
                                     level=level,
                                     index_entries=self._index_entries_for(key))
        else:  # pragma: no cover - _choose_op is exhaustive
            raise ValueError(f"unknown op {op!r}")
