"""Tests for the client-side token-bucket pacing (Fig. 13's mechanism)."""

import pytest

from repro.sim.distributions import RandomStream
from repro.ycsb.client import YcsbClient
from repro.ycsb.workload import WORKLOAD_C

from tests.ramcloud.conftest import build_cluster


def run_throttled(rate, ops=100, stall_until=None):
    cluster = build_cluster(num_servers=2, num_clients=1)
    table_id = cluster.create_table("usertable")
    cluster.preload(table_id, 500, 256)
    wl = WORKLOAD_C.scaled(num_records=500, ops_per_client=ops,
                           target_ops_per_second=rate)
    client = YcsbClient(cluster.sim, cluster.clients[0], table_id, wl,
                        RandomStream(1, "t"))
    proc = cluster.sim.process(client.run())
    cluster.sim.run_process(proc, until=3600.0)
    return client


class TestThrottle:
    def test_rate_is_respected(self):
        client = run_throttled(rate=1000.0)
        assert client.stats.throughput() == pytest.approx(1000.0, rel=0.05)

    def test_slow_rate(self):
        client = run_throttled(rate=50.0, ops=20)
        assert client.stats.throughput() == pytest.approx(50.0, rel=0.1)

    def test_op_slots_are_deterministic(self):
        a = run_throttled(rate=500.0, ops=50)
        b = run_throttled(rate=500.0, ops=50)
        assert a.stats.reads.times == b.stats.reads.times

    def test_latencies_exclude_pacing_delay(self):
        """Throttling must not inflate the recorded op latency — the
        paced wait happens before the op is 'issued'."""
        throttled = run_throttled(rate=200.0, ops=30)
        unthrottled = run_throttled(rate=0.0, ops=30)
        assert throttled.stats.reads.mean() == pytest.approx(
            unthrottled.stats.reads.mean(), rel=0.2)
