"""System tests for the YCSB client driver."""

import pytest

from repro.sim.distributions import RandomStream
from repro.sim.kernel import Simulator
from repro.ycsb.client import YcsbClient
from repro.ycsb.workload import (
    WORKLOAD_A,
    WORKLOAD_C,
    WORKLOAD_D,
    WORKLOAD_E,
    WORKLOAD_F,
)

from tests.ramcloud.conftest import build_cluster


def run_ycsb(cluster, workload, client_index=0, until=300.0, **kwargs):
    table_id = cluster.create_table("usertable")
    cluster.preload(table_id, workload.num_records, workload.record_size)
    client = YcsbClient(cluster.sim, cluster.clients[client_index], table_id,
                        workload, RandomStream(9, "ycsb"), **kwargs)
    proc = cluster.sim.process(client.run(), name="ycsb")
    cluster.sim.run_process(proc, until=until)
    return client


class TestRunPhase:
    def test_executes_requested_op_count(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_C.scaled(num_records=500, ops_per_client=200)
        client = run_ycsb(cluster, wl)
        assert client.stats.total_ops == 200
        assert len(client.stats.reads) == 200
        assert len(client.stats.updates) == 0

    def test_mixed_workload_roughly_balanced(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_A.scaled(num_records=500, ops_per_client=400)
        client = run_ycsb(cluster, wl)
        reads, updates = len(client.stats.reads), len(client.stats.updates)
        assert reads + updates == 400
        assert 120 < reads < 280  # ~50/50 with sampling noise

    def test_throughput_positive(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_C.scaled(num_records=500, ops_per_client=100)
        client = run_ycsb(cluster, wl)
        assert client.stats.throughput() > 1000

    def test_insert_workload_creates_new_records(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_D.scaled(num_records=300, ops_per_client=300)
        client = run_ycsb(cluster, wl)
        assert len(client.stats.inserts) > 0
        total_records = sum(len(s.hashtable) for s in cluster.servers)
        assert total_records > 300

    def test_scan_workload_uses_multiread(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        wl = WORKLOAD_E.scaled(num_records=400, ops_per_client=100,
                               max_scan_length=20)
        client = run_ycsb(cluster, wl)
        assert len(client.stats.scans) > 0
        # Scans touched many records server-side: far more reads
        # completed than client scan ops issued.
        server_reads = sum(s.reads_completed for s in cluster.servers)
        assert server_reads > 3 * len(client.stats.scans)

    def test_scan_latency_grows_with_length(self):
        latencies = {}
        for max_len in (5, 50):
            cluster = build_cluster(num_servers=3, num_clients=1)
            wl = WORKLOAD_E.scaled(num_records=400, ops_per_client=80,
                                   max_scan_length=max_len)
            client = run_ycsb(cluster, wl)
            latencies[max_len] = client.stats.scans.mean()
        assert latencies[50] > latencies[5]

    def test_read_modify_write_counts_as_update(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_F.scaled(num_records=300, ops_per_client=200)
        client = run_ycsb(cluster, wl)
        assert len(client.stats.updates) > 0
        assert client.stats.total_ops == 200


class TestThrottling:
    def test_throttle_caps_rate(self):
        """Fig. 13: client-side rate limiting."""
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_A.scaled(num_records=500, ops_per_client=100,
                               target_ops_per_second=200.0)
        client = run_ycsb(cluster, wl)
        assert client.stats.throughput() == pytest.approx(200.0, rel=0.1)

    def test_unthrottled_is_much_faster(self):
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_A.scaled(num_records=500, ops_per_client=100)
        client = run_ycsb(cluster, wl)
        assert client.stats.throughput() > 2000


class TestGiveUp:
    def test_client_gives_up_on_unserviceable_op(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("usertable")
        cluster.preload(table_id, 300, 128)
        wl = WORKLOAD_C.scaled(num_records=300, ops_per_client=1000)
        client = YcsbClient(cluster.sim, cluster.clients[0], table_id, wl,
                            RandomStream(9, "ycsb"), give_up_after=0.5)
        cluster.kill_server(0)  # no failure detection: data stays lost
        proc = cluster.sim.process(client.run(), name="ycsb")
        cluster.sim.run_process(proc, until=600.0)
        assert client.gave_up
        assert client.stats.total_ops < 1000
        assert proc.value is client.stats

    def test_answered_ops_withdraw_their_deadlines(self):
        # Paced ops each finish in microseconds, but the run lasts far
        # longer than the deadline: a deadline left armed after its op
        # finished would interrupt a later op and fake a give-up.
        cluster = build_cluster(num_servers=2, num_clients=1)
        wl = WORKLOAD_A.scaled(num_records=500, ops_per_client=100,
                               target_ops_per_second=200.0)
        client = run_ycsb(cluster, wl, give_up_after=0.05)
        assert not client.gave_up
        assert client.stats.errors == 0
        assert client.stats.total_ops == 100

    def test_give_up_deadline_spawns_no_process(self, monkeypatch):
        # The deadline is a timer on the client's own process, not a
        # per-op child process raced against it.
        def spawned(give_up_after):
            cluster = build_cluster(num_servers=2, num_clients=1)
            table_id = cluster.create_table("usertable")
            cluster.preload(table_id, 300, 128)
            wl = WORKLOAD_A.scaled(num_records=300, ops_per_client=100)
            client = YcsbClient(cluster.sim, cluster.clients[0], table_id,
                                wl, RandomStream(9, "ycsb"),
                                give_up_after=give_up_after)
            names = []
            spawn = Simulator.process

            def counting(sim, generator, name=""):
                names.append(name)
                return spawn(sim, generator, name=name)

            with monkeypatch.context() as patch:
                patch.setattr(Simulator, "process", counting)
                proc = cluster.sim.process(client.run(), name="ycsb")
                cluster.sim.run_process(proc, until=300.0)
            assert client.stats.total_ops == 100
            return names

        assert spawned(give_up_after=5.0) == spawned(give_up_after=None)

    def test_give_up_tied_with_completion_stays_inside_run(self):
        # The op finishes in the very instant its deadline fired (the
        # deadline first), so the give-up interrupt is still in flight
        # when the op returns; it must land inside run() and end the run
        # as a give-up, not kill the process before it returns its stats.
        class TiedClient(YcsbClient):
            def _execute(self, op):
                yield self.sim.timeout(self.give_up_after)

        cluster = build_cluster(num_servers=2, num_clients=1)
        table_id = cluster.create_table("usertable")
        wl = WORKLOAD_C.scaled(num_records=100, ops_per_client=5)
        client = TiedClient(cluster.sim, cluster.clients[0], table_id, wl,
                            RandomStream(9, "ycsb"), give_up_after=0.5)
        proc = cluster.sim.process(client.run(), name="ycsb")
        cluster.sim.run_process(proc, until=60.0)
        assert proc.value is client.stats
        assert client.gave_up
        assert client.stats.errors == 1

    def test_other_interrupts_propagate_and_are_not_give_ups(self):
        cluster = build_cluster(num_servers=3, num_clients=1)
        table_id = cluster.create_table("usertable")
        cluster.preload(table_id, 300, 128)
        wl = WORKLOAD_C.scaled(num_records=300, ops_per_client=1000)
        client = YcsbClient(cluster.sim, cluster.clients[0], table_id, wl,
                            RandomStream(9, "ycsb"), give_up_after=100.0)
        cluster.kill_server(0)  # ops on its keys retry until interrupted
        sim = cluster.sim
        proc = sim.process(client.run(), name="ycsb")

        def killer():
            yield sim.timeout(0.3)
            proc.interrupt("killed")

        sim.process(killer())
        sim.run_process(proc, until=600.0)
        assert proc.ok and proc.value is None  # ended by the interrupt
        assert not client.gave_up
        assert client.stats.errors == 0
        assert client.stats.total_ops < 1000
