"""Smoke tests: every experiment executes end-to-end at a tiny scale
and produces well-formed comparison tables.

The registry's claim checks test the shapes at DEFAULT scale; these
tests only guarantee that the experiments never rot.
"""

from repro.experiments.registry import tables
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import SMOKE

TINY = SMOKE.with_(num_records=2_000, ops_per_client=100, seeds=(1,),
                   recovery_bytes_per_server=24 * 1024 * 1024,
                   crash_timeline_bytes_per_server=24 * 1024 * 1024)


def assert_table(table, min_rows=1):
    assert isinstance(table, ComparisonTable)
    assert len(table.rows) >= min_rows
    assert table.render()
    assert table.render_markdown()


class TestPeakRunners:
    def test_fig1(self):
        throughput, power = tables(
            "fig1", TINY, server_counts=(1, 2), client_counts=(1, 4))
        assert_table(throughput, 4)
        assert_table(power, 4)

    def test_table1(self):
        assert_table(tables("table1", TINY, grid=((1, 0), (1, 1))), 2)

    def test_fig2(self):
        assert_table(tables(
            "fig2", TINY, server_counts=(1, 2), client_counts=(1, 4)), 4)


class TestWorkloadRunners:
    def test_table2_and_fig3(self):
        table = tables("table2", TINY, client_counts=(2, 4),
                       workload_names=("A", "C"), servers=2)
        assert_table(table, 4)
        assert [row.label for row in table.rows] == [
            "workload A / 2 clients", "workload A / 4 clients",
            "workload C / 2 clients", "workload C / 4 clients"]
        assert_table(tables("fig3", TINY, client_counts=(2, 4)), 4)

    def test_fig4(self):
        power, energy = tables("fig4", TINY, client_counts=(2, 4),
                               servers=2)
        assert_table(power, 4)
        assert_table(energy, 2)


class TestReplicationRunners:
    def test_fig5(self):
        assert_table(tables(
            "fig5", TINY, client_counts=(4,), rfs=(1, 2), servers=4), 2)

    def test_fig6(self):
        throughput, energy = tables(
            "fig6", TINY, server_counts=(4, 6), rfs=(1, 2), clients=4)
        assert_table(throughput, 4)
        assert_table(energy, 2)

    def test_fig7_fig8(self):
        assert_table(tables("fig7", TINY, server_counts=(4,), rfs=(1, 2),
                            clients=4), 2)
        assert_table(tables("fig8", TINY, server_counts=(4, 6),
                            rfs=(1, 2), clients=4), 4)


class TestRecoveryRunners:
    def test_fig9(self):
        assert_table(tables("fig9", TINY), 3)

    def test_fig10(self):
        assert_table(tables("fig10", TINY), 3)

    def test_fig11(self):
        time_table, energy_table = tables("fig11", TINY, rfs=(1, 2),
                                          servers=4)
        assert_table(time_table, 2)
        assert_table(energy_table, 2)
        measured = [r.measured for r in time_table.rows
                    if r.label.startswith("RF")]
        assert all(v is not None for v in measured)

    def test_fig12(self):
        assert_table(tables("fig12", TINY, servers=4, rf=2), 2)


class TestThrottlingAndAblations:
    def test_fig13(self):
        assert_table(tables("fig13", TINY, rates=(500.0,),
                            client_counts=(2,), servers=2, rf=1), 1)

    def test_worker_threads(self):
        assert_table(tables("worker-threads", TINY, worker_counts=(1, 3),
                            servers=2, clients=4), 4)

    def test_async_replication(self):
        assert_table(tables("async-replication", TINY, rf=1, servers=3,
                            clients=4), 5)
