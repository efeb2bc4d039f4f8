"""Unit tests for crash-runner helpers and its validation paths."""

from array import array

import pytest

from repro.cluster import ClusterSpec, CrashExperimentSpec, run_crash_experiment
from repro.cluster.crash import _PinnedKeyChooser
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_C


def small_crash_spec(**overrides):
    defaults = dict(
        cluster=ClusterSpec(
            num_servers=4, num_clients=0,
            server_config=ServerConfig(log_memory_bytes=64 * MB,
                                       segment_size=1 * MB,
                                       replication_factor=1)),
        num_records=2000,
        record_size=1024,
        kill_at=2.0,
        run_until=60.0,
        sample_interval=0.25,
    )
    defaults.update(overrides)
    return CrashExperimentSpec(**defaults)


class TestPinnedKeyChooser:
    def test_cycles_over_keys(self):
        chooser = _PinnedKeyChooser(array("l", [7, 3]))
        assert [chooser.next_key() for _ in range(5)] == \
            ["user7", "user3", "user7", "user3", "user7"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _PinnedKeyChooser([])


class TestValidation:
    def test_split_clients_requires_victim_index(self):
        spec = small_crash_spec(
            cluster=ClusterSpec(
                num_servers=4, num_clients=2,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            split_clients_by_victim=True,
            foreground=WORKLOAD_C.scaled(num_records=2000,
                                         ops_per_client=10).throttled(100.0),
        )
        with pytest.raises(ValueError, match="victim_index"):
            run_crash_experiment(spec)

    def test_split_clients_requires_two_clients(self):
        spec = small_crash_spec(
            cluster=ClusterSpec(
                num_servers=4, num_clients=1,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            victim_index=0,
            split_clients_by_victim=True,
            foreground=WORKLOAD_C.scaled(num_records=2000,
                                         ops_per_client=10).throttled(100.0),
        )
        with pytest.raises(ValueError, match="clients"):
            run_crash_experiment(spec)


class TestEarlyStop:
    def test_run_ends_soon_after_recovery(self):
        """The runner must not burn simulated hours after the recovery
        completed (run_until is a cap, not a target)."""
        spec = small_crash_spec(run_until=10_000.0)
        result = run_crash_experiment(spec)
        recovery_end = result.recovery.finished_at
        last_sample = result.cluster_cpu.times[-1]
        assert last_sample < recovery_end + 20.0

    def test_energy_accessors_require_recovery(self):
        from repro.cluster import CrashExperimentResult
        empty = CrashExperimentResult(spec=small_crash_spec())
        with pytest.raises(ValueError):
            empty.avg_power_during_recovery()
        with pytest.raises(ValueError):
            empty.energy_per_node_during_recovery()

    def test_recovery_between_two_power_samples(self):
        """A recovery shorter than the PDU interval has no sample inside
        its window: each survivor's next reading (which averages the
        interval holding the recovery) stands in for it."""
        from repro.cluster import CrashExperimentResult
        from repro.ramcloud.coordinator import RecoveryStats
        from repro.sim import TimeSeries
        result = CrashExperimentResult(
            spec=small_crash_spec(), crashed_server="server2",
            recovery=RecoveryStats("server2", detected_at=5.1,
                                   started_at=5.2, finished_at=5.6))
        for name, watts in (("server0", 90.0), ("server1", 100.0),
                            ("server2", 60.0)):
            series = TimeSeries(name)
            series.record(5.0, 80.0)
            series.record(6.0, watts)
            result.per_node_power[name] = series
        assert result.avg_power_during_recovery() == 95.0
        assert result.energy_per_node_during_recovery() == pytest.approx(
            95.0 * 0.4)
        for series in result.per_node_power.values():
            series.times.pop()
            series.values.pop()
        with pytest.raises(ValueError, match=r"\[5\.2, 5\.6\]"):
            result.avg_power_during_recovery()
