"""Unit tests for ASCII charts and report builders."""

import pytest

from repro.experiments.reporting import (
    _bucketize,
    ascii_chart,
    ascii_multi_chart,
    cpu_usage_table,
    energy_proportionality_index,
)


class TestBucketize:
    def test_averages_into_buckets(self):
        series = [(0.0, 10.0), (0.4, 20.0), (9.9, 50.0)]
        buckets = _bucketize(series, 0.0, 10.0, 10)
        assert buckets[0] == pytest.approx(15.0)
        assert buckets[9] == pytest.approx(50.0)
        assert buckets[5] is None

    def test_out_of_range_ignored(self):
        buckets = _bucketize([(100.0, 1.0)], 0.0, 10.0, 5)
        assert all(b is None for b in buckets)


class TestAsciiChart:
    def test_renders_title_axes_and_data(self):
        series = [(float(t), float(t) ** 2) for t in range(20)]
        text = ascii_chart(series, title="squares", width=40, height=8,
                           x_label="seconds")
        assert "squares" in text
        assert "(seconds)" in text
        assert "*" in text
        assert "361" in text  # y max = 19^2

    def test_flat_series_does_not_crash(self):
        text = ascii_chart([(0.0, 5.0), (1.0, 5.0)], width=10, height=4)
        assert "*" in text

    def test_multi_chart_legend_and_marks(self):
        text = ascii_multi_chart(
            {"read": [(0.0, 1.0), (1.0, 2.0)],
             "write": [(0.0, 3.0), (1.0, 4.0)]},
            width=20, height=6)
        assert "* read" in text
        assert "o write" in text
        assert "o" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_multi_chart({})
        with pytest.raises(ValueError):
            ascii_chart([])


class TestCpuUsageTable:
    def test_min_avg_max_per_row(self):
        text = cpu_usage_table({
            "1 server / 1 client": {"s0": 49.8},
            "5 servers / 30 clients": {"s0": 96.8, "s1": 97.2, "s2": 97.0},
        })
        assert "49.8%" in text
        assert "96.8%" in text and "97.2%" in text
        assert "configuration" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            cpu_usage_table({})
        with pytest.raises(ValueError):
            cpu_usage_table({"x": {}})


class TestEnergyProportionality:
    def test_flat_power_scores_near_zero(self):
        """Finding 1: RAMCloud's power curve is nearly flat."""
        epi = energy_proportionality_index([0, 50, 100], [92, 95, 96])
        assert epi < 0.1

    def test_proportional_power_scores_high(self):
        epi = energy_proportionality_index([0, 50, 100], [5, 50, 100])
        assert epi > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_proportionality_index([1], [2])
        with pytest.raises(ValueError):
            energy_proportionality_index([0, 1], [0, 0])


class TestCrashTimelineReport:
    def test_report_renders_from_real_run(self):
        from repro.experiments.reporting import crash_timeline_report
        from repro.cluster import ClusterSpec, CrashExperimentSpec, \
            run_crash_experiment
        from repro.hardware.specs import MB
        from repro.ramcloud.config import ServerConfig
        spec = CrashExperimentSpec(
            cluster=ClusterSpec(
                num_servers=4, num_clients=0,
                server_config=ServerConfig(log_memory_bytes=64 * MB,
                                           segment_size=1 * MB,
                                           replication_factor=1)),
            num_records=4000, record_size=2048,
            kill_at=3.0, run_until=60.0, sample_interval=0.2,
        )
        result = run_crash_experiment(spec)
        report = crash_timeline_report(result)
        assert "Fig. 9a" in report
        assert "Fig. 9b" in report
        assert "Fig. 12" in report
        assert "recovered" in report
