"""Unit tests for server configuration and the calibrated cost model."""

import pytest

from repro.hardware.specs import GB, MB
from repro.ramcloud.config import CostModel, ServerConfig


class TestServerConfig:
    def test_paper_defaults(self):
        config = ServerConfig()
        assert config.log_memory_bytes == 10 * GB  # §III-B
        assert config.segment_size == 8 * MB  # §II-B

    def test_total_segments(self):
        config = ServerConfig(log_memory_bytes=80 * MB, segment_size=8 * MB)
        assert config.total_segments == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(log_memory_bytes=1 * MB, segment_size=8 * MB)
        with pytest.raises(ValueError):
            ServerConfig(segment_size=1024)
        with pytest.raises(ValueError):
            ServerConfig(replication_factor=-1)
        with pytest.raises(ValueError):
            ServerConfig(worker_threads=0)
        with pytest.raises(ValueError):
            ServerConfig(cleaner_threshold=0.5, cleaner_low_watermark=0.6)

    def test_replication_disabled_is_valid(self):
        assert ServerConfig(replication_factor=0).replication_factor == 0


class TestCostModel:
    def test_write_crit_uncontended_is_base(self):
        cost = CostModel()
        assert cost.write_crit(1) == pytest.approx(cost.write_crit_base)

    def test_write_crit_grows_with_writers(self):
        cost = CostModel()
        values = [cost.write_crit(w) for w in (1, 2, 3, 4)]
        assert values == sorted(values)
        assert values[-1] > 3 * values[0]

    def test_write_crit_reader_term_is_milder(self):
        cost = CostModel()
        with_writer = cost.write_crit(2, 0)
        with_reader = cost.write_crit(1, 1)
        assert with_reader < with_writer

    def test_write_crit_queue_term_capped(self):
        cost = CostModel()
        at_cap = cost.write_crit(1, 0, queued=cost.write_crit_queue_cap)
        beyond = cost.write_crit(1, 0, queued=cost.write_crit_queue_cap + 50)
        assert at_cap == beyond

    def test_table1_anchor_single_writer(self):
        """crit(1 writer) ≈ 98 µs: reproduces workload A's 98 Kop/s at
        10 clients (DESIGN.md §4)."""
        cost = CostModel()
        assert 50e-6 <= cost.write_crit(1) <= 120e-6

    def test_table2_anchor_saturated(self):
        """crit(3 writers) ≈ 312 µs: reproduces the ≈64 Kop/s plateau."""
        cost = CostModel()
        assert 250e-6 <= cost.write_crit(3) <= 400e-6

    def test_replication_cost_grows_then_caps(self):
        cost = CostModel()
        assert cost.replication_cost(0) == pytest.approx(
            cost.replication_service)
        grown = [cost.replication_cost(i) for i in range(10)]
        assert grown == sorted(grown)
        assert (cost.replication_cost(cost.replication_contention_cap)
                == cost.replication_cost(cost.replication_contention_cap + 5))

    def test_read_is_much_cheaper_than_write(self):
        cost = CostModel()
        assert cost.read_service * 5 < cost.write_crit(1)
