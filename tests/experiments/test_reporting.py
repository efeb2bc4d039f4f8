"""Unit tests for comparison tables and experiment scaling."""

import pytest

from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, FULL, SMOKE, Scale, active_scale


class TestComparisonTable:
    def make_table(self):
        table = ComparisonTable("Fig. X", "a test table")
        table.add("first", 100.0, 90.0, "K")
        table.add("missing paper", None, 42.0)
        table.add("missing measured", 7.0, None)
        table.note("a note")
        return table

    def test_ratio(self):
        table = self.make_table()
        assert table.rows[0].ratio == pytest.approx(0.9)
        assert table.rows[1].ratio is None
        assert table.rows[2].ratio is None

    def test_render_contains_everything(self):
        text = self.make_table().render()
        assert "Fig. X" in text
        assert "first" in text
        assert "0.90" in text
        assert "a note" in text
        assert "—" in text  # missing values

    def test_render_markdown(self):
        md = self.make_table().render_markdown()
        assert md.startswith("### Fig. X")
        assert "| first |" in md
        assert md.count("|") >= 16

    def test_series_extraction(self):
        assert self.make_table().measured_by_label() == {
            "first": 90.0, "missing paper": 42.0, "missing measured": None}

    def test_value_formatting_breakpoints(self):
        from repro.experiments.reporting import _fmt
        assert _fmt(None, "K") == "—"
        assert _fmt(1234.5, "K") == "1,234K"  # banker's rounding on .5
        assert _fmt(42.25, "W") == "42.2W"
        assert _fmt(3.14159, "x") == "3.14x"
        assert _fmt(0.0, " s") == "0.00 s"


class TestScale:
    def test_presets_ordered(self):
        assert SMOKE.num_records < DEFAULT.num_records <= FULL.num_records
        assert SMOKE.ops_per_client < FULL.ops_per_client
        assert len(SMOKE.seeds) <= len(FULL.seeds)

    def test_with_override(self):
        scaled = DEFAULT.with_(num_records=7)
        assert scaled.num_records == 7
        assert DEFAULT.num_records != 7

    def test_active_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert active_scale() is SMOKE
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert active_scale() is FULL
        monkeypatch.delenv("REPRO_SCALE")
        assert active_scale() is DEFAULT

    def test_active_scale_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ValueError):
            active_scale()

    def test_recovery_sizes_paper_anchored(self):
        # DEFAULT reproduces the paper's ~1.085 GB per server.
        assert DEFAULT.recovery_bytes_per_server == 1085 * 1024 * 1024
