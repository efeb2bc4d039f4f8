"""tools/generate_experiments_md.py reads the one experiment registry:
EXPERIMENTS.md's sections are the registry's entries in its order, and
``REPRO_SWEEP_WORKERS`` reaches every plan, not a hard-coded few."""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import generate_experiments_md as generator  # noqa: E402

from repro.experiments.registry import EXPERIMENTS  # noqa: E402
from repro.experiments.reporting import ComparisonTable  # noqa: E402


def test_sections_follow_registry_order_and_workers_pass_through(
        tmp_path, monkeypatch):
    seen = {}

    def fake_run_experiments(names, scale, workers=0):
        seen["workers"] = workers
        for name in names:
            table = ComparisonTable(name, "stub")
            table.add("row", None, 1.0)
            yield name, [table]

    monkeypatch.setattr(generator, "run_experiments", fake_run_experiments)
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    monkeypatch.chdir(tmp_path)
    generator.main()
    text = (tmp_path / "EXPERIMENTS.md").read_text()
    assert re.findall(r"^### (\S+): stub$", text, re.M) == list(EXPERIMENTS)
    assert seen["workers"] == 3
    assert "at scale `smoke`" in text


def test_header_depends_only_on_the_scale():
    # Regenerating at the same scale from the same code must give the
    # same header: no wall-clock date or other unchecked field.
    from repro.experiments.scale import SMOKE
    header = generator.HEADER.format(
        scale=SMOKE.name, records=SMOKE.num_records,
        ops=SMOKE.ops_per_client, seeds=len(SMOKE.seeds),
        recovery_mb=SMOKE.recovery_bytes_per_server // (1024 * 1024),
        record_kb=SMOKE.recovery_record_size // 1024)
    assert "at scale `smoke`." in header
