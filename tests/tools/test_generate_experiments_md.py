"""tools/generate_experiments_md.py reads the one experiment registry:
EXPERIMENTS.md's sections are the registry's entries in its order,
``REPRO_SWEEP_WORKERS`` reaches every plan, not a hard-coded few, and a
paper claim that does not hold on the rendered tables fails the run."""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import generate_experiments_md as generator  # noqa: E402

from repro.experiments import registry  # noqa: E402
from repro.experiments.registry import EXPERIMENTS  # noqa: E402
from repro.experiments.reporting import (  # noqa: E402
    ComparisonTable, failed_claims)


def test_sections_follow_registry_order_and_workers_pass_through(
        tmp_path, monkeypatch):
    seen = {}

    def fake_run_experiments(names, scale, workers=0):
        seen["workers"] = workers
        for name in names:
            table = ComparisonTable(name, "stub")
            table.add("row", None, 1.0)
            yield name, [table], []

    monkeypatch.setattr(generator, "run_experiments", fake_run_experiments)
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    monkeypatch.chdir(tmp_path)
    assert generator.main() == 0
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


def _generate_with(check, tmp_path, monkeypatch):
    """Run the generator over one stub entry judged by ``check``."""
    def render(plan, merged):
        table = ComparisonTable("Stub", "stub")
        table.add("ops", None, merged["selftest"]["total_ops"].mean)
        return table

    def plan(scale):
        return registry.plan_for("_selftest", scale, seeds=(1,))

    monkeypatch.setitem(EXPERIMENTS, "stub",
                        registry.Experiment(plan, render, check))
    monkeypatch.setattr(generator, "EXPERIMENTS", ["stub"])
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.chdir(tmp_path)
    return generator.main()


def test_a_violated_claim_fails_the_run(tmp_path, monkeypatch, capsys):
    def check(tables, merged):
        ops = tables[0].measured_by_label()["ops"]
        return failed_claims({"ops > 0": ops > 0, "ops < 0": ops < 0})

    assert _generate_with(check, tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err == "claim does not hold: stub: ops < 0\n"
    # The file is written either way, so the failing table can be read.
    assert "### Stub: stub" in (tmp_path / "EXPERIMENTS.md").read_text()


def test_a_check_that_raises_fails(tmp_path, monkeypatch, capsys):
    def check(tables, merged):
        return failed_claims({"renamed": tables[0].measured_by_label()["x"]})

    assert _generate_with(check, tmp_path, monkeypatch) == 1
    assert "stub: check raised KeyError: 'x'" in capsys.readouterr().err


def test_all_claims_holding_exits_zero(tmp_path, monkeypatch, capsys):
    assert _generate_with(registry.no_claims, tmp_path, monkeypatch) == 0
    assert capsys.readouterr().err == ""
