"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.experiments import energy_proportionality
from repro.experiments.registry import EXPERIMENTS, Experiment, plan_for
from repro.experiments.reporting import ComparisonTable

POWER_PROBES = {
    "energy": (energy_proportionality.energy_sweep_plan,
               energy_proportionality.render_energy),
    "powercap": (energy_proportionality.powercap_sweep_plan,
                 energy_proportionality.render_powercap),
}


class TestCli:
    def test_list_covers_every_paper_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        for fig in ("fig1", "table1", "fig2", "table2", "fig3", "fig4",
                    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                    "fig11", "fig12", "fig13"):
            assert fig in out
        # One list: the CLI prints the registry, in the registry's order.
        assert out == list(EXPERIMENTS)

    def test_findings(self, capsys):
        assert main(["findings"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 6

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_registry_entries_are_callable(self):
        assert len(EXPERIMENTS) >= 20
        for name, entry in EXPERIMENTS.items():
            assert callable(entry.plan) and callable(entry.render), name

    def test_run_one_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["run", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out
        assert "rate 200/s" in out

    # energy / powercap / frontier / durability-gap had EXPERIMENTS.md
    # sections but no CLI name before the registry: only their modules'
    # own main() blocks ran them.

    @pytest.mark.parametrize("name", ["frontier", "durability-gap"])
    def test_extension_tables_run_from_the_cli(self, name, capsys,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["run", name]) == 0
        out = capsys.readouterr().out
        assert f"== {name} at scale smoke ==" in out
        assert "sync_rf" in out

    @pytest.mark.parametrize("name", sorted(POWER_PROBES))
    def test_power_probes_dispatch_from_the_cli(self, name, capsys,
                                                monkeypatch):
        # The real runs take ~25 s each even at smoke scale (and their
        # claims are checked where tools/generate_experiments_md.py
        # renders them at DEFAULT), so check the wiring: the name
        # reaches its plan/render pair, and whatever that pair renders
        # is what prints.
        assert (EXPERIMENTS[name].plan,
                EXPERIMENTS[name].render) == POWER_PROBES[name]
        table = ComparisonTable("stub", name)
        table.add("row", None, 1.0)
        rendered = []

        def render(plan, merged):
            rendered.append((plan.experiment, sorted(merged)))
            return table

        monkeypatch.setitem(EXPERIMENTS, name, Experiment(
            plan=lambda scale, seeds=None: plan_for("_selftest", scale,
                                                    seeds=(1,)),
            render=render))
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["run", name]) == 0
        assert rendered == [("_selftest", ["selftest"])]
        assert table.render() in capsys.readouterr().out
