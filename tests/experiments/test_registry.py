"""The experiment registry runs each shared grid once: figures that
name the same plan factory render from one report."""

from collections import Counter

import pytest

from repro.experiments.peak import run_fig2_efficiency
from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.experiments.scale import SMOKE

# Default grids (up to 40 servers / 60 clients), so: very few ops.
MICRO = SMOKE.with_(num_records=200, ops_per_client=10, seeds=(1,))


@pytest.mark.parametrize("names", [("fig1", "fig2"),
                                   ("fig6", "fig7", "fig8")])
def test_figures_sharing_a_plan_run_each_cell_once(names):
    cells = Counter()
    rendered = dict(run_experiments(
        names, MICRO, on_cell=lambda result: cells.update([result.cell.key])))
    assert list(rendered) == list(names)
    assert all(tables for tables in rendered.values())
    plan = EXPERIMENTS[names[0]].plan(MICRO)
    assert cells == Counter(cell.key for cell in plan.cells())


def test_registry_rendering_equals_the_public_runner():
    (_name, (table,)), = run_experiments(["fig2"], MICRO)
    assert table.render() == run_fig2_efficiency(MICRO).render()
