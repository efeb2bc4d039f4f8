"""Fig. 2 — energy efficiency of the read-only grid (§IV).

Finding 1's energy half: efficiency is highest with a single server and
many clients; adding servers without adding load wastes joules (the
paper measures a 7.6x gap between 1 and 10 servers at 30 clients).
"""

from repro.experiments.registry import tables


def test_fig2_energy_efficiency(run_once, scale):
    table = run_once(tables, "fig2", scale)
    eff = {r.label: r.measured for r in table.rows}

    # Efficiency rises with load for a fixed cluster...
    assert (eff["1 servers / 30 clients"] > eff["1 servers / 10 clients"]
            > eff["1 servers / 1 clients"])
    # ...and falls as servers are added at fixed load.
    assert (eff["1 servers / 30 clients"] > eff["5 servers / 30 clients"]
            > eff["10 servers / 30 clients"])
    # The paper's 7.6x headline ratio, loosely.
    ratio = eff["1 servers / 30 clients"] / eff["10 servers / 30 clients"]
    assert 2.0 < ratio < 20.0
