"""Fig. 3 — scalability factor vs a 10-client baseline (§V).

Read-only tracks the perfect-scalability line, read-heavy flattens,
update-heavy stays at factor ≈1 (or below) at every client count.
"""

from repro.experiments.registry import tables


def test_fig3_scalability_factors(run_once, scale):
    table = run_once(tables, "fig3", scale)
    factors = {r.label: r.measured for r in table.rows}

    # Read-only at 90 clients is close to the perfect 9x.
    assert factors["workload C / 90 clients"] > 6.0
    # Read-heavy flattens well below perfect.
    assert factors["workload B / 90 clients"] < 0.7 * 9.0
    # Update-heavy never scales.
    assert factors["workload A / 90 clients"] < 2.0
    # Ordering at every measured point: C >= B >= A.
    for clients in (20, 30, 60, 90):
        assert (factors[f"workload C / {clients} clients"]
                >= factors[f"workload B / {clients} clients"]
                >= factors[f"workload A / {clients} clients"] * 0.95)
