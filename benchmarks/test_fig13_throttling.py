"""Fig. 13 — client-side request throttling (§IX).

Rate-limited clients (200 and 500 req/s) against 10 servers at RF 2:
aggregated throughput grows linearly with the client count because the
cluster is never pushed into the timeout regime.
"""

from repro.experiments.registry import tables


def test_fig13_throttled_linear_scaling(run_once, scale):
    table = run_once(tables, "fig13", scale)
    ops = {r.label: r.measured for r in table.rows}

    for rate in (200, 500):
        series = [ops[f"rate {rate}/s / {c} clients"] for c in (10, 30, 60)]
        # Linear in the client count (±15 %).
        assert series[1] > 2.5 * series[0]
        assert series[2] > 1.7 * series[1]
        # And pinned to the configured rate.
        assert abs(series[0] - rate * 10) < 0.15 * rate * 10
    # 500 req/s clients deliver 2.5x the 200 req/s clients.
    assert (ops["rate 500/s / 60 clients"]
            > 2.0 * ops["rate 200/s / 60 clients"])
