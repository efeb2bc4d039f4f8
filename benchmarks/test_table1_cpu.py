"""Table I — per-node CPU usage under the read-only grid (§IV).

The signature observations: an idle server already burns 25 % CPU (the
pinned dispatch core), each client pins roughly one more worker core,
and servers reach their maximum CPU usage before reaching peak
throughput (the root of Finding 1's non-proportionality).
"""

from repro.experiments.registry import tables


def test_table1_cpu_usage(run_once, scale):
    table = run_once(tables, "table1", scale)
    cpu = {r.label: r.measured for r in table.rows}

    # Idle = exactly the pinned polling core.
    assert abs(cpu["1 servers / 0 clients"] - 25.0) < 1.0
    # One client ≈ dispatch + one hot worker ≈ 50 %.
    assert abs(cpu["1 servers / 1 clients"] - 50.0) < 5.0
    # Saturation by 10 clients.
    assert cpu["1 servers / 10 clients"] > 90.0
    assert cpu["1 servers / 30 clients"] > 95.0
    # More servers at the same client count: same or lower per-node CPU
    # (the paper's small min–max spread across nodes).
    assert cpu["10 servers / 30 clients"] <= cpu["1 servers / 30 clients"]
