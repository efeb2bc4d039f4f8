"""§X extensions — the paper's named future work, implemented.

Request-distribution sensitivity (uniform vs zipfian vs latest) and the
Infiniband-vs-Ethernet transport comparison.
"""

from repro.experiments.registry import tables


def test_ext_request_distributions(run_once, scale):
    table = run_once(tables, "distributions", scale)
    kops = {r.label: r.measured for r in table.rows}
    # Read-only at saturation: skew imbalances load, uniform wins.
    assert kops["workload C / zipfian"] <= kops["workload C / uniform"] * 1.02
    # Read-heavy: all three distributions produce sane throughput.
    for dist in ("uniform", "zipfian", "latest"):
        assert kops[f"workload B / {dist}"] > 0


def test_ext_transport_comparison(run_once, scale):
    table = run_once(tables, "transports", scale)
    kops = {r.label: r.measured for r in table.rows}
    # Infiniband's 2 µs one-way latency clearly beats Ethernet's 30 µs
    # in a closed loop.
    assert kops["infiniband-20g"] > 1.3 * kops["gigabit-ethernet"]
