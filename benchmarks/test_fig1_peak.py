"""Fig. 1a/1b — read-only peak throughput and per-server power (§IV).

Regenerates the aggregated throughput and average power per server for
1/5/10 RAMCloud servers under 1/10/30 read-only clients, replication
disabled, as in the paper's peak-performance methodology (§IV-A).
"""

from repro.experiments.registry import tables


def test_fig1_peak_throughput_and_power(run_once, scale):
    throughput, power = run_once(tables, "fig1", scale)

    # Shape assertions (who wins, where it saturates):
    by_label = {r.label: r.measured for r in throughput.rows}
    # A single server saturates around the paper's 372 Kop/s.
    single_30 = by_label["1 servers / 30 clients"]
    assert 250 <= single_30 <= 500
    # 5 servers beat 1 server at 30 clients...
    assert by_label["5 servers / 30 clients"] > single_30 * 1.3
    # ...but 10 servers bring no further improvement (client-limited).
    assert (by_label["10 servers / 30 clients"]
            <= by_label["5 servers / 30 clients"] * 1.1)

    watts = {r.label: r.measured for r in power.rows}
    # Non-proportionality: power is flat-ish across very different
    # throughputs at the same client count.
    assert abs(watts["1 servers / 1 clients"] - 92.0) < 6.0
    assert watts["1 servers / 30 clients"] > watts["1 servers / 1 clients"]
