"""Extension — the consistency/durability frontier.

Per-request tunable consistency (docs/CONSISTENCY.md) exposes what the
paper's §IX only speculates about: the latency/throughput/energy
frontier between full synchronous replication and relaxed
acknowledgements, plus the measured crash-loss each level actually
risks.
"""

from repro.experiments.registry import tables
from repro.ramcloud.consistency import ASYNC_BOUNDED, EVENTUAL, SYNC_RF


def test_consistency_frontier(run_once, scale):
    table = run_once(tables, "frontier", scale, servers=4, clients=4)
    rows = {r.label: r.measured for r in table.rows}
    # Relaxing the ack point must not make the write path slower.
    assert (rows[f"{ASYNC_BOUNDED} throughput"]
            >= rows[f"{SYNC_RF} throughput"])
    assert (rows[f"{ASYNC_BOUNDED} mean latency"]
            <= rows[f"{SYNC_RF} mean latency"])
    assert (rows[f"{EVENTUAL} efficiency"]
            >= rows[f"{SYNC_RF} efficiency"])


def test_durability_gap_frontier(run_once, scale):
    table = run_once(tables, "durability-gap", scale)
    rows = {r.label: r.measured for r in table.rows}
    # The headline guarantee: a synchronous ack never lies.
    assert rows[f"{SYNC_RF} acked-write loss"] == 0.0
    # Relaxed levels acked everything too — loss, if any, is bounded
    # by what one staleness bound can hold in flight.
    for level in (ASYNC_BOUNDED, EVENTUAL):
        assert rows[f"{level} acked writes"] > 0
        assert (rows[f"{level} acked-write loss"]
                <= rows[f"{level} acked writes"] * 0.25)
