"""Golden tables: every grid runner's rendered output pinned to a hash.

``test_runners_smoke.py`` proves the runners execute; the sweep tests
prove serial and parallel cells agree with *each other*.  Neither would
notice a refactor of the grid → cells → aggregates → table pipeline that
moves a number, drops a note or relabels a row.  This file pins the
rendered tables themselves — console and markdown form — at the smoke
tests' TINY scale with two seeds, so "identical tables" is a checked
claim for any change to how a figure is planned, executed or rendered.

A legitimate model change updates the literals in the same commit and
says why; a refactor of the experiment layer must leave them alone.

Values captured on CPython 3.11 at commit 1d753e0 (identical with and
without ``REPRO_SIM_DEBUG=1``).
"""

import hashlib

import pytest

from repro.experiments import (ablations, durability, extensions, indexing,
                               peak, recovery, replication, throttling,
                               workloads)
from repro.experiments.reporting import ComparisonTable
from tests.experiments.test_runners_smoke import TINY

T = TINY.with_(seeds=(1, 2))

GOLDEN_TABLES = {
    "fig1": (
        lambda: peak.run_fig1_peak(T, server_counts=(1, 2),
                                   client_counts=(1, 4)),
        "f49d5ce7413be38167e7e3cfa6988f3d4275c7c07eeb0b8adbdb7e57b8ed4cae"),
    "table1": (
        lambda: peak.run_table1_cpu(T, grid=((1, 0), (1, 1), (2, 4))),
        "03ca45ac6d0def5b6c273080b217a39aaf29f91d817d5e73ba6d2dff7a6fd649"),
    "fig2": (
        lambda: peak.run_fig2_efficiency(T, server_counts=(1, 2),
                                         client_counts=(1, 4)),
        "5b4c9b38aff4bc3d7b1ba2084520f903869b1b562b302c84e67a5df8d82abd91"),
    "table2": (
        lambda: workloads.run_table2_throughput(
            T, client_counts=(2, 4), workload_names=("A", "C"), servers=2),
        "99132315a1d5ba727525a12d6dba96630f1ddaf389ec75652a93bbe8a55c1e6d"),
    "fig3": (
        lambda: workloads.run_fig3_scalability(T, client_counts=(2, 4)),
        "e4054156ea1944f596e522004f08a0d5814a61d07a9e10e0f947370d93ce78af"),
    "fig4": (
        lambda: workloads.run_fig4_power(T, client_counts=(2, 4), servers=2),
        "50b4c339afe93f122a2cf1ee561e4043814d317bb4d43e45be113e44c15d6a7c"),
    "fig5": (
        lambda: replication.run_fig5_replication(
            T, client_counts=(4,), rfs=(1, 2), servers=4),
        "bebc24887c38ed76e21543a465a17f981ea0a668dc27e8d067759012da5fef0c"),
    "fig6": (
        lambda: replication.run_fig6_replication_scale(
            T, server_counts=(4, 6), rfs=(1, 2), clients=4),
        "f83b8e86b54d3fd7b11769e3ba5bca2f0688910f421e4bc3f3b42fcab1878a88"),
    "fig7": (
        lambda: replication.run_fig7_power_rf(T, rfs=(1, 2), servers=4,
                                              clients=4),
        "6ab6a7a27aa7e575bfbcca2ef501cc2bd272124a21910fa43d433cc8f40f7bd7"),
    "fig8": (
        lambda: replication.run_fig8_efficiency_rf(
            T, server_counts=(4, 6), rfs=(1, 2), clients=4),
        "9506b302ff67431672575f5c4f8193eb42cffe0187b7b743a8ecf12f551877d1"),
    "fig11": (
        lambda: recovery.run_fig11_recovery_rf(T, rfs=(1, 2), servers=4),
        "6c9b6706580de30eee061e1ede7e353489f2757b46031790f6f7e778ec2d6717"),
    "fig13": (
        lambda: throttling.run_fig13_throttling(
            T, rates=(200.0, 500.0), client_counts=(2, 4), servers=2, rf=1),
        "8bcf9364a8bc8a888eceb17e672b395768ca6a7792b520ebd048f35cee998471"),
    "worker-threads": (
        lambda: ablations.run_worker_threads_ablation(
            T, worker_counts=(1, 3), servers=2, clients=4),
        "64aa259cd7bfdcea609cb1afde0ff471b2d9e63d7cfdbee56e0f1ec810be48ba"),
    "async-replication": (
        lambda: ablations.run_async_replication_ablation(
            T, rf=1, servers=3, clients=4),
        "c255dbbd65ba8d477b62b033080f2c57441a33f51a81a265e00492dcfd530468"),
    "segment-size": (
        lambda: ablations.run_segment_size_ablation(
            T, segment_mbs=(8, 32), servers=4, rf=1),
        "70896472ab487f7436a4a7448d72e4f6525a2d1580d266d766a77c8116435299"),
    "distributions": (
        lambda: extensions.run_request_distribution_extension(
            T, distributions=("uniform", "zipfian"), servers=2, clients=4),
        "9b21828a7fb82d98136ac84f606278c5de9ff5fa2560929c812f011ba614b272"),
    "transports": (
        lambda: extensions.run_transport_extension(T, servers=2, clients=2),
        "c32a3055ff7007e1d2084ac27203a54500ac73cf133890c059444e6f2ae09228"),
    "scans": (
        lambda: extensions.run_scan_extension(
            T, scan_lengths=(10, 100), servers=2, clients=2),
        "5f86bbfe2e40752447fbbe4d0e4cf886c4ddbf7dccb7706aae5b0a52ca2b34f5"),
    "frontier": (
        lambda: durability.run_consistency_frontier(
            T, rf=1, servers=3, clients=2),
        "46b9c93c1a219d6967cc8cf7a39b009621c65a2d17817a45fcc203d7c4b3ec2e"),
    "fig_index": (
        lambda: indexing.run_fig_index(T, indexlet_counts=(1, 2),
                                       servers=2, clients=2),
        "0a4289c56be630a12be65b07dfddd370dba5e494948c48f41d95511fd52481a7"),
    "tenant_mix": (
        lambda: indexing.run_tenant_mix(T, servers=2, clients=2),
        "c6397932d70db5ce67f7dc0a2d51d024a048e57c10b43a823e215e746729932f"),
}


def rendered_digest(result) -> str:
    """sha256 over every table in ``result`` (one table, or a tuple that
    may also carry non-table payloads), console and markdown form."""
    tables = [item for item in
              (result if isinstance(result, tuple) else (result,))
              if isinstance(item, ComparisonTable)]
    assert tables
    h = hashlib.sha256()
    for table in tables:
        h.update(table.render().encode())
        h.update(b"\n")
        h.update(table.render_markdown().encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_rendered_tables_match_golden(name):
    runner, digest = GOLDEN_TABLES[name]
    assert rendered_digest(runner()) == digest
