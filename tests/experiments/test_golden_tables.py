"""Golden tables: every experiment's rendered output pinned to a hash.

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
without ``REPRO_SIM_DEBUG=1``); the single-run probes (fig9, fig10,
fig12, elastic, correlated, energy, powercap, durability-gap) were
pinned at commit 028222f, before they became plans.
"""

import hashlib

import pytest

from repro.experiments.registry import EXPERIMENTS, tables
from repro.experiments.reporting import ComparisonTable
from tests.experiments.test_runners_smoke import TINY

T = TINY.with_(seeds=(1, 2))

GOLDEN_TABLES = {
    "fig1": (
        dict(server_counts=(1, 2), client_counts=(1, 4)),
        "f49d5ce7413be38167e7e3cfa6988f3d4275c7c07eeb0b8adbdb7e57b8ed4cae"),
    "table1": (
        dict(grid=((1, 0), (1, 1), (2, 4))),
        "03ca45ac6d0def5b6c273080b217a39aaf29f91d817d5e73ba6d2dff7a6fd649"),
    "fig2": (
        dict(server_counts=(1, 2), client_counts=(1, 4)),
        "5b4c9b38aff4bc3d7b1ba2084520f903869b1b562b302c84e67a5df8d82abd91"),
    "table2": (
        dict(client_counts=(2, 4), workload_names=("A", "C"), servers=2),
        "99132315a1d5ba727525a12d6dba96630f1ddaf389ec75652a93bbe8a55c1e6d"),
    "fig3": (
        dict(client_counts=(2, 4)),
        "e4054156ea1944f596e522004f08a0d5814a61d07a9e10e0f947370d93ce78af"),
    "fig4": (
        dict(client_counts=(2, 4), servers=2),
        "50b4c339afe93f122a2cf1ee561e4043814d317bb4d43e45be113e44c15d6a7c"),
    "fig5": (
        dict(client_counts=(4,), rfs=(1, 2), servers=4),
        "bebc24887c38ed76e21543a465a17f981ea0a668dc27e8d067759012da5fef0c"),
    "fig6": (
        dict(server_counts=(4, 6), rfs=(1, 2), clients=4),
        "f83b8e86b54d3fd7b11769e3ba5bca2f0688910f421e4bc3f3b42fcab1878a88"),
    "fig7": (
        dict(server_counts=(4,), rfs=(1, 2), clients=4),
        "6ab6a7a27aa7e575bfbcca2ef501cc2bd272124a21910fa43d433cc8f40f7bd7"),
    "fig8": (
        dict(server_counts=(4, 6), rfs=(1, 2), clients=4),
        "9506b302ff67431672575f5c4f8193eb42cffe0187b7b743a8ecf12f551877d1"),
    "fig9": (
        dict(),
        "8b1517b9c363df954d0f9c36e2e5fe58d70725d72af29a01e05ac90808193dd0"),
    "fig10": (
        dict(),
        "65358aad288baaacc6d6166a8af5c0e93d5f4b6ab81264108cc074beaaa6ad94"),
    "fig11": (
        dict(rfs=(1, 2), servers=4),
        "6c9b6706580de30eee061e1ede7e353489f2757b46031790f6f7e778ec2d6717"),
    "fig12": (
        dict(servers=4, rf=2),
        "f843cc951ac25b7184c8d329b6132ebdf0210bfa7c5807db91c39d6f446f7a22"),
    "fig13": (
        dict(rates=(200.0, 500.0), client_counts=(2, 4), servers=2, rf=1),
        "8bcf9364a8bc8a888eceb17e672b395768ca6a7792b520ebd048f35cee998471"),
    "worker-threads": (
        dict(worker_counts=(1, 3), servers=2, clients=4),
        "64aa259cd7bfdcea609cb1afde0ff471b2d9e63d7cfdbee56e0f1ec810be48ba"),
    "async-replication": (
        dict(rf=1, servers=3, clients=4),
        "c255dbbd65ba8d477b62b033080f2c57441a33f51a81a265e00492dcfd530468"),
    "segment-size": (
        dict(segment_mbs=(8, 32), servers=4, rf=1),
        "70896472ab487f7436a4a7448d72e4f6525a2d1580d266d766a77c8116435299"),
    "distributions": (
        dict(distributions=("uniform", "zipfian"), servers=2, clients=4),
        "9b21828a7fb82d98136ac84f606278c5de9ff5fa2560929c812f011ba614b272"),
    "transports": (
        dict(servers=2, clients=2),
        "c32a3055ff7007e1d2084ac27203a54500ac73cf133890c059444e6f2ae09228"),
    "scans": (
        dict(scan_lengths=(10, 100), servers=2, clients=2),
        "5f86bbfe2e40752447fbbe4d0e4cf886c4ddbf7dccb7706aae5b0a52ca2b34f5"),
    "elastic": (
        dict(),
        "fb4954f2842caf2c1e63cfe1c0fb681d37dd8119b797c5b7cb113ea7bff9cc25"),
    "correlated": (
        dict(rfs=(1, 2), simultaneous=2, servers=4, trials=2),
        "d7ffa55b1bfddfec806e358cef3b95702df3178ded9a664ab24ce47759a2eec1"),
    "energy": (
        dict(governors=("static", "poll-adaptive"), servers=2, clients=2,
             fractions=(0.5,)),
        "2bf314d35e09d2d449ba39d54496bde0b4eb702b4ae4eda345ce95ef7f5caccf"),
    "powercap": (
        dict(),
        "fc59475a3c4e1ac8f490ad0955e53992a3e73272993179dab9943aa295063112"),
    "frontier": (
        dict(rfs=(1,), servers=3, clients=2),
        "46b9c93c1a219d6967cc8cf7a39b009621c65a2d17817a45fcc203d7c4b3ec2e"),
    "durability-gap": (
        dict(),
        "9cec25cdcfee56f908bc1f9e1a67c94c9ab67ba7e987026e508e4c69d04167d8"),
    "fig_index": (
        dict(indexlet_counts=(1, 2), servers=2, clients=2),
        "0a4289c56be630a12be65b07dfddd370dba5e494948c48f41d95511fd52481a7"),
    "tenant_mix": (
        dict(servers=2, clients=2),
        "c6397932d70db5ce67f7dc0a2d51d024a048e57c10b43a823e215e746729932f"),
}


def rendered_digest(result) -> str:
    """sha256 over every table in ``result`` (one table or a tuple of
    them), console and markdown form."""
    rendered = result if isinstance(result, tuple) else (result,)
    assert rendered and all(isinstance(table, ComparisonTable)
                            for table in rendered)
    h = hashlib.sha256()
    for table in rendered:
        h.update(table.render().encode())
        h.update(b"\n")
        h.update(table.render_markdown().encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_experiment_is_pinned():
    assert set(GOLDEN_TABLES) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_rendered_tables_match_golden(name):
    grid, digest = GOLDEN_TABLES[name]
    assert rendered_digest(tables(name, T, **grid)) == digest
