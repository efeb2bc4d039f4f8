"""The four benchmark cells (workloads) and how each is built from a seed.

Every cell is a paper configuration driven through the public entry
points (``run_experiment`` / ``run_crash_experiment``).  Cluster shapes
are the paper's; only the op counts (and MB/server for the crash cell)
are scaled so one repetition costs one to three host seconds — the
full sizes in ISSUE 11 times ``BASE_SCALE``.  ``ops_scale`` multiplies
the op counts again; only the benchmark's own tests pass a value below
1.  Why each cell is here is recorded in ``BENCHMARK.json`` (``why``)
and at length in ``bench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.cluster import ClusterSpec, CrashExperimentSpec, ExperimentSpec
from repro.experiments.peak import PAPER_FIG1A_KOPS
from repro.experiments.replication import PAPER_FIG5_KOPS
from repro.experiments.workloads import PAPER_TABLE2_KOPS
from repro.ramcloud.config import ServerConfig
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C, WorkloadSpec

__all__ = ["Cell", "CELLS", "BASE_SCALE"]

# Fraction of ISSUE 11's full sizes (2,000 / 2,000 / 1,000 ops per
# client, 256 MB/server) that fits the driver's budget: 92 runs inside
# 3,420 s, each run repeating its cell nine times (see
# bench.measure.SEEDS_PER_RUN).
BASE_SCALE = 0.2

NUM_RECORDS = 20_000
YCSB_CLIENTS = 30
CRASH_RECORD_SIZE = 8 * 1024
CRASH_KILL_AT = 5.0

Spec = Union[ExperimentSpec, CrashExperimentSpec]


@dataclass(frozen=True)
class Cell:
    """One benchmark workload."""

    name: str
    build: Callable[[int, float], Spec]
    # Paper throughput this cell is compared with (Kop/s), or None when
    # the repo holds no reference for it.
    paper_kops: Optional[float] = None
    # True when ``build`` returns a CrashExperimentSpec.
    is_crash: bool = False


def _ycsb(workload: WorkloadSpec, servers: int, rf: int, full_ops: int,
          give_up_after: Optional[float] = None):
    def build(seed: int, ops_scale: float) -> ExperimentSpec:
        ops = max(1, round(full_ops * BASE_SCALE * ops_scale))
        return ExperimentSpec(
            cluster=ClusterSpec(
                num_servers=servers, num_clients=YCSB_CLIENTS, seed=seed,
                server_config=ServerConfig(replication_factor=rf)),
            workload=workload.scaled(num_records=NUM_RECORDS,
                                     ops_per_client=ops),
            give_up_after=give_up_after)
    return build


def _crash(seed: int, ops_scale: float,
           run_until: float = 335.0) -> CrashExperimentSpec:
    bytes_per_server = int(256 * 1024 * 1024 * BASE_SCALE * ops_scale)
    servers = 9
    num_records = bytes_per_server * servers // CRASH_RECORD_SIZE
    # Throttled probes, as in Fig. 10: the latency trace needs samples,
    # not load.  The op budget is unreachable; clients run to the end.
    foreground = WORKLOAD_C.scaled(
        num_records=num_records, ops_per_client=10_000_000,
        record_size=CRASH_RECORD_SIZE).throttled(1000.0 * ops_scale)
    return CrashExperimentSpec(
        cluster=ClusterSpec(
            num_servers=servers, num_clients=2, seed=seed,
            server_config=ServerConfig(replication_factor=3)),
        num_records=num_records, record_size=CRASH_RECORD_SIZE,
        kill_at=CRASH_KILL_AT, run_until=run_until, victim_index=3,
        # The paper's 1 Hz PDU would put two samples inside the scaled
        # dataset's ~2 s recovery window.
        sample_interval=0.05,
        foreground=foreground, split_clients_by_victim=True)


CELLS = (
    # Fig. 1 / Table II: the pure read path.
    Cell("read_c", _ycsb(WORKLOAD_C, servers=10, rf=0, full_ops=2000),
         paper_kops=PAPER_FIG1A_KOPS[(10, 30)]),
    # Fig. 4a: half the ops take the log lock and append.
    Cell("update_a_rf0", _ycsb(WORKLOAD_A, servers=20, rf=0, full_ops=2000),
         paper_kops=PAPER_TABLE2_KOPS[("A", 30)]),
    # Fig. 5: the same plus three synchronous replicate_append per update.
    Cell("update_a_rf3", _ycsb(WORKLOAD_A, servers=20, rf=3, full_ops=1000,
                               give_up_after=5.0),
         paper_kops=PAPER_FIG5_KOPS[(30, 3)]),
    # Fig. 10/11: crash, recovery from backup disks, repair.
    Cell("recover_rf3", _crash, is_crash=True),
)
