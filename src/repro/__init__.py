"""repro — a reproduction of *Characterizing Performance and
Energy-Efficiency of the RAMCloud Storage System* (ICDCS 2017).

The package contains a from-scratch RAMCloud implementation running on
a simulated, power-metered cluster, a YCSB-compatible workload
substrate, and experiment runners that regenerate every table and
figure of the paper's evaluation.

Quick tour
----------
>>> from repro import Cluster, ClusterSpec, ServerConfig
>>> cluster = Cluster(ClusterSpec(num_servers=5, num_clients=2,
...                               server_config=ServerConfig(
...                                   replication_factor=3)))
>>> table_id = cluster.create_table("accounts")

Layers (bottom-up):

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.hardware` — 4-core nodes, HDDs, NICs, the calibrated
  power model and per-node PDUs;
* :mod:`repro.net` — message fabric and RPC;
* :mod:`repro.ramcloud` — coordinator, log-structured masters,
  collocated backups, replication, crash recovery, client library;
* :mod:`repro.ycsb` — workloads A–F, key distributions, closed-loop
  clients;
* :mod:`repro.cluster` — deployments and experiment harnesses;
* :mod:`repro.experiments` — the paper's tables/figures as runnable
  comparisons.
"""

from repro.cluster import (
    Cluster,
    ClusterSpec,
    CrashExperimentSpec,
    ExperimentSpec,
    repeat_experiment,
    run_crash_experiment,
    run_experiment,
)
from repro.experiments.reporting import (
    ascii_chart,
    crash_timeline_report,
    energy_proportionality_index,
)
from repro.ramcloud import (
    CostModel,
    RamCloudClient,
    ServerConfig,
)
from repro.ycsb import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WorkloadSpec,
    YcsbClient,
)

__version__ = "1.0.0"

__all__ = [
    "ascii_chart",
    "crash_timeline_report",
    "energy_proportionality_index",
    "Cluster",
    "ClusterSpec",
    "CostModel",
    "CrashExperimentSpec",
    "ExperimentSpec",
    "RamCloudClient",
    "ServerConfig",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WorkloadSpec",
    "YcsbClient",
    "repeat_experiment",
    "run_crash_experiment",
    "run_experiment",
    "__version__",
]
