"""§IX — design-choice ablations the paper discusses.

* **Segment size** (§IX "Faster data reconstruction?"): tuning the
  segment size from 1 to 32 MB; the paper finds 8 MB (RAMCloud's
  hard-coded value) gives the best recovery time on their HDD machines.
* **Worker threads** (§IX "Adapting the degree of concurrency?"):
  "Sometimes having more threads than needed can lead to useless
  context switching" — update-heavy suffers with more workers while
  read-only benefits.
* **Relaxed consistency** (§IX "Tuning the consistency-level?"):
  answering the client without waiting for backup acknowledgements.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster import (
    ClusterSpec,
    CrashExperimentSpec,
    ExperimentSpec,
    repeat_experiment,
    run_crash_experiment,
)
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.ramcloud.consistency import ASYNC_BOUNDED, SYNC_RF
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C

__all__ = ["run_segment_size_ablation", "run_worker_threads_ablation",
           "run_async_replication_ablation"]


def run_segment_size_ablation(scale: Scale = DEFAULT,
                              segment_mbs: Sequence[int] = (1, 2, 8, 32),
                              servers: int = 9, rf: int = 3,
                              ) -> ComparisonTable:
    """Recovery time vs segment size (paper: 8 MB is best on HDDs —
    smaller segments parallelize better but pay a seek per segment)."""
    table = ComparisonTable(
        "§IX segment size", f"recovery time vs segment size "
        f"({servers} servers, RF {rf})")
    measured: Dict[int, float] = {}
    for seg_mb in segment_mbs:
        spec = CrashExperimentSpec(
            cluster=ClusterSpec(
                num_servers=servers, num_clients=0,
                server_config=ServerConfig(segment_size=seg_mb * MB,
                                           replication_factor=rf),
                seed=3),
            num_records=(scale.recovery_bytes_per_server * servers
                         // scale.recovery_record_size),
            record_size=scale.recovery_record_size,
            kill_at=10.0,
            run_until=10.0 + 60.0 + 90.0 * rf,
        )
        result = run_crash_experiment(spec)
        duration = result.recovery_time
        measured[seg_mb] = duration
        table.add(f"{seg_mb} MB segments", None, duration, " s")
    if 8 in measured:
        best = min(measured, key=measured.get)
        table.note(f"paper: 8 MB gives the best recovery times on HDD "
                   f"machines; our best is {best} MB")
    return table


def run_worker_threads_ablation(scale: Scale = DEFAULT,
                                worker_counts: Sequence[int] = (1, 2, 3, 6),
                                servers: int = 2, clients: int = 24,
                                ) -> ComparisonTable:
    """Throughput of read-only and update-heavy vs worker thread count."""
    table = ComparisonTable(
        "§IX worker threads", f"throughput vs servicing threads "
        f"({servers} servers, {clients} clients)")
    for name, workload in (("C (read-only)", WORKLOAD_C),
                           ("A (update-heavy)", WORKLOAD_A)):
        for workers in worker_counts:
            spec = ExperimentSpec(
                cluster=ClusterSpec(
                    num_servers=servers, num_clients=clients,
                    server_config=ServerConfig(replication_factor=0,
                                               worker_threads=workers)),
                workload=workload.scaled(num_records=scale.num_records,
                                         ops_per_client=scale.ops_per_client),
            )
            metrics, _r = repeat_experiment(spec, scale.seeds[:1])
            table.add(f"workload {name} / {workers} workers", None,
                      metrics["throughput"].mean / 1000.0, "K")
    table.note("the optimal thread count depends on the workload "
               "(Finding 2's discussion): reads want more threads, "
               "updates serialize anyway")
    return table


def run_async_replication_ablation(scale: Scale = DEFAULT,
                                   rf: int = 4, servers: int = 20,
                                   clients: int = 10) -> ComparisonTable:
    """Strong vs relaxed consistency: answer the client without waiting
    for backup acks (§IX 'Tuning the consistency-level?').

    Measured in Fig. 5's latency-bound regime (few clients, high RF),
    where the ack chain sits on every update's critical path; at
    saturation the waits overlap with other requests and the gain
    shrinks — which is itself a finding worth keeping in mind.
    """
    table = ComparisonTable(
        "§IX consistency", f"workload A with RF {rf}: synchronous vs "
        "asynchronous replication")
    results = {}
    for label, level in (("synchronous (wait for acks)", SYNC_RF),
                         ("asynchronous (no ack wait)", ASYNC_BOUNDED)):
        spec = ExperimentSpec(
            cluster=ClusterSpec(
                num_servers=servers, num_clients=clients,
                server_config=ServerConfig(replication_factor=rf,
                                           default_consistency=level)),
            workload=WORKLOAD_A.scaled(num_records=scale.num_records,
                                       ops_per_client=scale.ops_per_client),
        )
        metrics, _r = repeat_experiment(spec, scale.seeds[:1])
        results[level] = metrics
        table.add(f"{label}: throughput", None,
                  metrics["throughput"].mean / 1000.0, "K")
        table.add(f"{label}: energy efficiency", None,
                  metrics["energy_efficiency"].mean, " op/J")
    speedup = (results[ASYNC_BOUNDED]["throughput"].mean
               / results[SYNC_RF]["throughput"].mean)
    table.add("throughput gain from relaxing consistency", None, speedup,
              "x")
    table.note("the paper predicts this gain but leaves it as future "
               "work; it trades away consistency under master failures")
    return table


def main():  # pragma: no cover - console entry point
    from repro.experiments.scale import active_scale
    scale = active_scale()
    print(run_worker_threads_ablation(scale).render())
    print()
    print(run_async_replication_ablation(scale).render())
    print()
    print(run_segment_size_ablation(scale).render())


if __name__ == "__main__":  # pragma: no cover
    main()
