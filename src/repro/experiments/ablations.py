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

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.experiments.recovery import crash_spec
from repro.experiments.reporting import ComparisonTable
from repro.experiments.scale import DEFAULT, Scale
from repro.experiments.sweep import (
    SweepPlan,
    SweepPoint,
    measure,
    run_cell,
    ycsb_spec,
)
from repro.hardware.specs import MB
from repro.ramcloud.consistency import ASYNC_BOUNDED, SYNC_RF
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C

__all__ = ["run_segment_size_ablation", "run_worker_threads_ablation",
           "run_async_replication_ablation", "segment_size_sweep_plan",
           "worker_threads_sweep_plan", "async_replication_sweep_plan",
           "render_segment_size", "render_worker_threads",
           "render_async_replication"]

WORKLOADS = {"C (read-only)": WORKLOAD_C, "A (update-heavy)": WORKLOAD_A}


def _segment_size_cell(params: Dict[str, int], seed: int, scale: Scale):
    """Sweep cell runner: one Fig. 11-style crash recovery with
    ``segment_mb`` MB segments."""
    spec = crash_spec(scale, params["servers"], params["rf"],
                      scale.recovery_bytes_per_server, kill_at=10.0)
    config = replace(spec.cluster.server_config,
                     segment_size=params["segment_mb"] * MB)
    return run_cell(
        replace(spec, cluster=spec.cluster.with_(server_config=config)), seed)


def _worker_threads_cell(params: Dict[str, object], seed: int, scale: Scale):
    """Sweep cell runner: one workload at one worker-thread count."""
    return run_cell(ycsb_spec(
        WORKLOADS[params["workload"]], params["servers"], params["clients"],
        scale, worker_threads=params["workers"]), seed)


def _async_replication_cell(params: Dict[str, object], seed: int,
                            scale: Scale):
    """Sweep cell runner: workload A at one default consistency level."""
    return run_cell(ycsb_spec(
        WORKLOAD_A, params["servers"], params["clients"], scale,
        replication_factor=params["rf"],
        default_consistency=params["level"]), seed)


SWEEP_CELLS = {"segment-size": _segment_size_cell,
               "worker-threads": _worker_threads_cell,
               "async-replication": _async_replication_cell}


def segment_size_sweep_plan(scale: Scale = DEFAULT,
                            seeds: Optional[Sequence[int]] = None,
                            segment_mbs: Sequence[int] = (1, 2, 8, 32),
                            servers: int = 9, rf: int = 3) -> SweepPlan:
    """The segment-size ablation as a :class:`SweepPlan` (seed 3 unless
    ``seeds`` says otherwise, like Fig. 11)."""
    points = tuple(SweepPoint.of(f"{seg_mb} MB segments", segment_mb=seg_mb,
                                 servers=servers, rf=rf)
                   for seg_mb in segment_mbs)
    return SweepPlan("segment-size", points, tuple(seeds or (3,)), scale)


def worker_threads_sweep_plan(scale: Scale = DEFAULT,
                              seeds: Optional[Sequence[int]] = None,
                              worker_counts: Sequence[int] = (1, 2, 3, 6),
                              servers: int = 2, clients: int = 24,
                              ) -> SweepPlan:
    """The worker-thread ablation as a :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(f"workload {name} / {workers} workers", workload=name,
                      workers=workers, servers=servers, clients=clients)
        for name in WORKLOADS for workers in worker_counts)
    return SweepPlan("worker-threads", points,
                     tuple(seeds or scale.seeds[:1]), scale)


def async_replication_sweep_plan(scale: Scale = DEFAULT,
                                 seeds: Optional[Sequence[int]] = None,
                                 rf: int = 4, servers: int = 20,
                                 clients: int = 10) -> SweepPlan:
    """The strong-vs-relaxed consistency ablation as a
    :class:`SweepPlan`."""
    points = tuple(
        SweepPoint.of(label, level=level, rf=rf, servers=servers,
                      clients=clients)
        for label, level in (("synchronous (wait for acks)", SYNC_RF),
                             ("asynchronous (no ack wait)", ASYNC_BOUNDED)))
    return SweepPlan("async-replication", points,
                     tuple(seeds or scale.seeds[:1]), scale)


def render_segment_size(plan: SweepPlan, merged) -> ComparisonTable:
    """Recovery time vs segment size (paper: 8 MB is best on HDDs —
    smaller segments parallelize better but pay a seek per segment)."""
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "§IX segment size", f"recovery time vs segment size "
        f"({first['servers']} servers, RF {first['rf']})")
    measured: Dict[int, float] = {}
    for point in plan.points:
        duration = merged[point.label]["recovery_time"].mean
        measured[point.as_dict()["segment_mb"]] = duration
        table.add(point.label, None, duration, " s")
    if 8 in measured:
        best = min(measured, key=measured.get)
        table.note(f"paper: 8 MB gives the best recovery times on HDD "
                   f"machines; our best is {best} MB")
    return table


def render_worker_threads(plan: SweepPlan, merged) -> ComparisonTable:
    """Throughput of read-only and update-heavy vs worker thread count."""
    first = plan.points[0].as_dict()
    table = ComparisonTable(
        "§IX worker threads", f"throughput vs servicing threads "
        f"({first['servers']} servers, {first['clients']} clients)")
    for point in plan.points:
        table.add(point.label, None,
                  merged[point.label]["throughput"].mean / 1000.0, "K")
    table.note("the optimal thread count depends on the workload "
               "(Finding 2's discussion): reads want more threads, "
               "updates serialize anyway")
    return table


def render_async_replication(plan: SweepPlan, merged) -> ComparisonTable:
    """Strong vs relaxed consistency: answer the client without waiting
    for backup acks (§IX 'Tuning the consistency-level?').

    Measured in Fig. 5's latency-bound regime (few clients, high RF),
    where the ack chain sits on every update's critical path; at
    saturation the waits overlap with other requests and the gain
    shrinks — which is itself a finding worth keeping in mind.
    """
    sync, relaxed = plan.points
    table = ComparisonTable(
        "§IX consistency", f"workload A with RF {sync.as_dict()['rf']}: "
        "synchronous vs asynchronous replication")
    for point in plan.points:
        metrics = merged[point.label]
        table.add(f"{point.label}: throughput", None,
                  metrics["throughput"].mean / 1000.0, "K")
        table.add(f"{point.label}: energy efficiency", None,
                  metrics["energy_efficiency"].mean, " op/J")
    table.add("throughput gain from relaxing consistency", None,
              merged[relaxed.label]["throughput"].mean
              / merged[sync.label]["throughput"].mean, "x")
    table.note("the paper predicts this gain but leaves it as future "
               "work; it trades away consistency under master failures")
    return table


def run_segment_size_ablation(scale: Scale = DEFAULT,
                              segment_mbs: Sequence[int] = (1, 2, 8, 32),
                              servers: int = 9, rf: int = 3,
                              ) -> ComparisonTable:
    """Recovery time vs segment size."""
    plan = segment_size_sweep_plan(scale, None, segment_mbs, servers, rf)
    return render_segment_size(plan, measure(plan))


def run_worker_threads_ablation(scale: Scale = DEFAULT,
                                worker_counts: Sequence[int] = (1, 2, 3, 6),
                                servers: int = 2, clients: int = 24,
                                ) -> ComparisonTable:
    """Throughput of read-only and update-heavy vs worker thread count."""
    plan = worker_threads_sweep_plan(scale, None, worker_counts, servers,
                                     clients)
    return render_worker_threads(plan, measure(plan))


def run_async_replication_ablation(scale: Scale = DEFAULT,
                                   rf: int = 4, servers: int = 20,
                                   clients: int = 10) -> ComparisonTable:
    """Strong vs relaxed consistency on workload A."""
    plan = async_replication_sweep_plan(scale, None, rf, servers, clients)
    return render_async_replication(plan, measure(plan))
