"""What one repetition of a cell measured in the simulated world.

An :class:`Outcome` holds only plain numbers and the determinism
digest, so the (large) result object can be dropped between
repetitions.  Everything here is exact for a fixed seed: two
repetitions of one seed must produce equal outcomes, which
:func:`bench.measure.run_untraced` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.sweep import crash_experiment_digest, experiment_digest

__all__ = ["Outcome", "percentile", "ycsb_outcome", "crash_outcome"]


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence, p in (0, 100];
    0.0 for an empty one (a latency that does not apply to the cell)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """Simulated results of one repetition."""

    digest: str
    events: int
    attempted: int
    failed: int
    # end-to-end sim_* metric name -> value
    sim: Dict[str, float]
    # Sample counts behind the latency percentiles, and the
    # workload-specific numbers the per-layer report shows.
    detail: Dict[str, float] = field(default_factory=dict)
    # Hard failures (unfinished recovery, lost segments...): non-empty
    # means the run is not correct.
    problems: List[str] = field(default_factory=list)


def _latency_details(reads: List[float], updates: List[float],
                     detail: Dict[str, float]) -> None:
    """Latency rows of the per-layer report (µs), with sample counts."""
    reads.sort()
    updates.sort()
    detail["read_samples"] = len(reads)
    detail["read_mean_us"] = 1e6 * sum(reads) / len(reads) if reads else 0.0
    detail["read_p99_us"] = 1e6 * percentile(reads, 99)
    detail["update_samples"] = len(updates)
    detail["update_p50_us"] = 1e6 * percentile(updates, 50)
    detail["update_p99_us"] = 1e6 * percentile(updates, 99)


def ycsb_outcome(result) -> Outcome:
    """Reduce an ``ExperimentResult``.  Attempted = the op budget of
    every client; ops a client that gave up never issued count as
    failed, like its errors."""
    spec = result.spec
    attempted = spec.workload.ops_per_client * spec.cluster.num_clients
    sim = {
        "sim_ops_per_s": result.throughput,
        "sim_ops_per_joule": result.energy_efficiency,
        "sim_window_s": result.makespan,
        "sim_joules_per_node": (result.total_energy_joules
                                / spec.cluster.num_servers),
    }
    detail = {
        "watts_per_server": result.avg_power_per_server,
        "joules_total": result.total_energy_joules,
        "util_pct_avg": result.cpu_util_avg,
        "util_pct_max": result.cpu_util_max,
        "clients_gave_up": result.clients_gave_up,
    }
    reads = [lat for s in result.per_client_stats for lat in s.reads.latencies]
    updates = [lat for s in result.per_client_stats
               for lat in s.updates.latencies]
    _latency_details(reads, updates, detail)
    return Outcome(digest=experiment_digest(result), events=result.sim_events,
                   attempted=attempted, failed=attempted - result.total_ops,
                   sim=sim, detail=detail)


def crash_outcome(result, cluster) -> Outcome:
    """Reduce a ``CrashExperimentResult`` (``cluster`` is the captured
    deployment it ran on: the result carries no event count or energy
    total).

    Read latency is the live-key client's (client 1) over reads issued
    inside the recovery window; the victim-key client measures the
    outage instead.  Foreground clients retry forever, so an op fails
    only if its data was lost — which is a hard failure here.
    """
    problems = []
    recovery = result.recovery
    if recovery is None or recovery.finished_at is None:
        problems.append("recovery did not finish")
    elif recovery.lost_segments:
        problems.append(f"{recovery.lost_segments} segments lost")
    repair = result.repairs[0] if result.repairs else None
    if repair is None or repair.finished_at is None:
        problems.append("durability repair did not finish")
    completed = sum(len(samples) for samples in result.client_latencies)
    sim: Dict[str, float] = {}
    detail: Dict[str, float] = {}
    if problems:
        return Outcome(digest="", events=cluster.sim._seq,
                       attempted=max(1, completed), failed=0, sim=sim,
                       detail=detail, problems=problems)

    start, end = recovery.started_at, recovery.finished_at
    live = result.client_latencies[1]
    in_window = [lat for t, lat in live if start <= t - lat <= end]
    _latency_details(in_window, [], detail)
    joules_total = cluster.total_energy_joules()
    sim["sim_ops_per_s"] = completed / cluster.sim.now
    sim["sim_ops_per_joule"] = completed / joules_total
    sim["sim_window_s"] = recovery.duration
    sim["sim_joules_per_node"] = result.energy_per_node_during_recovery()
    outage = max(lat for _t, lat in result.client_latencies[0])
    detail.update({
        "watts_per_server": result.avg_power_during_recovery(),
        "joules_total": joules_total,
        "util_pct_avg": result.cluster_cpu.mean(),
        "util_pct_max": result.cluster_cpu.max(),
        "repair_s": repair.duration,
        "detect_s": recovery.detected_at - result.spec.kill_at,
        "outage_s": outage,
        "partitions": recovery.partitions,
        "segments": recovery.segments,
        "bytes_to_recover": recovery.bytes_to_recover,
        "recovery_masters": len(recovery.recovery_masters),
        "actions_applied": len(result.fault_log),
    })
    return Outcome(digest=crash_experiment_digest(result),
                   events=cluster.sim._seq, attempted=completed, failed=0,
                   sim=sim, detail=detail)
