"""The untraced run: end-to-end metrics of one cell.

Host numbers are medians over repetitions; simulated numbers must be
identical whenever a seed is repeated (the simulator is deterministic),
which is checked on every run.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import Cluster, run_crash_experiment, run_experiment

from bench.capture import capture_clusters
from bench.cells import Cell, Spec
from bench.outcome import Outcome, crash_outcome, ycsb_outcome

__all__ = ["Report", "run_once", "time_setup", "median_setup",
           "derived_seeds", "run_untraced", "SETUP_REPS", "SEEDS_PER_RUN"]

SETUP_REPS = 5
# One --seed stands for this many cluster seeds.  A single seed is a
# lottery on the replicated cell: each master's three backups are drawn
# once per run, and the most loaded backup sets throughput (57-105 Kop/s
# over 40 seeds), so simulated metrics are averaged over several draws.
SEEDS_PER_RUN = 8


@dataclass
class Report:
    """What one benchmark invocation prints."""

    workload: str
    seed: int
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    # Human-readable context lines printed above the metrics.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """True when every check passed."""
        return not self.problems


def run_once(cell: Cell, spec: Spec,
             after_preload: Optional[Callable[[Cluster], None]] = None,
             profiler=None) -> Tuple[Outcome, float, Cluster]:
    """One repetition through the public entry point: the reduced
    outcome, the host seconds the call took, and the cluster it ran on.
    A ``cProfile.Profile`` passed as ``profiler`` sees exactly the
    entry-point call."""
    entry = run_crash_experiment if cell.is_crash else run_experiment
    call = entry if profiler is None else (
        lambda spec: profiler.runcall(entry, spec))
    with capture_clusters(after_preload) as captured:
        start = time.perf_counter()
        result = call(spec)
        wall = time.perf_counter() - start
    cluster = captured[0]
    outcome = (crash_outcome(result, cluster) if cell.is_crash
               else ycsb_outcome(result))
    return outcome, wall, cluster


def time_setup(cell: Cell, spec: Spec) -> Tuple[float, float]:
    """Host seconds to build the cluster and to preload it, standalone,
    through the same public calls the entry points make."""
    start = time.perf_counter()
    if cell.is_crash:
        cluster = Cluster(spec.cluster.with_(failure_detection=True))
        table_id = cluster.create_table("usertable")
        built = time.perf_counter()
        cluster.preload(table_id, spec.num_records, spec.record_size)
    else:
        cluster = Cluster(spec.cluster)
        table_id = cluster.create_table("usertable", span=spec.table_span)
        built = time.perf_counter()
        cluster.preload(table_id, spec.workload.num_records,
                        spec.workload.record_size)
    return built - start, time.perf_counter() - built


def median_setup(cell: Cell, spec: Spec) -> Tuple[float, float]:
    """Median (build_s, preload_s) over ``SETUP_REPS`` set-ups."""
    builds, preloads = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        build_s, preload_s = time_setup(cell, spec)
        builds.append(build_s)
        preloads.append(preload_s)
    return statistics.median(builds), statistics.median(preloads)


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derived_seeds(seed: int) -> List[int]:
    """The cluster seeds one ``--seed`` stands for."""
    return [seed * 1000 + k for k in range(SEEDS_PER_RUN)]


def run_untraced(cell: Cell, seed: int, seconds: float,
                 ops_scale: float = 1.0) -> Report:
    """Run the cell once per derived seed, then keep cycling through
    them until ``seconds`` host seconds have passed, and report every
    end-to-end metric: host numbers as medians over all repetitions,
    simulated numbers as means over the derived seeds."""
    specs = [cell.build(s, ops_scale) for s in derived_seeds(seed)]
    build_s, preload_s = median_setup(cell, specs[0])

    walls: List[float] = []
    outcomes: List[Outcome] = []
    problems: List[str] = []
    deadline = time.perf_counter() + seconds
    # At least one repetition repeats a seed, so determinism is checked.
    while (len(walls) <= SEEDS_PER_RUN
           or time.perf_counter() < deadline) and not problems:
        which = len(walls) % SEEDS_PER_RUN
        # Repetition hygiene: without the collect and the dropped
        # cluster, back-to-back repetitions drift upwards by ~10 %.
        outcome = cluster = None
        gc.collect()
        outcome, wall, cluster = run_once(cell, specs[which])
        walls.append(wall)
        if which == len(outcomes):
            outcomes.append(outcome)
            problems.extend(outcome.problems)
        elif (outcome.digest, outcome.events, outcome.sim) != (
                outcomes[which].digest, outcomes[which].events,
                outcomes[which].sim):
            problems.append(
                f"repetition {len(walls)} differs from the first run of "
                f"its seed: digest {outcome.digest[:12]} vs "
                f"{outcomes[which].digest[:12]}, events {outcome.events} "
                f"vs {outcomes[which].events}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed on a "
                        "workload chosen so that none does")

    metrics = {
        "setup_s": build_s + preload_s,
        "host_wall_s": statistics.median(walls),
        "host_peak_rss_mb": peak_rss_mb(),
    }
    if not problems:
        for name in outcomes[0].sim:
            metrics[name] = statistics.fmean(o.sim[name] for o in outcomes)
    notes = [
        f"{len(walls)} repetitions over {len(outcomes)} derived seeds, "
        f"host_wall_s min {min(walls):.3f} max {max(walls):.3f}; setup = "
        f"build {build_s:.3f} + preload {preload_s:.3f} "
        f"(median of {SETUP_REPS})",
    ]
    notes.extend(
        f"  seed {s}: digest {o.digest[:16]}  sim.kernel.events {o.events}  "
        f"read samples {o.detail.get('read_samples', 0):.0f}  "
        f"update samples {o.detail.get('update_samples', 0):.0f}"
        for s, o in zip(derived_seeds(seed), outcomes))
    return Report(workload=cell.name, seed=seed, attempted=attempted,
                  failed=failed, metrics=metrics, problems=problems,
                  notes=notes)
