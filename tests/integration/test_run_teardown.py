"""Entry points that build their own cluster leave nothing running.

Each entry point closes its simulator once the result is taken: no
process generator it spawned is still suspended when it returns, and a
single ``gc.collect()`` frees the whole simulation while the result is
still held, leaving nothing for a second one.  The simulator is reached
through a ``Cluster`` subclass swapped into the runner modules, the way
``bench/capture.py`` reaches the cluster an entry point builds.
"""

import gc
import inspect
import weakref

import pytest

import repro.cluster
from repro.cluster import (ClusterSpec, CrashExperimentSpec, ExperimentSpec,
                           run_crash_experiment, run_experiment)
from repro.cluster import crash, durability, experiment
from repro.cluster.durability import DurabilityGapSpec, run_durability_gap
from repro.experiments import energy_proportionality, extensions, peak
from repro.hardware.specs import MB
from repro.ramcloud.config import ServerConfig
from repro.sim.kernel import Simulator
from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_C
from tests.experiments.test_runners_smoke import TINY

# Every module that looks up ``Cluster`` when it builds one
# (``extensions`` imports it from the package inside its runners).
RUNNER_MODULES = (repro.cluster, experiment, crash, durability, peak,
                  energy_proportionality)

SMALL_SERVERS = ServerConfig(log_memory_bytes=64 * MB, segment_size=1 * MB,
                             replication_factor=1)


def _experiment():
    return run_experiment(ExperimentSpec(
        cluster=ClusterSpec(num_servers=3, num_clients=2,
                            server_config=SMALL_SERVERS),
        workload=WORKLOAD_A.scaled(num_records=500, ops_per_client=50)))


def _crash_experiment():
    return run_crash_experiment(CrashExperimentSpec(
        cluster=ClusterSpec(num_servers=4, num_clients=2,
                            server_config=SMALL_SERVERS),
        num_records=2000, record_size=1024, kill_at=1.0, run_until=30.0,
        sample_interval=0.25, victim_index=1, split_clients_by_victim=True,
        foreground=WORKLOAD_C.scaled(num_records=2000,
                                     ops_per_client=100).throttled(50.0)))


def _durability_gap():
    return run_durability_gap(DurabilityGapSpec(
        cluster=ClusterSpec(num_servers=4, num_clients=2,
                            server_config=SMALL_SERVERS, seed=3),
        writes_per_client=40, crash_at=0.1))


def _peak_idle_cell():
    return peak._table1_cell({"servers": 1, "clients": 0}, 1, TINY)


def _elastic_sizing():
    return extensions.run_elastic_sizing_extension(TINY)


def _correlated_failures():
    return extensions.run_correlated_failures_extension(
        TINY, rfs=(1,), simultaneous=2, servers=3, trials=2)


def _energy_proportionality():
    return energy_proportionality.run_energy_proportionality(
        TINY, governors=("static",), servers=1, clients=1,
        fractions=(0.5,))


RUNS = {
    "run_experiment": _experiment,
    "run_crash_experiment": _crash_experiment,
    "run_durability_gap": _durability_gap,
    "peak": _peak_idle_cell,
    "extensions.elastic_sizing": _elastic_sizing,
    "extensions.correlated_failures": _correlated_failures,
    "energy_proportionality": _energy_proportionality,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_finished_run_is_freed_by_one_collection(name, monkeypatch):
    # Earlier tests' clusters may still await collection; collect them
    # first, so the passes below count only this run's garbage.
    while gc.collect():
        pass
    simulators = []

    class TrackedCluster(repro.cluster.Cluster):
        def __init__(self, spec):
            super().__init__(spec)
            simulators.append(weakref.ref(self.sim))

    for module in RUNNER_MODULES:
        monkeypatch.setattr(module, "Cluster", TrackedCluster)

    generators = []
    spawn = Simulator.process

    def tracked_process(self, generator, name=""):
        generators.append(weakref.ref(generator))
        return spawn(self, generator, name)

    monkeypatch.setattr(Simulator, "process", tracked_process)

    result = RUNS[name]()

    assert simulators and generators
    suspended = [gen.__name__ for gen in (ref() for ref in generators)
                 if gen is not None
                 and inspect.getgeneratorstate(gen) == inspect.GEN_SUSPENDED]
    assert suspended == []
    gc.collect()
    assert [ref() for ref in simulators] == [None] * len(simulators)
    # Nothing was left for a second pass: cleanup run as a finalizer
    # during the first one would have kept part of the run alive.
    assert gc.collect() == 0
    assert result is not None
