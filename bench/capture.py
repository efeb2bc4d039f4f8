"""Reach the deployment an entry point builds, without editing ``src/``.

``run_experiment`` / ``run_crash_experiment`` construct their
``Cluster`` internally and return only a result object.  The benchmark
needs the cluster too: the crash result carries no kernel event count,
and the per-layer counters live on the cluster's public objects.
:func:`capture_clusters` substitutes a subclass that adds no behaviour
— it remembers each instance and calls a hook after ``preload`` — so
the simulation it runs is event-for-event the one the entry point
would have run.  Untraced and traced runs both use it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.cluster import Cluster
from repro.cluster import crash as crash_module
from repro.cluster import experiment as experiment_module

__all__ = ["capture_clusters"]


@contextmanager
def capture_clusters(
        after_preload: Optional[Callable[[Cluster], None]] = None,
) -> Iterator[List[Cluster]]:
    """Yield a list that receives every ``Cluster`` the entry points
    build inside the block.  ``after_preload(cluster)`` runs right after
    each bulk preload, before any metered work."""
    captured: List[Cluster] = []

    class CapturingCluster(Cluster):
        def __init__(self, spec):
            super().__init__(spec)
            captured.append(self)

        def preload(self, *args, **kwargs):
            counts = super().preload(*args, **kwargs)
            if after_preload is not None:
                after_preload(self)
            return counts

    modules = (experiment_module, crash_module)
    for module in modules:
        module.Cluster = CapturingCluster
    try:
        yield captured
    finally:
        for module in modules:
            module.Cluster = Cluster
