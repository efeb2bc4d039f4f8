"""Suite-wide test configuration.

Runtime sanitizers (:mod:`repro.sim.sanitize`) are switched on for the
whole suite: every ``Simulator()`` a test constructs runs with event-
leak detection, lock-held-at-death checks, deadlock wait-graph dumps
and the ``@guarded_by`` write check, so kernel-hygiene bugs surface as
loud warnings in CI instead of silently wrong metrics (an unguarded
write fails its test: pyproject turns ``RaceWarning`` into an error).
This is the only place the suite runs the one ``Process._step`` path
with a sanitizer attached at scale.  Tests that need a production-mode
kernel pass ``Simulator(debug=False)`` explicitly; CI reruns the golden
pins with ``REPRO_SIM_DEBUG=0``.
"""

import os
import weakref

import pytest

from repro.cluster.deployment import Cluster

os.environ.setdefault("REPRO_SIM_DEBUG", "1")


@pytest.fixture(autouse=True)
def close_clusters(monkeypatch):
    """Close every ``Cluster`` the test built once the test ends, so its
    simulation is not left for a later test's collection to finalize.
    The simulators are held weakly (the ``Cluster`` object itself may
    be gone while its processes keep the simulation alive): this
    fixture keeps nothing alive.  A cluster built by a module- or
    session-scoped fixture predates this fixture and is not recorded:
    such a fixture closes its own."""
    simulators = []
    build = Cluster.__init__

    def recording_init(self, spec):
        build(self, spec)
        simulators.append(weakref.ref(self.sim))

    monkeypatch.setattr(Cluster, "__init__", recording_init)
    yield
    for ref in simulators:
        sim = ref()
        if sim is not None:
            sim.close()
