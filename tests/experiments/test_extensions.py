"""Extension runners that drive the simulator themselves."""

import pytest

from repro.experiments.registry import tables
from repro.ycsb.client import YcsbClient
from tests.experiments.test_runners_smoke import TINY


def test_elastic_sizing_fails_when_a_load_client_fails(monkeypatch):
    # One of the load clients dies after its last op.  The throughput
    # the extension reports covers every client, so the failure must
    # surface instead of being dropped by the loop that runs the clients
    # (the sweep refuses to render a table from a failed cell).
    run = YcsbClient.run
    started = []

    def crashing_run(self):
        started.append(self)
        stats = yield from run(self)
        if self is started[1]:
            raise RuntimeError("load client crashed")
        return stats

    monkeypatch.setattr(YcsbClient, "run", crashing_run)
    with pytest.raises(RuntimeError, match="load client crashed"):
        tables("elastic", TINY)
