"""Every test of ``test_kernel.py`` again, on the production kernel path.

``tests/conftest.py`` turns the sanitizers on suite-wide, so a plain
``Simulator()`` resumes processes (``Process._resume``/``_step``) with a
sanitizer attached.  The kernel tests are collected here a second time
with ``REPRO_SIM_DEBUG=0``, which runs the same code with no sanitizer —
the configuration every production run and benchmark takes.
"""

import pytest

from tests.sim.test_kernel import *  # noqa: F401,F403 (collected again here)


@pytest.fixture(autouse=True)
def production_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", "0")


def test_the_kernel_runs_without_sanitizers_here():
    assert Simulator()._sanitizer is None  # noqa: F405
