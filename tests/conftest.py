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

os.environ.setdefault("REPRO_SIM_DEBUG", "1")
