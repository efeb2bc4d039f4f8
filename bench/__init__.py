"""The repo benchmark: four paper cells, host + simulated end-to-end
metrics, per-layer attribution.  See ``bench/README.md``.

Two kinds of time are always named:

* **host** — seconds the simulator takes on this machine (what people
  running the reproduction pay);
* **sim** — seconds/joules in the modelled cluster (what the paper's
  reader cares about; exact for a fixed seed).

Run ``python -m bench`` from the repo root (``src/`` is put on
``sys.path`` by this package, so ``PYTHONPATH=src`` is optional).
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
