"""Experiment scaling knobs (DESIGN.md §5).

The paper ran ≈3000 runs / ≈1000 hours with up to 300 M requests per
configuration.  We measure steady-state rates with scaled-down op
counts; ``Scale`` centralizes the scaling so every runner and benchmark
uses consistent sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["Scale", "SMOKE", "DEFAULT", "FULL", "active_scale",
           "scale_named", "set_active_scale"]


@dataclass(frozen=True)
class Scale:
    """How big each run is."""

    name: str
    # YCSB sizing (paper §V: 100 K records, 100 K ops per client).
    num_records: int = 20_000
    ops_per_client: int = 600
    # Seeds per configuration (paper: 5 runs with error bars).
    seeds: Tuple[int, ...] = (1, 2)
    # Crash experiments: bytes per server (paper: ≈1.085 GB/server) and
    # record size (paper: 1 KB; we use larger records so entry objects
    # stay affordable — costs are per-byte-dominated, see DESIGN.md §4).
    recovery_bytes_per_server: int = 1085 * 1024 * 1024
    recovery_record_size: int = 8 * 1024
    # Fig. 9/10 use 10 M × 1 KB ≈ 0.97 GB/server over 10 servers.
    crash_timeline_bytes_per_server: int = 994 * 1024 * 1024

    def with_(self, **overrides) -> "Scale":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


# Quick shapes-only runs (CI-sized).
SMOKE = Scale(name="smoke", num_records=5_000, ops_per_client=200,
              seeds=(1,),
              recovery_bytes_per_server=128 * 1024 * 1024,
              crash_timeline_bytes_per_server=96 * 1024 * 1024)
# The benchmark default: enough to place every point with stable shape.
DEFAULT = Scale(name="default")
# Closer to the paper's op counts (slow; for overnight validation).
FULL = Scale(name="full", num_records=100_000, ops_per_client=5_000,
             seeds=(1, 2, 3, 4, 5))

_SCALES = {s.name: s for s in (SMOKE, DEFAULT, FULL)}


def scale_named(name: str) -> Scale:
    """The preset called ``name`` (``smoke``, ``default`` or ``full``)."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"scale {name!r}: choose from {sorted(_SCALES)}") from None


def active_scale() -> Scale:
    """The scale benchmarks run at; override with REPRO_SCALE=smoke|default|full."""
    return scale_named(os.environ.get("REPRO_SCALE", "default"))


def set_active_scale(name: str) -> Scale:
    """Validate ``name`` and make it the process-wide active scale.

    This module is the one sanctioned writer of ``REPRO_SCALE`` (the
    DET002 contract): entry points set the scale here instead of
    poking ``os.environ`` themselves, so spawned sweep workers and
    lazy ``active_scale()`` readers all agree on where the knob lives.
    """
    scale = scale_named(name)
    os.environ["REPRO_SCALE"] = scale.name
    return scale
