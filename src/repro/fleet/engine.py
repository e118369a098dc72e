"""Fleet epoch counters, version salt, and the engine constructor.

A fleet shard is a contiguous range of devices advanced through
*epochs* of virtual time by :class:`~repro.fleet.soa.SoaFleetEngine`
(phases and bit-identity contract in docs/FLEET.md).  Each epoch
returns one row of the :data:`COUNTERS` matrix defined here.

Bump :data:`FLEET_VERSION` when changing anything observable in the
epoch or in :mod:`repro.fleet.config` (draw orders, phase structure,
counter semantics): per-shard cache keys are salted with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fleet.config import FleetConfig

if TYPE_CHECKING:
    from repro.fleet.soa import SoaFleetEngine

__all__ = [
    "FLEET_VERSION",
    "COUNTERS",
    "N_COUNTERS",
    "PROGRAM_NJ_PER_CELL",
    "SENSE_NJ_PER_CELL",
    "FleetEngine",
    "counter_index",
]

#: Salt for per-shard fleet cache keys; bump on any change to the epoch
#: phases, draw orders, heterogeneity model, or counter semantics.
FLEET_VERSION = 1

#: Rough programming energy per cell-write, nJ.  RESET pulses in
#: contemporary PCM parts run tens of pJ to ~100 pJ per cell; a 64B block
#: write programs 354 cells with iterative write-and-verify, so 50 pJ per
#: charged cell-program is a round mid-range figure.  Only *relative*
#: energy between policies is meaningful here.
PROGRAM_NJ_PER_CELL = 0.05

#: Rough sensing energy per cell-read, nJ (current-mode sense of a
#: resistance is ~an order below a partial-SET pulse; 2 pJ per cell).
SENSE_NJ_PER_CELL = 0.002

#: Per-epoch fleet counters, in storage order.  ``reads_requested``
#: counts trace read ops (served upstream, never sensed); ``reads``
#: counts maintenance reads that actually sensed and decoded a block.
#: ``refreshes`` counts maintenance rewrites.  ``deaths`` counts devices
#: whose spare budget ran out this epoch.  The ``cell_programs_*`` /
#: ``cells_sensed`` counters drive the energy model.
COUNTERS = (
    "writes",
    "reads_requested",
    "reads",
    "refreshes",
    "tec_corrections",
    "uncorrectable",
    "silent",
    "wearout_marks",
    "write_retries",
    "deaths",
    "cell_programs_write",
    "cell_programs_refresh",
    "cells_sensed",
)
N_COUNTERS = len(COUNTERS)
_C = {name: i for i, name in enumerate(COUNTERS)}


def counter_index(name: str) -> int:
    """Column of ``name`` in the ``(n_epochs, N_COUNTERS)`` count matrix."""
    try:
        return _C[name]
    except KeyError:
        raise ValueError(f"unknown counter {name!r} (known: {COUNTERS})") from None


def FleetEngine(
    config: FleetConfig,
    entropy: int,
    first_device: int = 0,
    n_devices: int | None = None,
) -> "SoaFleetEngine":
    """The fleet engine for a contiguous device range (all devices by default)."""
    from repro.fleet.soa import SoaFleetEngine

    return SoaFleetEngine(config, entropy, first_device, n_devices)
