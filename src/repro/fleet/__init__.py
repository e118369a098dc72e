"""Fleet-scale device population simulation (docs/FLEET.md).

Draws a heterogeneous population of 3LC PCM devices (per-device
drift/endurance/temperature/workload), advances them through epochs of
demand writes and scrub-refresh maintenance with the structure-of-arrays
write-and-verify kernel and the batched datapath codec, and reduces the
population to lifetime percentiles, spare-exhaustion hazard curves,
refresh-energy totals, and silent-error rates.
"""

from repro.fleet.config import (
    FLEET_SPAWN_KEY,
    DeviceParams,
    FleetConfig,
    config_from_params,
    device_params,
    stress_config,
)
from repro.fleet.engine import (
    COUNTERS,
    FLEET_VERSION,
    N_COUNTERS,
    PROGRAM_NJ_PER_CELL,
    SENSE_NJ_PER_CELL,
    FleetEngine,
    counter_index,
)
from repro.fleet.mc import (
    FLEET_SHARD_DEVICES,
    FleetSummary,
    fleet_counts_key,
    fleet_mc,
)
from repro.fleet.soa import SoaFleetEngine, WaveKernel
from repro.fleet.state import SoaFleetState, alive_indices

__all__ = [
    "COUNTERS",
    "FLEET_SHARD_DEVICES",
    "FLEET_SPAWN_KEY",
    "FLEET_VERSION",
    "N_COUNTERS",
    "PROGRAM_NJ_PER_CELL",
    "SENSE_NJ_PER_CELL",
    "DeviceParams",
    "FleetConfig",
    "FleetEngine",
    "FleetSummary",
    "SoaFleetEngine",
    "SoaFleetState",
    "WaveKernel",
    "alive_indices",
    "config_from_params",
    "counter_index",
    "device_params",
    "fleet_counts_key",
    "fleet_mc",
    "stress_config",
]
