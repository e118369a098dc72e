"""Fleet population engine throughput (engineering benchmark).

Runs the acceptance-scale fleet — 1e5 heterogeneous devices over
multiple epochs by default — through :func:`repro.fleet.mc.fleet_mc`,
plus a 10x-smaller probe fleet of the same shape for an epoch-scaling
check.  Records devices/sec, the scaling ratio, and memory telemetry
(process-tree peak RSS plus the state bytes per device) in
``results/BENCH_fleet.json``, with provenance (commit, cores, numpy).

A second row times the wear path, which the default preset never
reaches: ``stress_config(n_devices=128, n_epochs=8)`` (retries, marks,
deaths), in block operations per second.

Env knobs, so CI smoke and local runs can right-size it:

- ``REPRO_FLEET_DEVICES``        fleet size (default 100_000)
- ``REPRO_FLEET_EPOCHS``         epochs (default 3)
- ``REPRO_FLEET_JOBS``           worker processes; 0 = one per core (default)
- ``REPRO_FLEET_DPS_FLOOR``      optional devices/sec floor to assert
"""

import os
import time

from _report import emit_json, peak_rss_bytes, provenance
from repro.fleet import FleetConfig, FleetEngine, fleet_mc, stress_config
from repro.montecarlo.rng import seed_entropy

DEVICES = int(os.environ.get("REPRO_FLEET_DEVICES", "100000"))
EPOCHS = int(os.environ.get("REPRO_FLEET_EPOCHS", "3"))
JOBS = int(os.environ.get("REPRO_FLEET_JOBS", "0")) or (os.cpu_count() or 1)
DPS_FLOOR = float(os.environ.get("REPRO_FLEET_DPS_FLOOR", "0"))

PROBE = max(DEVICES // 10, 1)

#: The wear row: a stress fleet across the hazard knee, timed over three seeds.
WEAR = stress_config(n_devices=128, n_epochs=8)
WEAR_SEEDS = range(3)
#: ``FleetSummary`` counters that count block operations.
BLOCK_OPS = ("writes", "reads", "refreshes", "write_retries")


def _run(n_devices: int) -> tuple[float, int]:
    config = FleetConfig(n_devices=n_devices, n_epochs=EPOCHS)
    t0 = time.perf_counter()
    summary = fleet_mc(config, seed=0, jobs=JOBS)
    dt = time.perf_counter() - t0
    # Default preset = paper-faithful endurance: traffic flowed, nobody died.
    assert summary.total("writes") > 0
    assert summary.n_dead == 0
    return dt, summary.total("writes")


def _wear_row() -> dict:
    """Block ops/s on the stress fleet."""
    ops = 0
    t0 = time.perf_counter()
    for seed in WEAR_SEEDS:
        summary = fleet_mc(WEAR, seed=seed, jobs=1)
        ops += sum(summary.total(name) for name in BLOCK_OPS)
    dt = time.perf_counter() - t0
    # The wear path really ran.
    assert summary.total("write_retries") > 0 and summary.n_dead > 0
    return {
        "config": "stress_config(n_devices=128, n_epochs=8)",
        "seeds": len(WEAR_SEEDS),
        "block_ops": ops,
        "total_s": round(dt, 3),
        "block_ops_per_s": round(ops / dt, 1),
    }


def _state_bytes_per_device() -> float:
    """Population state footprint per device, from a shard-sized engine."""
    n = min(DEVICES, 1024)
    config = FleetConfig(n_devices=n, n_epochs=EPOCHS)
    probe = FleetEngine(config, seed_entropy(0), 0, n)
    return probe.state_nbytes / n


def test_fleet_population_throughput():
    t_probe, _ = _run(PROBE)
    t_full, n_writes = _run(DEVICES)
    wear = _wear_row()

    devices_per_s = DEVICES / t_full
    de_per_s = DEVICES * EPOCHS / t_full
    # Linear scaling: the big fleet's per-device cost over the probe's
    # (1.0 = perfectly flat; cache/pool warmup makes the probe slower).
    probe_cost = t_probe / PROBE
    full_cost = t_full / DEVICES
    scaling = full_cost / probe_cost if probe_cost > 0 else float("inf")

    emit_json(
        "BENCH_fleet",
        {
            "benchmark": f"fleet_mc {DEVICES} devices x {EPOCHS} epochs",
            **provenance(),
            "n_devices": DEVICES,
            "n_epochs": EPOCHS,
            "jobs": JOBS,
            "total_s": round(t_full, 2),
            "devices_per_s": round(devices_per_s, 1),
            "device_epochs_per_s": round(de_per_s, 1),
            "probe_devices": PROBE,
            "probe_s": round(t_probe, 2),
            "epoch_scaling_ratio": round(scaling, 3),
            "demand_writes": n_writes,
            "peak_rss_bytes": peak_rss_bytes(),
            "state_bytes_per_device": round(_state_bytes_per_device(), 1),
            "wear": wear,
        },
    )

    # Per-device cost must not blow up with fleet size (quadratic engine
    # bugs — e.g. re-deriving all params per epoch — land here).
    assert scaling < 2.0, f"per-device cost grew {scaling:.2f}x at scale"
    if DPS_FLOOR:
        assert devices_per_s >= DPS_FLOOR, (
            f"{devices_per_s:.0f} devices/s under floor {DPS_FLOOR:.0f}"
        )
