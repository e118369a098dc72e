"""Fleet population engine throughput (engineering benchmark).

Runs the acceptance-scale fleet — 1e5 heterogeneous devices over
multiple epochs by default — through :func:`repro.fleet.mc.fleet_mc`
on the SoA engine, and times the object engine on a 10x-smaller fleet
of the same shape as the reference snapshot.  Records devices/sec, the
SoA-over-object speedup, an epoch-scaling probe, and memory telemetry
(process-tree peak RSS plus the SoA state bytes per device) in
``results/BENCH_fleet.json``.

A second row times the wear path, which the default preset never
reaches: ``stress_config(n_devices=128, n_epochs=8)`` (retries, marks,
deaths) on both engines, in block operations per second.

Env knobs, so CI smoke and local runs can right-size it:

- ``REPRO_FLEET_DEVICES``        fleet size (default 100_000)
- ``REPRO_FLEET_EPOCHS``         epochs (default 3)
- ``REPRO_FLEET_JOBS``           worker processes; 0 = one per core (default)
- ``REPRO_FLEET_DPS_FLOOR``      optional devices/sec floor to assert
- ``REPRO_FLEET_SPEEDUP_FLOOR``  optional SoA-vs-object speedup floor
  to assert (CI smoke sets a relaxed value; 0 disables)
"""

import os
import time

from _report import emit_json, peak_rss_bytes
from repro.fleet import FleetConfig, FleetEngine, fleet_mc, stress_config
from repro.montecarlo.rng import seed_entropy

DEVICES = int(os.environ.get("REPRO_FLEET_DEVICES", "100000"))
EPOCHS = int(os.environ.get("REPRO_FLEET_EPOCHS", "3"))
JOBS = int(os.environ.get("REPRO_FLEET_JOBS", "0")) or (os.cpu_count() or 1)
DPS_FLOOR = float(os.environ.get("REPRO_FLEET_DPS_FLOOR", "0"))
SPEEDUP_FLOOR = float(os.environ.get("REPRO_FLEET_SPEEDUP_FLOOR", "0"))

PROBE = max(DEVICES // 10, 1)

#: The wear row: a stress fleet across the hazard knee, timed over three seeds.
WEAR = stress_config(n_devices=128, n_epochs=8)
WEAR_SEEDS = range(3)
#: ``FleetSummary`` counters that count block operations.
BLOCK_OPS = ("writes", "reads", "refreshes", "write_retries")


def _run(n_devices: int, engine: str) -> tuple[float, int]:
    config = FleetConfig(n_devices=n_devices, n_epochs=EPOCHS)
    t0 = time.perf_counter()
    summary = fleet_mc(config, seed=0, jobs=JOBS, engine=engine)
    dt = time.perf_counter() - t0
    # Default preset = paper-faithful endurance: traffic flowed, nobody died.
    assert summary.total("writes") > 0
    assert summary.n_dead == 0
    return dt, summary.total("writes")


def _wear_row() -> dict:
    """Block ops/s of both engines on the stress fleet (same counts)."""
    row: dict = {"config": "stress_config(n_devices=128, n_epochs=8)"}
    counts = {}
    for engine in ("soa", "object"):
        ops = 0
        t0 = time.perf_counter()
        for seed in WEAR_SEEDS:
            summary = fleet_mc(WEAR, seed=seed, jobs=1, engine=engine)
            ops += sum(summary.total(name) for name in BLOCK_OPS)
            counts.setdefault(seed, []).append(summary.counts)
        dt = time.perf_counter() - t0
        row[f"{engine}_s"] = round(dt, 3)
        row[f"{engine}_block_ops_per_s"] = round(ops / dt, 1)
    row["seeds"] = len(WEAR_SEEDS)
    row["block_ops"] = ops
    row["soa_speedup_vs_object"] = round(row["object_s"] / row["soa_s"], 2)
    # The wear path really ran, and both engines agree on every count.
    assert summary.total("write_retries") > 0 and summary.n_dead > 0
    assert all((a == b).all() for a, b in counts.values())
    return row


def _soa_bytes_per_device() -> float:
    """SoA state footprint per device, from a shard-sized population."""
    n = min(DEVICES, 1024)
    config = FleetConfig(n_devices=n, n_epochs=EPOCHS)
    probe = FleetEngine(config, seed_entropy(0), 0, n, engine="soa")
    return probe.state_nbytes / n


def test_fleet_population_throughput():
    t_probe_soa, _ = _run(PROBE, "soa")
    t_probe_obj, _ = _run(PROBE, "object")
    t_full, n_writes = _run(DEVICES, "soa")
    wear = _wear_row()

    devices_per_s = DEVICES / t_full
    de_per_s = DEVICES * EPOCHS / t_full
    # Linear scaling: the big fleet's per-device cost over the probe's
    # (1.0 = perfectly flat; cache/pool warmup makes the probe slower).
    probe_cost = t_probe_soa / PROBE
    full_cost = t_full / DEVICES
    scaling = full_cost / probe_cost if probe_cost > 0 else float("inf")
    # SoA speedup over the object engine, matched at probe size so the
    # reference run stays affordable; both runs share pool warmup costs.
    speedup = t_probe_obj / t_probe_soa if t_probe_soa > 0 else float("inf")

    emit_json(
        "BENCH_fleet",
        {
            "benchmark": f"fleet_mc {DEVICES} devices x {EPOCHS} epochs",
            "engine": "soa",
            "n_devices": DEVICES,
            "n_epochs": EPOCHS,
            "jobs": JOBS,
            "cpu_count": os.cpu_count() or 1,
            "total_s": round(t_full, 2),
            "devices_per_s": round(devices_per_s, 1),
            "device_epochs_per_s": round(de_per_s, 1),
            "probe_devices": PROBE,
            "probe_s": round(t_probe_soa, 2),
            "object_probe_s": round(t_probe_obj, 2),
            "soa_speedup_vs_object": round(speedup, 2),
            "epoch_scaling_ratio": round(scaling, 3),
            "demand_writes": n_writes,
            "peak_rss_bytes": peak_rss_bytes(),
            "soa_state_bytes_per_device": round(_soa_bytes_per_device(), 1),
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
    if SPEEDUP_FLOOR:
        assert speedup >= SPEEDUP_FLOOR, (
            f"SoA only {speedup:.2f}x over object engine, "
            f"floor {SPEEDUP_FLOOR:.2f}x"
        )
