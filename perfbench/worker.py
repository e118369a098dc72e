"""One batch workload in a fresh interpreter.

Usage: ``worker.py WORKLOAD SEED SECONDS MODE`` with MODE one of

- ``setup``: import, pay every lazy self-check with a tiny warm-up call,
  print ``READY`` and exit (the parent times spawn-to-READY);
- ``run``: set up, then repeat the workload's unit of work untraced
  until SECONDS have passed, check every output, print one JSON line;
- ``trace``: run a fixed number of units untraced, repeat them with
  every layer wrapped (and, where the library can fan out, time one
  call at ``jobs=1`` and at ``jobs=nproc``), report per-layer metrics.

Every public call runs at ``jobs=1`` with no ``ResultsCache``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

import layers
from tracer import Tracer

import repro.fleet.mc as fleet_mc_mod
import repro.montecarlo.bler_mc as bler_mod
import repro.montecarlo.cer as cer_mod
from repro.analysis.bler import block_error_rate
from repro.analysis.fleet import survival_curve
from repro.core.designs import design_by_name
from repro.fleet.config import FleetConfig, stress_config
from repro.fleet.engine import FleetEngine
from repro.fleet.mc import FLEET_SHARD_DEVICES
from repro.montecarlo import executor
from repro.montecarlo.analytic import analytic_design_cer
from repro.montecarlo.sweep import PAPER_TIME_GRID_S

#: Designs of Figure 8, all on the paper's time grid.
FIG8_DESIGNS = ("4LCn", "4LCs", "4LCo", "3LCn", "3LCo")
#: Figure-5 operating points for ``bler_mc``.
FIG5_CERS = (1e-3, 3e-3, 1e-2)
#: Cells written per design per ``design_cer`` call.
CER_CELLS = 500_000
#: Blocks decoded per CER point per ``bler_mc`` call.
BLER_BLOCKS = 15_000
#: A design's MC point is checked only with at least this many errors,
#: so the 0.15 relative tolerance sits beyond five standard errors.
CER_MIN_ERRORS = 1200
#: Two-sided confidence of the BLER interval check (about five sigma),
#: so a correct engine fails it on roughly one seed in a million.
BLER_CONFIDENCE = 1 - 1e-6
#: MLC cells of the 512-bit 3-ON-2 block: the n of the Figure-5 BLER model.
BLER_CELLS = 354

FLEET_PAPER = FleetConfig(n_devices=1024)
FLEET_WEAROUT = stress_config(n_devices=128, n_epochs=8)

#: ``FleetSummary`` counters that count block operations.
BLOCK_OPS = ("writes", "reads", "refreshes", "write_retries")
#: Simulated fleet statistics reported by the traced run.
FLEET_STATS = ("writes", "refreshes", "write_retries", "wearout_marks",
               "deaths", "uncorrectable", "silent")


def _unit_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


# ----------------------------------------------------------------------
# Units of work.  Each returns (work done, digest of the simulated
# result, checks attempted, checks failed, extra counters).
# ----------------------------------------------------------------------

def fleet_unit(config: FleetConfig, wearout: bool, seed: int, jobs: int = 1):
    summary = fleet_mc_mod.fleet_mc(config, seed=seed, jobs=jobs)
    totals = {name: summary.total(name) for name in set(BLOCK_OPS + FLEET_STATS)}
    if wearout:
        survival = survival_curve(summary.deaths_per_epoch, config.n_devices)
        ok = summary.n_dead > 0 and all(
            b <= a for a, b in zip([1.0] + survival, survival)
        )
    else:
        ok = (
            summary.n_dead == 0
            and totals["uncorrectable"] == 0
            and totals["silent"] == 0
            and totals["reads"] == totals["refreshes"]
        )
    work = {"block_ops": sum(totals[k] for k in BLOCK_OPS)}
    digest = hashlib.sha256(np.ascontiguousarray(summary.counts).tobytes()).hexdigest()
    return work, digest, 1, 0 if ok else 1, totals


@functools.lru_cache(maxsize=None)
def _analytic_cer(name: str) -> np.ndarray:
    """Reference curve of one design (seed-free, so computed once)."""
    return analytic_design_cer(design_by_name(name), PAPER_TIME_GRID_S)


def mc_unit(seed: int, jobs: int = 1):
    h = hashlib.sha256()
    attempted = failed = 0
    cells = 0
    t0 = time.perf_counter()
    for name in FIG8_DESIGNS:
        design = design_by_name(name)
        result = cer_mod.design_cer(design, PAPER_TIME_GRID_S, CER_CELLS, seed=seed, jobs=jobs)
        errors = np.rint(result.cer * result.n_samples).astype(np.int64)
        h.update(errors.tobytes())
        cells += result.n_samples
        for mc, an, n_err in zip(result.cer, _analytic_cer(name), errors):
            if n_err >= CER_MIN_ERRORS:
                attempted += 1
                failed += int(abs(an - mc) > 0.15 * abs(mc))
    t1 = time.perf_counter()
    results = bler_mod.bler_mc(FIG5_CERS, BLER_BLOCKS, seed=seed, jobs=jobs)
    t2 = time.perf_counter()
    for r in results:
        h.update(np.array([r.n_silent, r.n_errors], dtype=np.int64).tobytes())
        lo, hi = r.confidence(BLER_CONFIDENCE)
        attempted += 1
        failed += int(not lo <= block_error_rate(r.cer, BLER_CELLS, 1) <= hi)
    work = {
        "cells": cells,
        "cer_s": t1 - t0,
        "bler_blocks": BLER_BLOCKS * len(FIG5_CERS),
        "bler_s": t2 - t1,
    }
    return work, h.hexdigest(), attempted, failed, {}


def make_unit(workload: str):
    if workload == "fleet_paper":
        return lambda seed, jobs=1: fleet_unit(FLEET_PAPER, False, seed, jobs)
    if workload == "fleet_wearout":
        return lambda seed, jobs=1: fleet_unit(FLEET_WEAROUT, True, seed, jobs)
    if workload == "mc_paper":
        return mc_unit
    raise SystemExit(f"unknown batch workload {workload!r}")


def warm_up(workload: str) -> str:
    """Tiny calls that pay imports, codec tables and RNG self-checks."""
    if workload.startswith("fleet"):
        config = FLEET_WEAROUT if workload == "fleet_wearout" else FLEET_PAPER
        small = dataclasses.replace(config, n_devices=2, n_epochs=2)
        fleet_mc_mod.fleet_mc(small, seed=0)
        return type(FleetEngine(small, 0, 0, 1)).__name__
    cer_mod.design_cer(design_by_name("3LCo"), PAPER_TIME_GRID_S, 1000, seed=0)
    bler_mod.bler_mc(FIG5_CERS, 10, seed=0)
    return "n/a"


# ----------------------------------------------------------------------

def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def rates(workload, walls, works) -> dict[str, list[float]]:
    """Per-unit throughput series, by the unit each workload counts."""
    if workload == "mc_paper":
        return {
            "cells_per_s": [w["cells"] / w["cer_s"] for w in works],
            "bler_blocks_per_s": [w["bler_blocks"] / w["bler_s"] for w in works],
            "units_per_s": [1.0 / t for t in walls],
        }
    ops = [w["block_ops"] / t for w, t in zip(works, walls)]
    return {"block_ops_per_s": ops, "units_per_s": ops}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    unit = make_unit(workload)
    engine = warm_up(workload)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    if workload == "mc_paper":
        for name in FIG8_DESIGNS:
            _analytic_cer(name)  # check references, outside the timed units

    blocks_before = executor.blocks_evaluated()
    if mode == "trace":
        seeds = [_unit_seed(seed, i) for i in range(TRACE_UNITS[workload])]
        walls, works, attempted, failed, layer_metrics = trace(workload, unit, seeds)
    else:
        seeds, walls, works = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while not seeds or time.perf_counter() - start < seconds:
            seeds.append(_unit_seed(seed, len(seeds)))
            t = time.perf_counter()
            work, _, a, f, _ = unit(seeds[-1])
            walls.append(time.perf_counter() - t)
            works.append(work)
            attempted += a
            failed += f
    if workload == "mc_paper":
        # No cache may serve the run: every unit evaluated fresh blocks.
        attempted += 1
        failed += int(executor.blocks_evaluated() <= blocks_before)

    out = {
        "workload": workload,
        "seed": seed,
        "params": PARAMS[workload],
        "units": len(seeds),
        "engine": engine,
        "attempted": attempted,
        "failed": failed,
        "unit_wall_s": walls,
        "rates": rates(workload, walls, works),
        "peak_rss_mb": vm_hwm_mb(),
    }
    if mode == "trace":
        out["layers"] = layer_metrics
    print(json.dumps(out), flush=True)
    return 0


def trace(workload, unit, seeds):
    """Each unit untraced, then again traced, interleaved.

    Interleaving keeps slow spells of the machine out of the overhead
    ratio.  Returns the untraced walls and work, checks attempted and
    failed (including traced == untraced results), and layer metrics.
    """
    install = layers.install_mc if workload == "mc_paper" else layers.install_fleet
    tracer = Tracer()
    walls, t_walls, works, t_extras = [], [], [], []
    attempted = failed = 0
    traced_s = covered_s = 0.0
    blocks = 0
    for s in seeds:
        t = time.perf_counter()
        work, digest, a, f, _ = unit(s)
        walls.append(time.perf_counter() - t)
        works.append(work)
        install(tracer)
        b0 = executor.blocks_evaluated()
        lo = time.perf_counter()
        try:
            _, t_digest, _, _, extra = unit(s)
        finally:
            hi = time.perf_counter()
            tracer.unwrap_all()
        blocks += executor.blocks_evaluated() - b0
        t_walls.append(hi - lo)
        t_extras.append(extra)
        traced_s += hi - lo
        covered_s += tracer.covered(lo, hi)
        # Tracing must not feed any simulated result.
        attempted += a + 1
        failed += f + int(digest != t_digest)
    tracer.dump(os.path.join(".perfbench", f"spans-{workload}-{seeds[0] // 1000}.json"))

    metrics = layers.common_metrics(tracer)
    metrics["trace.overhead"] = statistics.median(t_walls) / statistics.median(walls)
    metrics["trace.uncovered_share"] = 1.0 - covered_s / traced_s
    metrics["montecarlo.blocks_evaluated"] = blocks
    if workload != "mc_paper":
        totals = {k: sum(x[k] for x in t_extras) for k in t_extras[0]}
        for name in FLEET_STATS:
            metrics[f"fleet.{name}"] = totals[name]
        metrics["fleet.retry_ratio"] = totals["write_retries"] / (
            totals["writes"] + totals["refreshes"] + totals["write_retries"]
        )
    if workload in FANOUT:
        speedup, same = FANOUT[workload](seeds[0])
        metrics["executor.fanout_speedup"] = speedup
        attempted += 1
        failed += int(not same)
    return walls, works, attempted, failed, metrics


def _fanout_fleet(seed: int) -> tuple[float, bool]:
    """One two-shard ``fleet_mc`` call at jobs=1 and at jobs=nproc."""
    config = dataclasses.replace(FLEET_PAPER, n_devices=2 * FLEET_SHARD_DEVICES)
    return _fanout(lambda jobs: fleet_mc_mod.fleet_mc(config, seed=seed, jobs=jobs).counts.tobytes())


def _fanout_mc(seed: int) -> tuple[float, bool]:
    """One pass at jobs=1 and at jobs=nproc."""
    return _fanout(lambda jobs: mc_unit(seed, jobs)[1])


def _fanout(call) -> tuple[float, bool]:
    walls, outs = [], []
    for jobs in (1, os.cpu_count() or 1):
        t = time.perf_counter()
        outs.append(call(jobs))
        walls.append(time.perf_counter() - t)
    return walls[0] / walls[1], outs[0] == outs[1]


#: Units of the traced run (and of its untraced reference).
TRACE_UNITS = {"fleet_paper": 6, "fleet_wearout": 6, "mc_paper": 8}
#: Workloads whose library calls can fan out over a process pool.
FANOUT = {"fleet_paper": _fanout_fleet, "mc_paper": _fanout_mc}
#: Workload parameters, recorded with every result.
PARAMS = {
    "fleet_paper": {"config": FLEET_PAPER.key_payload()},
    "fleet_wearout": {"config": FLEET_WEAROUT.key_payload()},
    "mc_paper": {
        "designs": FIG8_DESIGNS, "cells_per_design": CER_CELLS,
        "times_s": PAPER_TIME_GRID_S, "bler_cers": FIG5_CERS,
        "bler_blocks": BLER_BLOCKS,
    },
}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
