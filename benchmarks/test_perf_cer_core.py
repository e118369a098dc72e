"""Vectorized CER core vs the pre-PR scalar path (engineering benchmark).

Three comparisons, all against genuinely pre-PR baselines and all
asserting bit-identical (analytic) or count-identical (MC) results:

1. **Analytic kernels** — the frozen pre-PR scalar quadrature
   (``_prepr_analytic``, one Python-loop quadrature per (state, time) /
   (design, time) pair) vs the batched time-axis/candidate-axis kernels,
   on the Figure-3 state rows, the Figure-8 design set, and an
   optimizer-style 3LC candidate grid.
2. **MC counts** — the executor's counts against the frozen per-block
   sort+searchsorted reduction, same draws, identical ``int64`` counts
   (a correctness check; no speed figure).
3. **End-to-end figure sweeps** — the pre-PR Fig-3/Fig-8 pipeline
   (Monte Carlo at the sweep defaults, plus the scalar analytic floor)
   vs the new ``engine="analytic"`` batched path.  This is where the
   ``REPRO_CER_SPEEDUP_FLOOR`` (default 10x) acceptance floor applies.

Env knobs: ``REPRO_CER_SWEEP_SAMPLES`` (default 10M, the sweep default)
scales the MC baseline; ``REPRO_CER_SPEEDUP_FLOOR`` (default 10) relaxes
the end-to-end floor on noisy shared runners.  The committed
``results/BENCH_cer_core.json`` records the reference-machine numbers.
"""

import os
import time

import numpy as np

import _prepr_analytic as prepr
from _report import emit_json
from repro.cells.params import TABLE1
from repro.core.designs import all_designs, four_level_naive
from repro.mapping.constraints import DesignSpace
from repro.mapping.optimizer import design_from_interior_mus
from repro.montecarlo.analytic import (
    analytic_design_cer_batch,
    analytic_state_cer_batch,
)
from repro.montecarlo.cer import critical_log_times, sample_state_cells
from repro.montecarlo.executor import RNG_BLOCK, StateRun, plan_blocks, run_counts
from repro.montecarlo.rng import block_rng
from repro.montecarlo.sweep import PAPER_TIME_GRID_S, fig3_state_sweep, fig8_design_sweep

SWEEP_SAMPLES = int(os.environ.get("REPRO_CER_SWEEP_SAMPLES", 10_000_000))
SPEEDUP_FLOOR = float(os.environ.get("REPRO_CER_SPEEDUP_FLOOR", 10.0))

#: Figure-3 resolution time grid for the kernel comparison (denser than
#: the 9 paper points, so per-call overhead is amortized on both sides).
FIG3_TIMES = np.logspace(1, 11, 40)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _bench_fig3_kernel() -> dict:
    design = four_level_naive()
    pairs = [
        (s, design.upper_threshold(i))
        for i, s in enumerate(design.states)
        if np.isfinite(design.upper_threshold(i))
    ]

    def scalar():
        return np.stack(
            [prepr.analytic_state_cer(s, tau, FIG3_TIMES) for s, tau in pairs]
        )

    def batched():
        return analytic_state_cer_batch(
            [s for s, _ in pairs], [tau for _, tau in pairs], FIG3_TIMES
        )

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "fig3 analytic rows must be bit-identical"
    return {
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _bench_fig8_kernel() -> dict:
    designs = all_designs()
    names = sorted(designs)

    def scalar():
        return np.stack(
            [prepr.analytic_design_cer(designs[n], PAPER_TIME_GRID_S) for n in names]
        )

    def batched():
        return analytic_design_cer_batch([designs[n] for n in names], PAPER_TIME_GRID_S)

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "fig8 analytic curves must be bit-identical"
    return {
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _bench_optimizer_grid() -> dict:
    """The coarse grid scan of ``optimize_mapping(3, ...)``, both ways."""
    space = DesignSpace(n_levels=3)
    lo = space.mu_lo + 2 * space.margin
    hi = space.mu_hi - 2 * space.margin
    cands = np.linspace(lo, hi, 24)
    designs = [design_from_interior_mus(space, [c]) for c in cands]
    times = [2.0**15, 2.0**25, 2.0**30]

    def scalar():
        return np.stack(
            [prepr.analytic_design_cer(d, times, z_points=301) for d in designs]
        )

    def batched():
        return analytic_design_cer_batch(designs, times, z_points=301)

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "grid-scan objective must be bit-identical"
    return {
        "candidates": len(designs),
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _prefusion_counts(run: StateRun, L_grid: np.ndarray, schedule) -> np.ndarray:
    """The pre-PR per-block reduction: sort + searchsorted per RNG block."""
    n_tiers = 0
    if schedule.mode == "independent" and np.isfinite(run.tau):
        n_tiers = len(schedule.tiers_between(-np.inf, run.tau))
    counts = np.zeros(len(L_grid), dtype=np.int64)
    for i, size in enumerate(plan_blocks(run.n_samples)):
        rng = block_rng(run.entropy, run.prefix + (i,))
        lr0, alpha, z = sample_state_cells(run.state, size, rng)
        tier_z = None
        if n_tiers:
            tier_z = [rng.standard_normal(size) for _ in range(n_tiers)]
        L_star = critical_log_times(
            lr0, alpha, z, run.state.drift.mu_alpha, run.tau, schedule, tier_z
        )
        L_star.sort()
        counts += np.searchsorted(L_star, L_grid, side="right")
    return counts


def _check_mc_counts() -> dict:
    from repro.cells.drift import PAPER_ESCALATION

    L = np.log10(np.asarray(sorted(PAPER_TIME_GRID_S)))
    run = StateRun(TABLE1["S2"], 5.5, 2_000_000, 11, ())

    ref = _prefusion_counts(run, L, PAPER_ESCALATION)
    new = run_counts([run], L, schedule=PAPER_ESCALATION)[0]
    assert np.array_equal(ref, new), "MC counts must be bit-identical"
    return {
        "n_samples": run.n_samples,
        "rng_block": RNG_BLOCK,
        "bit_identical_counts": True,
    }


def _bench_end_to_end() -> dict:
    mc3, t_mc3 = _timed(
        lambda: fig3_state_sweep(n_samples=SWEEP_SAMPLES, engine="mc")
    )
    an3, t_an3 = _timed(lambda: fig3_state_sweep(engine="analytic"))

    def fig8_pre_pr():
        sweep = fig8_design_sweep(
            n_samples=SWEEP_SAMPLES, engine="mc", analytic_floor=False
        )
        # Pre-PR pipeline fills unresolved points with the scalar analytic.
        designs = all_designs()
        for name, curve in sweep.series.items():
            an = prepr.analytic_design_cer(designs[name], sweep.times_s)
            unresolved = curve < sweep.floor
            curve[unresolved] = an[unresolved]
        return sweep

    mc8, t_mc8 = _timed(fig8_pre_pr)
    an8, t_an8 = _timed(lambda: fig8_design_sweep(engine="analytic"))

    # Sanity: the analytic engine agrees with the MC where the MC resolves
    # well (>= 100 errors), for every series of both figures.
    for mc, an in ((mc3, an3), (mc8, an8)):
        for name in mc.series:
            m, a = mc.series[name], an.series[name]
            solid = m >= 100.0 * mc.floor
            assert np.allclose(a[solid], m[solid], rtol=0.25), name
    return {
        "n_samples": SWEEP_SAMPLES,
        "fig3_mc_s": round(t_mc3, 3),
        "fig3_analytic_s": round(t_an3, 4),
        "fig3_speedup": round(t_mc3 / t_an3, 1),
        "fig8_mc_s": round(t_mc8, 3),
        "fig8_analytic_s": round(t_an8, 4),
        "fig8_speedup": round(t_mc8 / t_an8, 1),
    }


def test_cer_core_speedups():
    fig3 = _bench_fig3_kernel()
    fig8 = _bench_fig8_kernel()
    grid = _bench_optimizer_grid()
    mc_counts = _check_mc_counts()
    end_to_end = _bench_end_to_end()

    emit_json(
        "BENCH_cer_core",
        {
            "benchmark": "vectorized CER core vs pre-PR scalar path",
            "speedup_floor": SPEEDUP_FLOOR,
            "analytic_fig3_kernel": fig3,
            "analytic_fig8_kernel": fig8,
            "optimizer_grid_scan": grid,
            "mc_counts": mc_counts,
            "figure_sweeps_end_to_end": end_to_end,
        },
    )

    assert end_to_end["fig3_speedup"] >= SPEEDUP_FLOOR, end_to_end
    assert end_to_end["fig8_speedup"] >= SPEEDUP_FLOOR, end_to_end
    # The batched quadrature must never lose to the scalar path.
    assert fig3["speedup"] >= 1.0 and fig8["speedup"] >= 1.0 and grid["speedup"] >= 1.0
