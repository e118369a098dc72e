"""Serial vs parallel Monte Carlo design CER (engineering benchmark).

Times a 4e6-cell ``design_cer`` once on a single core and once with one
worker per core, asserts the two runs return *identical* counts (the
executor's deterministic RNG fan-out guarantees bit-equality, not just
statistical agreement), and records the comparison in
``results/BENCH_mc.json``.  The >= 2x speedup floor is only asserted on
machines with at least 4 cores; single-core runners still exercise the
pool path and the identity check.

Caveat: the committed JSON was recorded on a 2-core box, where a
4e6-cell run (~0.3 s serial) is too short to pay for the pool's start-up
(speedup < 1); it documents the identity guarantee, not a parallel win.
The batched analytic path (``results/BENCH_cer_core.json``) is where
the CER speed lives.
"""

import os
import time

import numpy as np

from _report import emit_json, provenance
from repro.core.designs import four_level_naive
from repro.montecarlo.cer import design_cer
from repro.montecarlo.sweep import PAPER_TIME_GRID_S

N_SAMPLES = 4_000_000

#: Small enough that each active state splits into several pool tasks
#: (good load balance), large enough that task overhead stays negligible.
CHUNK = 250_000


def test_mc_parallel_identical_and_fast():
    design = four_level_naive()
    jobs = os.cpu_count() or 1

    t0 = time.perf_counter()
    serial = design_cer(design, PAPER_TIME_GRID_S, N_SAMPLES, seed=0, chunk=CHUNK, jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = design_cer(
        design, PAPER_TIME_GRID_S, N_SAMPLES, seed=0, chunk=CHUNK, jobs=jobs
    )
    t_parallel = time.perf_counter() - t0

    assert np.array_equal(serial.cer, parallel.cer), "parallel counts must be identical"
    assert serial.cer[-1] > 0

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    emit_json(
        "BENCH_mc",
        {
            "benchmark": "design_cer 4LCn, 9-point paper grid",
            **provenance(),
            "n_samples": N_SAMPLES,
            "chunk": CHUNK,
            "jobs": jobs,
            "serial_s": round(t_serial, 4),
            "parallel_s": round(t_parallel, 4),
            "speedup": round(speedup, 3),
            "identical_counts": True,
        },
    )

    if jobs >= 4:
        assert speedup >= 2.0, f"expected >=2x on {jobs} cores, got {speedup:.2f}x"
