"""Batched datapath kernels vs the scalar codecs (engineering benchmark).

Times the Figure-9 read path both ways — the scalar
:class:`ThreeOnTwoBlockCodec` looped block by block, and the bit-packed
:class:`BatchThreeOnTwoCodec` decoding 100k blocks in one call — asserts
the >= 50x speedup the batch layer exists for, and cross-validates the
empirical BLER engine against the analytic Figure 5 curve at three CER
operating points (the analytic value must fall inside each point's exact
95% binomial interval).  It also times the single-row batch encode and
decode (the shapes a service write/read and a fleet retry send) and the
``bler_mc`` wall time, and at the default 1e6 blocks asserts the BLER
counts equal the pinned :data:`BLER_COUNTS`.  Everything lands in
``results/BENCH_datapath.json``.

Block counts are env-tunable: ``REPRO_BLER_BLOCKS`` (default 1e6) scales
the Monte Carlo validation, ``REPRO_BATCH_BLOCKS`` (default 100k) the
throughput measurement.  ``REPRO_SPEEDUP_FLOOR`` (default 50) relaxes
the speedup assertion on noisy shared runners; the committed
``results/BENCH_datapath.json`` records the reference-machine number.
"""

import os
import statistics
import time

import numpy as np

from _report import emit_json
from repro.analysis.bler import block_error_rate
from repro.coding.batch import BatchThreeOnTwoCodec
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.montecarlo.bler_mc import bler_mc

SCALAR_BLOCKS = 2_000
BATCH_BLOCKS = int(os.environ.get("REPRO_BATCH_BLOCKS", 100_000))
BLER_BLOCKS = int(os.environ.get("REPRO_BLER_BLOCKS", 1_000_000))
BLER_CERS = [1e-3, 3e-3, 1e-2]
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SPEEDUP_FLOOR", 50.0))
SINGLE_ROW_REPEATS = 2_000

#: ``(n_errors, n_silent)`` per BLER_CERS point of ``bler_mc`` at 1e6
#: blocks, seed 0: any change to the draws, the injection or the decode
#: that moves a count fails here.
BLER_COUNTS = {1e-3: (49329, 23592), 3e-3: (287311, 137814), 1e-2: (869972, 418888)}


def _median_us(fn, repeats: int) -> float:
    """Median wall time of one call, in microseconds."""
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def test_batch_decode_speedup_and_bler_validation():
    codec = ThreeOnTwoBlockCodec()
    batch = BatchThreeOnTwoCodec(codec)
    rng = np.random.default_rng(0)

    data = rng.integers(0, 2, size=(BATCH_BLOCKS, codec.data_bits), dtype=np.uint8)
    states, checks = batch.encode(data)

    # Scalar reference rate over a subsample long enough to stabilize.
    t0 = time.perf_counter()
    for i in range(SCALAR_BLOCKS):
        codec.decode(states[i], checks[i])
    scalar_rate = SCALAR_BLOCKS / (time.perf_counter() - t0)

    # Batch rate over the full population (warm once for fair timing).
    batch.decode(states[:1024], checks[:1024])
    t0 = time.perf_counter()
    out = batch.decode(states, checks)
    batch_rate = BATCH_BLOCKS / (time.perf_counter() - t0)

    assert np.array_equal(out.data_bits, data), "clean decode must round-trip"
    assert not out.uncorrectable.any()
    speedup = batch_rate / scalar_rate

    # Single-row batch calls: the per-call cost small batches pay.
    encode_us = _median_us(lambda: batch.encode(data[:1]), SINGLE_ROW_REPEATS)
    decode_us = _median_us(
        lambda: batch.decode(states[:1], checks[:1]), SINGLE_ROW_REPEATS
    )

    # Empirical end-to-end BLER vs the analytic Figure 5 curve.
    t0 = time.perf_counter()
    results = bler_mc(BLER_CERS, BLER_BLOCKS, seed=0, jobs=0)
    bler_s = time.perf_counter() - t0
    points = []
    for r in results:
        lo, hi = r.confidence()
        analytic = block_error_rate(r.cer, codec.n_mlc_cells, 1)
        points.append(
            {
                "cer": r.cer,
                "empirical_bler": round(r.bler, 6),
                "ci95": [round(lo, 6), round(hi, 6)],
                "analytic_bler": round(analytic, 6),
                "analytic_in_ci": bool(lo <= analytic <= hi),
                "n_errors": r.n_errors,
                "n_silent": r.n_silent,
            }
        )

    emit_json(
        "BENCH_datapath",
        {
            "benchmark": "batched 3-ON-2 datapath vs scalar codec",
            "cpu_count": os.cpu_count() or 1,
            "numpy": np.__version__,
            "scalar_blocks": SCALAR_BLOCKS,
            "batch_blocks": BATCH_BLOCKS,
            "scalar_blocks_per_s": round(scalar_rate),
            "batch_blocks_per_s": round(batch_rate),
            "speedup": round(speedup, 1),
            "single_row_encode_us": round(encode_us, 1),
            "single_row_decode_us": round(decode_us, 1),
            "bler_mc_blocks_per_point": BLER_BLOCKS,
            "bler_mc_s": round(bler_s, 2),
            "bler_points": points,
        },
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batch layer must be >={SPEEDUP_FLOOR:g}x scalar, got {speedup:.1f}x"
    )
    for p in points:
        assert p["analytic_in_ci"], p
    if BLER_BLOCKS == 1_000_000:
        got = {p["cer"]: (p["n_errors"], p["n_silent"]) for p in points}
        assert got == BLER_COUNTS
