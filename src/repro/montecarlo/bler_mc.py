"""Empirical end-to-end BLER via the batched Figure-9 datapath.

The analytic Figure 5 curves (:func:`repro.analysis.bler.block_error_rate`)
assume one erring cell is exactly one correctable bit error.  This engine
*measures* the block error rate instead: it encodes random data through
the 3-ON-2 pipeline, flips cells at a given per-cell error rate (CER),
decodes with the vectorized :class:`repro.coding.batch.BatchThreeOnTwoCodec`,
and counts blocks whose recovered data differs from what was written or
whose decode flagged an uncorrectable condition.  At matched operating
points the analytic value must fall inside the empirical Clopper-Pearson
interval (:func:`repro.analysis.bler.binom_confidence`) — the
cross-validation the acceptance tests and ``repro bler --empirical`` run.

Error injection model: an erring cell moves to the adjacent state
(S1→S2, S2→S4, S4→S2).  Each such move flips exactly one bit of the
cell's Gray-coded TEC pair, so the number of TEC bit errors per block is
``Binomial(n_cells, cer)`` — precisely the analytic model's assumption,
which makes the comparison apples-to-apples.

Determinism contract (same as :mod:`repro.montecarlo.executor`): work is
split into fixed :data:`~repro.montecarlo.executor.RNG_BLOCK`-sized RNG
blocks, each seeded as a pure function of ``(entropy, BLER_SPAWN_KEY,
block index)``.  Results are bit-identical for any ``chunk``/``jobs``
setting, which is also why those knobs are absent from the cache key
(:func:`repro.montecarlo.results_cache.bler_counts_key`).

All CER points share *common random numbers*: one uniform draw per cell
is compared against each threshold, so the empirical curve is monotone
in ``cer`` by construction and point-to-point differences have far lower
variance than independent runs would.

Injection is sparse.  Only cells whose uniform falls below the largest
CER can ever err, so each RNG block keeps just their flat indices
(``flatnonzero(u < max(cers))``, ~``max(cers)`` of the cells).  Each
CER then takes the subset below its own threshold, applies
:data:`ERR_STATE` to those cells only, and decodes only the rows that
hold one.  A row with no erring cell reads back the encoder's own
output, which decodes to the written data with no failure flag, so
skipping it leaves every count unchanged: the counts are bit-identical
to injecting into and decoding every block.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.analysis.bler import binom_confidence
from repro.chaos.registry import fault_point
from repro.coding.batch import shared_codec
from repro.montecarlo.executor import RNG_BLOCK, plan_blocks, resolve_jobs
from repro.montecarlo.results_cache import ResultsCache, bler_counts_key
from repro.montecarlo.rng import block_rng, seed_entropy

__all__ = [
    "BLER_SPAWN_KEY",
    "DEFAULT_CHUNK_BLOCKS",
    "BlerResult",
    "bler_mc",
]

#: Spawn-key namespace separating BLER draws from every other consumer of
#: the shared entropy (CER engines use bare block indices; campaign jobs
#: use their own prefixes).
BLER_SPAWN_KEY = 0xB1E6

#: Blocks per worker task: 10 RNG blocks, ~36 MB of peak temporaries in
#: the batched decode — large enough to amortize process dispatch, small
#: enough that a dozen workers fit comfortably in memory.
DEFAULT_CHUNK_BLOCKS = 100_000

#: Adjacent-state error injection LUT: S1->S2, S2->S4, S4->S2.  Each move
#: flips exactly one Gray-coded TEC bit (00->01, 01->11, 11->01), keeping
#: the per-block error count Binomial(n_cells, cer) like the analytic model.
ERR_STATE = np.array([1, 2, 1], dtype=np.uint8)
ERR_STATE.setflags(write=False)


@dataclasses.dataclass(frozen=True)
class _BlerTask:
    """One picklable unit of work: a run of RNG blocks, all missing CERs."""

    item: int
    data_bits: int
    n_spare_pairs: int
    cers: tuple[float, ...]
    first_block: int
    sizes: tuple[int, ...]
    entropy: int


def _eval_bler_task(task: _BlerTask) -> np.ndarray:
    """Evaluate one task; returns ``(len(cers), 2)`` silent/error counts.

    Each RNG block draws its data and uniforms once and reuses them for
    every CER (common random numbers): the encode runs once per block
    regardless of how many operating points are being filled in, and
    each CER decodes only the rows it puts an error into.
    """
    fault_point("executor.task", item=task.item, first_block=task.first_block)
    bc = shared_codec(task.data_bits, task.n_spare_pairs)
    n_cells = bc.codec.n_mlc_cells
    counts = np.zeros((len(task.cers), 2), dtype=np.int64)
    for offset, size in enumerate(task.sizes):
        rng = block_rng(task.entropy, (BLER_SPAWN_KEY, task.first_block + offset))
        # Draw order is part of the determinism contract: data first,
        # then one uniform per cell.
        data = rng.integers(0, 2, size=(size, task.data_bits), dtype=np.uint8)
        u = rng.random((size, n_cells))
        states, checks = bc.encode(data)
        hit = np.flatnonzero(u < max(task.cers))
        u_hit = u.ravel()[hit]
        for j, cer in enumerate(task.cers):
            cells = hit[u_hit < cer]
            if not cells.size:
                continue  # no erring cell: every row decodes clean
            rows, local = np.unique(cells // n_cells, return_inverse=True)
            cols = cells % n_cells
            read = states[rows]
            read[local, cols] = ERR_STATE[read[local, cols]]
            out = bc.decode(read, checks[rows])
            mismatch = np.any(out.data_bits != data[rows], axis=1)
            silent = mismatch & ~out.uncorrectable
            errors = out.uncorrectable | mismatch
            counts[j, 0] += int(silent.sum())
            counts[j, 1] += int(errors.sum())
    return counts


@dataclasses.dataclass(frozen=True)
class BlerResult:
    """Empirical outcome of one (CER, n_blocks) operating point.

    ``n_errors`` counts blocks that failed in *any* way — a decode that
    raised a failure flag or returned wrong data.  ``n_silent`` is the
    subset that returned wrong data without flagging (multi-error escapes
    past the invalid-pattern check); always ``<= n_errors``.
    """

    cer: float
    n_blocks: int
    n_silent: int
    n_errors: int

    @property
    def n_detected(self) -> int:
        """Blocks that failed and said so."""
        return self.n_errors - self.n_silent

    @property
    def bler(self) -> float:
        """Point estimate of the block error rate."""
        if self.n_blocks == 0:
            return 0.0
        return self.n_errors / self.n_blocks

    def confidence(self, level: float = 0.95) -> tuple[float, float]:
        """Exact two-sided binomial CI on the block error rate."""
        return binom_confidence(self.n_errors, self.n_blocks, level)


def bler_mc(
    cers: float | Sequence[float],
    n_blocks: int,
    seed: int | np.random.Generator | None = 0,
    *,
    data_bits: int = 512,
    n_spare_pairs: int = 6,
    chunk: int = DEFAULT_CHUNK_BLOCKS,
    jobs: int | None = 1,
    cache: ResultsCache | None = None,
) -> list[BlerResult]:
    """Measure end-to-end BLER at one or more CER points.

    Pushes ``n_blocks`` random 3-ON-2 blocks through encode, adjacent-state
    error injection at each ``cer``, and the batched Figure-9 decode,
    returning one :class:`BlerResult` per requested point (in input
    order).  Results are bit-identical for any ``chunk``/``jobs``
    combination; with a :class:`ResultsCache`, previously measured points
    are served without recomputation.
    """
    cer_list = [float(c) for c in np.atleast_1d(np.asarray(cers, dtype=float))]
    if not cer_list:
        raise ValueError("need at least one CER point")
    for c in cer_list:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"cer must be in [0, 1], got {c}")
    n_blocks = int(n_blocks)
    if n_blocks < 1:
        raise ValueError(f"need at least one block, got {n_blocks}")
    entropy = seed_entropy(seed)

    totals: dict[float, np.ndarray] = {}
    missing: list[float] = []
    for c in dict.fromkeys(cer_list):  # unique, order-preserving
        cached = None
        if cache is not None:
            key = bler_counts_key(
                c, data_bits, n_spare_pairs, n_blocks, entropy, (BLER_SPAWN_KEY,)
            )
            cached = cache.get_counts(key, expected_len=2)
        if cached is not None:
            totals[c] = cached
        else:
            missing.append(c)

    if missing:
        sizes = plan_blocks(n_blocks)
        blocks_per_task = max(1, int(chunk) // RNG_BLOCK)
        tasks = [
            _BlerTask(
                item=i,
                data_bits=data_bits,
                n_spare_pairs=n_spare_pairs,
                cers=tuple(missing),
                first_block=lo,
                sizes=tuple(sizes[lo : lo + blocks_per_task]),
                entropy=entropy,
            )
            for i, lo in enumerate(range(0, len(sizes), blocks_per_task))
        ]
        n_jobs = resolve_jobs(jobs)
        if n_jobs <= 1 or len(tasks) <= 1:
            parts = [_eval_bler_task(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
                parts = list(pool.map(_eval_bler_task, tasks))
        summed = np.sum(parts, axis=0, dtype=np.int64)
        for j, c in enumerate(missing):
            totals[c] = summed[j]
            if cache is not None:
                key = bler_counts_key(
                    c, data_bits, n_spare_pairs, n_blocks, entropy, (BLER_SPAWN_KEY,)
                )
                cache.put_counts(key, summed[j])

    return [
        BlerResult(
            cer=c,
            n_blocks=n_blocks,
            n_silent=int(totals[c][0]),
            n_errors=int(totals[c][1]),
        )
        for c in cer_list
    ]
