"""Batched, bit-packed datapath kernels: decode N blocks per call.

The scalar codecs (:class:`repro.coding.bch.BCH`,
:class:`repro.coding.blockcodec.ThreeOnTwoBlockCodec`) walk Figure 9's
read path one 512-bit block at a time.  This module runs the same path
over ``(n_blocks, ...)`` arrays in a handful of NumPy passes:

- **Byte-table remainders** — a word's remainder modulo the generator
  polynomial is linear over GF(2): the XOR of the remainders its set
  bits contribute.  Rows are packed eight bits to a byte
  (``np.packbits``), and a ``(n_bytes, 256)`` table, built once per
  code, holds the XOR for every value of every byte.  A batch of
  remainders is then one gather and one ``bitwise_xor.reduce``, whatever
  the batch size (:class:`_RemainderTable`).  The systematic check bits
  are the remainder of the data alone, so encode and decode share it.
- **Zero-syndrome dispatch** — a received word is error-free iff its
  remainder is zero (:meth:`repro.coding.bch.BCH.position_remainders`),
  and at datapath CERs almost every block is clean.  The batch decoder
  computes all N remainders in one table pass and only touches the
  (rare) nonzero rows again.
- **t = 1 vectorized correction** — for BCH-1 the remainder *is* the
  syndrome ``S1 = alpha^deg`` of the single error, so a discrete-log
  table lookup yields every error position at once; no Berlekamp-Massey,
  no Chien search.  For ``t > 1`` the nonzero-remainder rows fall back to
  the scalar decoder (still skipping the clean majority).
- **LUT symbol stages** — 3-ON-2 pair encode/decode, the invalid-"10"
  TEC-pattern screen, and mark-and-spare squeezing
  (:func:`repro.wearout.mark_and_spare.correct_values_batch`) are table
  gathers and stable sorts over integer arrays.

Everything returns structured outcome arrays (decoded bits, per-block
``tec_corrected`` / ``hec_pairs_dropped``, an ``uncorrectable`` mask with
the failing stage) and is bit-identical to looping the scalar codecs —
the hypothesis differential suite in ``tests/test_batch_datapath.py``
holds the two paths together.

The empirical BLER engine (:mod:`repro.montecarlo.bler_mc`) drives these
kernels at ~1e6 blocks per run; ``benchmarks/test_perf_datapath_batch.py``
records the scalar-vs-batch throughput in ``results/BENCH_datapath.json``.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from repro.chaos.registry import fault_point
from repro.coding.bch import BCH, BCHDecodeFailure
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.core.three_on_two import (
    BITS_PER_PAIR,
    INV_VALUE,
    INVALID_TEC_VALUE,
    TEC_VALUE_TO_STATE,
)
from repro.wearout.mark_and_spare import MarkAndSpareBlock, correct_values_batch

__all__ = [
    "DATAPATH_VERSION",
    "FAIL_NONE",
    "FAIL_TEC",
    "FAIL_INVALID_PATTERN",
    "FAIL_HEC",
    "BatchBCH",
    "BatchBCHResult",
    "BatchDecodedBlocks",
    "BatchThreeOnTwoCodec",
    "shared_codec",
]

#: Salt for persistent BLER-MC cache keys (alongside the executor's
#: ``ENGINE_VERSION``); bump on any change that alters what the batch
#: kernels compute from the same inputs.
DATAPATH_VERSION = 1

#: ``fail_stage`` codes of :class:`BatchDecodedBlocks`, in pipeline order.
FAIL_NONE = 0  #: decoded fine
FAIL_TEC = 1  #: BCH reported an uncorrectable pattern (Figure 9 stage 1)
FAIL_INVALID_PATTERN = 2  #: post-ECC "10" cell view: multi-error escape
FAIL_HEC = 3  #: more INV pairs than spares (mark-and-spare exhausted)

#: Rows per internal decode chunk: large enough to amortize per-call
#: numpy overhead, small enough that a chunk's inter-stage temporaries
#: (~10 MB at 8192 rows) stay cache-resident.
_DECODE_CHUNK = 8192


class _RemainderTable:
    """GF(2) remainders of byte-packed rows: one gather, one XOR-reduce.

    ``bit_remainders[i]`` is the remainder a set bit ``i`` of the row
    layout contributes (``np.packbits`` order: bit ``i`` is the
    most-significant-first bit ``i % 8`` of byte ``i // 8``).  Entry
    ``[j, v]`` of the table is the XOR of the contributions of the set
    bits of value ``v`` in byte ``j``, so a row's remainder is the XOR of
    one entry per byte.  Remainders are held in 16-bit lanes: one lane
    (a flat ``(n_bytes * 256,)`` uint16 table) for every ``t = 1`` code
    here, more for wide ``t > 1`` codes.
    """

    def __init__(self, bit_remainders: np.ndarray, n_check: int):
        self.n_check = n_check
        n_bytes = -(-len(bit_remainders) // 8)
        n_lanes = -(-n_check // 16)
        shifts = 16 * np.arange(n_lanes, dtype=object)  # exact for Python ints
        per_bit = np.zeros((8 * n_bytes, n_lanes), dtype=np.uint16)
        per_bit[: len(bit_remainders)] = (
            np.asarray(bit_remainders, dtype=object)[:, None] >> shifts
        ) & 0xFFFF
        per_bit = per_bit.reshape(n_bytes, 8, n_lanes)
        table = np.zeros((n_bytes, 256, n_lanes), dtype=np.uint16)
        for i in range(8):  # value bit 1 << i is packbits bit 7 - i
            w = 1 << i
            table[:, w : 2 * w] = table[:, :w] ^ per_bit[:, None, 7 - i]
        table = table.reshape(n_bytes * 256, n_lanes)
        self._table = table[:, 0].copy() if n_lanes == 1 else table
        self._offsets = (256 * np.arange(n_bytes)).astype(
            np.min_scalar_type(256 * n_bytes - 1)
        )
        # Check-bit array index c holds remainder bit n_check - 1 - c
        # (the scalar encoder's ordering).
        bit = np.arange(n_check - 1, -1, -1)
        self._bit_lane = bit // 16
        self._bit_shift = (bit % 16).astype(np.uint16)

    def __call__(self, byte_rows: np.ndarray) -> np.ndarray:
        """Remainders of ``(n_rows, n_cols)`` uint8 rows, as 16-bit lanes.

        The rows hold the first ``n_cols`` bytes of the layout; bytes
        past them count as zero.  Returns ``(n_rows,)`` for a one-lane
        code, ``(n_rows, n_lanes)`` otherwise.
        """
        index = byte_rows + self._offsets[: byte_rows.shape[1]]
        return np.bitwise_xor.reduce(np.take(self._table, index, axis=0), axis=1)

    def check_bits(self, rem: np.ndarray) -> np.ndarray:
        """``(n_rows, n_check)`` uint8 remainder bits, check-bit ordered."""
        lanes = rem.reshape(rem.shape[0], -1)
        return ((lanes[:, self._bit_lane] >> self._bit_shift) & 1).astype(np.uint8)

    def as_ints(self, rem: np.ndarray) -> np.ndarray:
        """Remainders as integers (object dtype past 62 check bits)."""
        lanes = rem.reshape(rem.shape[0], -1)
        dtype: type | np.dtype = np.int64 if self.n_check < 63 else object
        out = np.zeros(lanes.shape[0], dtype=dtype)
        for lane in range(lanes.shape[1]):
            out |= lanes[:, lane].astype(dtype) << (16 * lane)
        return out


@dataclasses.dataclass(frozen=True)
class BatchBCHResult:
    """Outcome arrays of one batch decode (no exceptions: masks instead).

    ``data`` holds each row's first ``k`` (message) bits after
    correction; rows flagged ``uncorrectable`` carry the *received* data
    bits unchanged (the scalar decoder raises there).  ``n_corrected``
    counts corrected bit errors per row.
    """

    data: np.ndarray  # (n_rows, k) uint8
    n_corrected: np.ndarray  # (n_rows,) int64
    uncorrectable: np.ndarray  # (n_rows,) bool


class BatchBCH:
    """Vectorized encoder/decoder over a scalar :class:`BCH` code.

    Builds one byte-table remainder kernel over the codeword layout
    from the code's position-remainder table; encode (the remainder of
    the data prefix) and syndrome evaluation are then one table pass
    over the packed rows, whatever the batch size.
    """

    def __init__(self, code: BCH):
        self.code = code
        remainders = code.position_remainders()
        self._remainder = _RemainderTable(remainders, code.n_check)
        if code.t == 1:
            # For one error the remainder is S1 = alpha^deg itself, and
            # position i contributes remainder `remainders[i]`: invert
            # the table once and correction is a single gather.
            locate = np.full(1 << code.m, -1, dtype=np.int64)
            locate[remainders] = np.arange(code.n)
            locate[0] = -1  # zero is "no error", never a location
            self._t1_locate: np.ndarray | None = locate
        else:
            self._t1_locate = None

    def t1_error_positions(self, nonzero_remainders: np.ndarray) -> np.ndarray:
        """Error position for each nonzero remainder of a ``t = 1`` code.

        ``-1`` marks remainders whose syndrome points outside the
        shortened word: detectably uncorrectable, exactly the patterns
        for which the scalar Chien search finds no root in range.
        """
        if self._t1_locate is None:
            raise ValueError(f"not a single-error code: t={self.code.t}")
        return self._t1_locate[np.asarray(nonzero_remainders, dtype=np.int64)]

    def check_bits(self, data: np.ndarray) -> np.ndarray:
        """Systematic check bits of ``(n_rows, k)`` data rows."""
        d = np.ascontiguousarray(data, dtype=np.uint8)
        if d.ndim != 2 or d.shape[1] != self.code.k:
            raise ValueError(f"expected (n_rows, {self.code.k}) bits, got {d.shape}")
        # Check positions follow the data, so packing the data alone
        # leaves them (and the last byte's padding) zero.
        rem = self._remainder(np.packbits(d, axis=1))
        return self._remainder.check_bits(rem)

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Systematic batch encode: ``[data | check]`` rows."""
        d = np.ascontiguousarray(data, dtype=np.uint8)
        return np.concatenate([d, self.check_bits(d)], axis=1)

    def remainders(self, received: np.ndarray) -> np.ndarray:
        """Remainder of every row modulo the generator, as integers.

        Zero iff the row is a codeword (all ``2t`` syndromes vanish), so
        this one pass implements the zero-syndrome dispatch.
        """
        r = np.ascontiguousarray(received, dtype=np.uint8)
        if r.ndim != 2 or r.shape[1] != self.code.n:
            raise ValueError(f"expected (n_rows, {self.code.n}) bits, got {r.shape}")
        return self._remainder.as_ints(self._remainder(np.packbits(r, axis=1)))

    def decode(self, received: np.ndarray) -> BatchBCHResult:
        """Batch bounded-distance decode; bit-identical to scalar loops.

        Zero-remainder rows return immediately untouched.  With ``t = 1``
        the nonzero rows are corrected by one discrete-log gather (rows
        whose syndrome points outside the shortened word are flagged
        uncorrectable, exactly where the scalar Chien search finds no
        root).  With ``t > 1`` only the nonzero rows take the scalar
        Berlekamp-Massey + Chien path.
        """
        r = np.ascontiguousarray(received, dtype=np.uint8)
        rem = self.remainders(r)
        n_rows = r.shape[0]
        n_corrected = np.zeros(n_rows, dtype=np.int64)
        uncorrectable = np.zeros(n_rows, dtype=bool)
        dirty = np.nonzero(rem)[0]
        if dirty.size:
            r = r.copy()
            if self._t1_locate is not None:
                pos = self._t1_locate[rem[dirty]]
                bad = pos < 0
                uncorrectable[dirty[bad]] = True
                hit_rows = dirty[~bad]
                r[hit_rows, pos[~bad]] ^= 1
                n_corrected[hit_rows] = 1
            else:
                for i in dirty:
                    try:
                        data_i, n_i = self.code.decode(r[i])
                    except BCHDecodeFailure:
                        uncorrectable[i] = True
                    else:
                        r[i, : self.code.k] = data_i
                        n_corrected[i] = n_i
        return BatchBCHResult(
            data=r[:, : self.code.k],
            n_corrected=n_corrected,
            uncorrectable=uncorrectable,
        )


@dataclasses.dataclass(frozen=True)
class BatchDecodedBlocks:
    """Structured outcome of a batch Figure-9 read (see fail codes).

    Rows with ``uncorrectable`` set correspond exactly to the blocks for
    which the scalar :meth:`ThreeOnTwoBlockCodec.decode` raises
    :class:`~repro.coding.blockcodec.UncorrectableBlock`; their
    ``data_bits`` content is unspecified.  All other rows are
    bit-identical to the scalar decode.
    """

    data_bits: np.ndarray  # (n_blocks, data_bits) uint8
    tec_corrected: np.ndarray  # (n_blocks,) int64
    hec_pairs_dropped: np.ndarray  # (n_blocks,) int64
    uncorrectable: np.ndarray  # (n_blocks,) bool
    fail_stage: np.ndarray  # (n_blocks,) uint8 (FAIL_* codes)


class BatchThreeOnTwoCodec:
    """Batched mirror of :class:`ThreeOnTwoBlockCodec` (Sections 6.1-6.5).

    Wraps a scalar codec (its geometry and BCH-1 instance are shared) and
    runs encode/decode over ``(n_blocks, ...)`` arrays.
    """

    def __init__(self, codec: ThreeOnTwoBlockCodec | None = None):
        if codec is None:
            codec = ThreeOnTwoBlockCodec()
        self.codec = codec
        self.bch = BatchBCH(codec.tec)
        cfg = codec.ms_config
        self._n_pairs = cfg.n_pairs
        self._padded_bits = cfg.n_data_pairs * BITS_PER_PAIR
        # State-domain remainder layout: even TEC codeword positions hold
        # each cell's high bit (1 iff S4), odd its low bit (1 iff >= S2).
        # Byte rows are [high plane | low plane | check bits], each
        # padded to whole bytes, so encode and decode pack the states
        # directly and never build the (n_blocks, 708) TEC bit matrix.
        code = codec.tec
        remainders = code.position_remainders()
        n_cells = codec.n_mlc_cells
        self._plane_bytes = -(-n_cells // 8)
        plane_bits = 8 * self._plane_bytes
        per_bit = np.zeros(2 * plane_bits + code.n_check, dtype=remainders.dtype)
        per_bit[:n_cells] = remainders[0 : code.k : 2]
        per_bit[plane_bits : plane_bits + n_cells] = remainders[1 : code.k : 2]
        per_bit[2 * plane_bits :] = remainders[code.k :]
        self._remainder = _RemainderTable(per_bit, code.n_check)

    # ------------------------------------------------------------------
    def _marked_matrix(
        self,
        n_blocks: int,
        blocks: (
            MarkAndSpareBlock
            | Sequence[MarkAndSpareBlock | None]
            | np.ndarray
            | None
        ),
    ) -> np.ndarray | None:
        """Per-row marked-pair mask, or ``None`` when every block is fresh."""
        if blocks is None:
            return None
        if isinstance(blocks, np.ndarray):
            # Raw (n_blocks, n_pairs) bool mask: the structure-of-arrays
            # engine hands its marked plane in directly, no objects.
            if blocks.shape != (n_blocks, self._n_pairs) or blocks.dtype != bool:
                raise ValueError(
                    f"expected a ({n_blocks}, {self._n_pairs}) bool marked "
                    f"mask, got {blocks.dtype} {blocks.shape}"
                )
            return blocks if blocks.any() else None
        if isinstance(blocks, MarkAndSpareBlock):
            row = np.zeros(self._n_pairs, dtype=bool)
            row[blocks.marked_pairs] = True
            if not row.any():
                return None
            return np.broadcast_to(row, (n_blocks, self._n_pairs))
        if len(blocks) != n_blocks:
            raise ValueError(
                f"got {len(blocks)} block states for {n_blocks} data rows"
            )
        marked = np.zeros((n_blocks, self._n_pairs), dtype=bool)
        for i, block in enumerate(blocks):
            if block is not None:
                marked[i, block.marked_pairs] = True
        return marked if marked.any() else None

    def encode(
        self,
        data_bits: np.ndarray,
        blocks: (
            MarkAndSpareBlock
            | Sequence[MarkAndSpareBlock | None]
            | np.ndarray
            | None
        ) = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch write path: ``(n_blocks, data_bits)`` -> states + checks.

        ``blocks`` carries the marked-pair layouts: one shared
        :class:`MarkAndSpareBlock`, a per-row sequence (``None`` entries
        mean fresh), a raw ``(n_blocks, n_pairs)`` bool marked mask, or
        ``None`` for all-fresh.  Bit-identical to looping the scalar
        :meth:`ThreeOnTwoBlockCodec.encode`.
        """
        bits = np.ascontiguousarray(data_bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.codec.data_bits:
            raise ValueError(
                f"expected (n_blocks, {self.codec.data_bits}) bits, got {bits.shape}"
            )
        n_blocks = bits.shape[0]
        padded = np.zeros((n_blocks, self._padded_bits), dtype=np.uint8)
        padded[:, : bits.shape[1]] = bits
        values = (
            padded[:, 0::3] * 4 + padded[:, 1::3] * 2 + padded[:, 2::3]
        )
        marked = self._marked_matrix(n_blocks, blocks)
        physical = np.zeros((n_blocks, self._n_pairs), dtype=np.uint8)
        if marked is None:
            physical[:, : values.shape[1]] = values
        else:
            physical[marked] = INV_VALUE
            # Stable argsort: unmarked pair indices first, in order — the
            # scalar layout() scatter, vectorized.
            order = np.argsort(marked, axis=1, kind="stable")
            np.put_along_axis(physical, order[:, : values.shape[1]], values, axis=1)
        states = np.empty((n_blocks, 2 * self._n_pairs), dtype=np.uint8)
        states[:, 0::2] = physical // 3
        states[:, 1::2] = physical % 3
        rem = self._remainder(self._byte_rows(states))
        return states, self._remainder.check_bits(rem)

    def _byte_rows(
        self, states: np.ndarray, check_bits: np.ndarray | None = None
    ) -> np.ndarray:
        """Packed remainder-kernel rows of uint8 states (and check bits).

        Without ``check_bits`` the rows stop after the two state planes:
        their remainder is the systematic check word (encode).
        """
        pb = self._plane_bytes
        n_cols = 2 * pb + (0 if check_bits is None else -(-check_bits.shape[1] // 8))
        rows = np.empty((states.shape[0], n_cols), dtype=np.uint8)
        rows[:, :pb] = np.packbits(states >> 1, axis=1)  # high bit: S4
        rows[:, pb : 2 * pb] = np.packbits(states != 0, axis=1)  # low bit: S2|S4
        if check_bits is not None:
            rows[:, 2 * pb :] = np.packbits(check_bits, axis=1)
        return rows

    def _tec_word(self, states: np.ndarray, check_bits: np.ndarray) -> np.ndarray:
        """TEC codeword view of uint8 state rows (S1=00, S2=01, S4=11)."""
        n_cells = states.shape[1]
        n = 2 * n_cells + check_bits.shape[1]
        word = np.empty((states.shape[0], n), dtype=np.uint8)
        word[:, 0 : 2 * n_cells : 2] = states == 2
        word[:, 1 : 2 * n_cells : 2] = states >= 1
        word[:, 2 * n_cells :] = check_bits
        return word

    # ------------------------------------------------------------------
    def decode(self, states: np.ndarray, slc_check_bits: np.ndarray) -> BatchDecodedBlocks:
        """Batch Figure-9 read path: TEC -> mark-and-spare -> symbols.

        Stage failures become ``fail_stage`` codes instead of exceptions;
        the first failing stage wins, matching the scalar decoder's
        raise order.  The whole pipeline runs in the cell-state domain on
        ``uint8`` arrays; only rows with a nonzero BCH remainder (rare in
        a datapath read) are revisited to patch the corrected cell.
        """
        codec = self.codec
        s = np.asarray(states)
        if s.ndim != 2 or s.shape[1] != codec.n_mlc_cells:
            raise ValueError(
                f"expected (n_blocks, {codec.n_mlc_cells}) states, got {s.shape}"
            )
        if s.dtype != np.uint8:
            if np.any((s < 0) | (s > 2)):
                raise ValueError("three-level state indices must be in [0, 2]")
            s = s.astype(np.uint8)
        elif np.any(s > 2):
            raise ValueError("three-level state indices must be in [0, 2]")
        checks = np.ascontiguousarray(slc_check_bits, dtype=np.uint8)
        if checks.ndim != 2 or checks.shape != (s.shape[0], codec.n_slc_cells):
            raise ValueError(
                f"expected ({s.shape[0]}, {codec.n_slc_cells}) check bits, "
                f"got {checks.shape}"
            )
        n_blocks = s.shape[0]
        fault_point("datapath.batch_decode", n_blocks=n_blocks)
        bits = np.empty((n_blocks, self._padded_bits), dtype=np.uint8)
        tec_corrected = np.zeros(n_blocks, dtype=np.int64)
        n_inv = np.empty(n_blocks, dtype=np.int64)
        fail = np.zeros(n_blocks, dtype=np.uint8)
        # Row-chunked pipeline: each chunk's inter-stage temporaries stay
        # cache-resident, which is worth ~1.7x over streaming the whole
        # batch through every stage (measured at 1e5 blocks).
        for lo in range(0, n_blocks, _DECODE_CHUNK):
            hi = min(lo + _DECODE_CHUNK, n_blocks)
            self._decode_chunk(
                s[lo:hi],
                checks[lo:hi],
                bits[lo:hi],
                tec_corrected[lo:hi],
                n_inv[lo:hi],
                fail[lo:hi],
            )
        return BatchDecodedBlocks(
            data_bits=bits[:, : codec.data_bits],
            tec_corrected=tec_corrected,
            hec_pairs_dropped=n_inv,
            uncorrectable=fail != FAIL_NONE,
            fail_stage=fail,
        )

    def _decode_chunk(
        self,
        s: np.ndarray,
        checks: np.ndarray,
        bits: np.ndarray,
        tec_corrected: np.ndarray,
        n_inv: np.ndarray,
        fail: np.ndarray,
    ) -> None:
        """Decode one row chunk into preallocated output slices.

        Stage 1 — transient error correction over the 2-bit cell view.
        The remainder alone classifies every row (zero-syndrome
        dispatch) and is one table pass over the packed state planes and
        check bits, never materializing the (n_blocks, 708) codeword
        matrix; pair values are read straight off the *received*
        states and only nonzero-remainder rows are patched afterwards.
        """
        codec = self.codec
        rem = self._remainder(self._byte_rows(s, checks))
        pair_values = s[:, 0::2] * 3 + s[:, 1::2]
        dirty = np.nonzero(rem)[0]
        if dirty.size:
            self._patch_dirty(rem, dirty, s, checks, pair_values, fail, tec_corrected)

        # Stage 2 — hard error correction (mark-and-spare squeeze).
        data_values, chunk_inv, exhausted = correct_values_batch(
            pair_values, codec.ms_config
        )
        n_inv[:] = chunk_inv
        fail[(fail == FAIL_NONE) & exhausted] = FAIL_HEC

        # Stage 3 — symbol decoding to binary.
        bits[:, 0::3] = (data_values >> 2) & 1
        bits[:, 1::3] = (data_values >> 1) & 1
        bits[:, 2::3] = data_values & 1

    def _patch_dirty(
        self,
        rem: np.ndarray,
        dirty: np.ndarray,
        s: np.ndarray,
        checks: np.ndarray,
        pair_values: np.ndarray,
        fail: np.ndarray,
        tec_corrected: np.ndarray,
    ) -> None:
        """Apply BCH corrections to the nonzero-remainder rows in place.

        Updates ``pair_values`` / ``fail`` / ``tec_corrected`` for the
        ``dirty`` rows so the stage-2 squeeze can stay on the all-rows
        fast path.  Also runs the post-ECC invalid-"10" screen: a single
        bit flip only ever touches one cell, so for ``t = 1`` checking
        the corrected cell is exhaustive (received states cannot encode
        "10").
        """
        n_tec_bits = 2 * self.codec.n_mlc_cells
        if self.bch._t1_locate is not None:
            pos = self.bch.t1_error_positions(rem[dirty])
            bad = pos < 0
            fail[dirty[bad]] = FAIL_TEC
            good = dirty[~bad]
            gpos = pos[~bad]
            tec_corrected[good] = 1
            in_data = gpos < n_tec_bits
            rows = good[in_data]
            p = gpos[in_data]  # flipped check bits never touch a cell
            cell = p // 2
            old = s[rows, cell].astype(np.int64)
            tec_val = old + (old == 2)  # states -> TEC values {0, 1, 3}
            tec_val ^= np.where(p % 2 == 0, 2, 1)  # flip high or low bit
            fail[rows[tec_val == INVALID_TEC_VALUE]] = FAIL_INVALID_PATTERN
            new_state = TEC_VALUE_TO_STATE[tec_val]
            even = cell % 2 == 0
            s_first = np.where(even, new_state, s[rows, cell - 1])
            s_second = np.where(even, s[rows, (cell + 1) % s.shape[1]], new_state)
            pair_values[rows, cell // 2] = (3 * s_first + s_second).astype(np.uint8)
        else:  # pragma: no cover - the 3-ON-2 TEC code always has t = 1
            received = self._tec_word(s[dirty], checks[dirty])
            for j, i in enumerate(dirty):
                try:
                    data_i, n_i = self.bch.code.decode(received[j])
                except BCHDecodeFailure:
                    fail[i] = FAIL_TEC
                    continue
                tec_corrected[i] = n_i
                tec_vals = data_i[0::2].astype(np.int64) * 2 + data_i[1::2]
                if np.any(tec_vals == INVALID_TEC_VALUE):
                    fail[i] = FAIL_INVALID_PATTERN
                row_states = TEC_VALUE_TO_STATE[tec_vals]
                pair_values[i] = (
                    3 * row_states[0::2] + row_states[1::2]
                ).astype(np.uint8)


def shared_codec(data_bits: int = 512, n_spare_pairs: int = 6) -> BatchThreeOnTwoCodec:
    """The process-wide batch codec of one block geometry.

    Building a codec precomputes its byte tables and discrete-log
    locator; the fleet engine, the BLER engine and every service device
    of one geometry share the instance.
    """
    return _codec_of(int(data_bits), int(n_spare_pairs))


@functools.lru_cache(maxsize=8)
def _codec_of(data_bits: int, n_spare_pairs: int) -> BatchThreeOnTwoCodec:
    return BatchThreeOnTwoCodec(
        ThreeOnTwoBlockCodec(data_bits=data_bits, n_spare_pairs=n_spare_pairs)
    )
