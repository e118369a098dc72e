"""Batched bit-packed datapath kernels vs the scalar codecs.

The batch layer (:mod:`repro.coding.batch`) promises *bit-identical*
results to looping the scalar codecs over every block — including which
blocks fail, at which stage, and what silently miscorrects.  These tests
hold it to that across random error patterns, marked-pair layouts, spare
exhaustion, multi-error escapes, and chunk boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.batch import (
    FAIL_HEC,
    FAIL_INVALID_PATTERN,
    FAIL_NONE,
    FAIL_TEC,
    BatchBCH,
    BatchThreeOnTwoCodec,
)
from repro.coding.bch import BCH, BCHDecodeFailure
from repro.coding.blockcodec import ThreeOnTwoBlockCodec, UncorrectableBlock
from repro.core import three_on_two as t32


@pytest.fixture(scope="module")
def codec():
    return ThreeOnTwoBlockCodec()


@pytest.fixture(scope="module")
def batch(codec):
    return BatchThreeOnTwoCodec(codec)


def scalar_reference(codec, states, checks):
    """Loop the scalar codec; map raises onto the batch outcome arrays."""
    n, data_bits = states.shape[0], codec.data_bits
    data = np.zeros((n, data_bits), dtype=np.uint8)
    tec = np.zeros(n, dtype=np.int64)
    inv = np.zeros(n, dtype=np.int64)
    fail = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        try:
            out = codec.decode(states[i], checks[i])
        except UncorrectableBlock as exc:
            msg = str(exc)
            if msg.startswith("TEC failure"):
                fail[i] = FAIL_TEC
            elif msg.startswith("invalid TEC cell pattern"):
                fail[i] = FAIL_INVALID_PATTERN
            elif msg.startswith("HEC failure"):
                fail[i] = FAIL_HEC
            else:  # pragma: no cover - no other scalar failure exists
                raise
        else:
            data[i] = out.data_bits
            tec[i] = out.tec_corrected
            inv[i] = out.hec_pairs_dropped
    return data, tec, inv, fail


def assert_matches_scalar(codec, batch, states, checks):
    """The batch decode must agree with the scalar loop row for row."""
    got = batch.decode(states, checks)
    data, tec, inv, fail = scalar_reference(codec, states, checks)
    ok = fail == FAIL_NONE
    assert np.array_equal(got.fail_stage, fail)
    assert np.array_equal(got.uncorrectable, ~ok)
    assert np.array_equal(got.data_bits[ok], data[ok])
    assert np.array_equal(got.tec_corrected[ok], tec[ok])
    assert np.array_equal(got.hec_pairs_dropped[ok], inv[ok])
    return got


def encode_blocks(codec, rng, n_blocks, blocks=None):
    data = rng.integers(0, 2, size=(n_blocks, codec.data_bits), dtype=np.uint8)
    states = np.empty((n_blocks, codec.n_mlc_cells), dtype=np.uint8)
    checks = np.empty((n_blocks, codec.n_slc_cells), dtype=np.uint8)
    for i in range(n_blocks):
        s, c = codec.encode(data[i], None if blocks is None else blocks[i])
        states[i], checks[i] = s, c
    return data, states, checks


class TestBatchBCH:
    """The vectorized code agrees with the scalar code bit for bit."""

    @pytest.fixture(scope="class")
    def scalar(self):
        return BCH(10, 1, 708)

    @pytest.fixture(scope="class")
    def vec(self, scalar):
        return BatchBCH(scalar)

    def test_encode_matches_scalar(self, scalar, vec):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, size=(17, scalar.k), dtype=np.uint8)
        got = vec.encode(data)
        for i in range(data.shape[0]):
            assert np.array_equal(got[i], scalar.encode(data[i]))

    @pytest.mark.parametrize("n_err", [0, 1, 2, 3])
    def test_decode_matches_scalar(self, scalar, vec, n_err):
        rng = np.random.default_rng(3 + n_err)
        data = rng.integers(0, 2, size=(40, scalar.k), dtype=np.uint8)
        received = vec.encode(data)
        for row in received:
            row[rng.choice(scalar.n, n_err, replace=False)] ^= 1
        got = vec.decode(received)
        for i in range(received.shape[0]):
            try:
                want, n = scalar.decode(received[i])
            except BCHDecodeFailure:
                assert got.uncorrectable[i]
            else:
                assert not got.uncorrectable[i]
                assert np.array_equal(got.data[i], want)
                assert got.n_corrected[i] == n
        if n_err == 0:
            assert not got.uncorrectable.any()
            assert np.array_equal(got.data, data)

    def test_t_above_one_falls_back_to_scalar_loop(self):
        scalar = BCH(10, 10, 512)
        vec = BatchBCH(scalar)
        rng = np.random.default_rng(9)
        data = rng.integers(0, 2, size=(6, scalar.k), dtype=np.uint8)
        received = vec.encode(data)
        for i, n_err in enumerate((0, 1, 5, 10, 11, 14)):
            received[i, rng.choice(scalar.n, n_err, replace=False)] ^= 1
        got = vec.decode(received)
        for i in range(received.shape[0]):
            try:
                want, n = scalar.decode(received[i])
            except BCHDecodeFailure:
                assert got.uncorrectable[i], i
            else:
                assert np.array_equal(got.data[i], want)
                assert got.n_corrected[i] == n
        with pytest.raises(ValueError):
            vec.t1_error_positions(np.array([1]))

    @pytest.mark.parametrize("t, k", [(1, 708), (3, 200), (10, 512)])
    def test_remainder_lanes_match_scalar(self, t, k):
        """One, two (int64) and seven (Python int) 16-bit lanes."""
        scalar = BCH(10, t, k)
        vec = BatchBCH(scalar)
        rng = np.random.default_rng(30 + t)
        data = rng.integers(0, 2, size=(5, k), dtype=np.uint8)
        codewords = vec.encode(data)
        for i in range(data.shape[0]):
            assert np.array_equal(codewords[i], scalar.encode(data[i]))
        received = rng.integers(0, 2, size=(5, scalar.n), dtype=np.uint8)
        table = scalar.position_remainders()
        want = [int(np.bitwise_xor.reduce(table[row.astype(bool)])) for row in received]
        assert [int(r) for r in vec.remainders(received)] == want
        assert not vec.remainders(codewords).any()

    def test_shape_validation(self, vec, scalar):
        with pytest.raises(ValueError):
            vec.encode(np.zeros((2, scalar.k - 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            vec.decode(np.zeros((2, scalar.n + 1), dtype=np.uint8))


class TestDifferential:
    """Hypothesis: batch == scalar loop under arbitrary corruption."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cell_errors(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_blocks = data.draw(st.integers(1, 8))
        _, states, checks = encode_blocks(codec, rng, n_blocks)
        for i in range(n_blocks):
            n_err = data.draw(st.integers(0, 3))
            for cell in rng.choice(codec.n_mlc_cells, n_err, replace=False):
                old = states[i, cell]
                states[i, cell] = (old + rng.integers(1, 3)) % 3
        assert_matches_scalar(codec, batch, states, checks)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_check_bit_errors(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        _, states, checks = encode_blocks(codec, rng, 4)
        for i in range(4):
            n_err = data.draw(st.integers(0, 2))
            checks[i, rng.choice(codec.n_slc_cells, n_err, replace=False)] ^= 1
        assert_matches_scalar(codec, batch, states, checks)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_marked_pair_layouts(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_blocks = data.draw(st.integers(1, 6))
        blocks = []
        for _ in range(n_blocks):
            blk = codec.new_block_state()
            n_marks = data.draw(st.integers(0, codec.ms_config.n_spare_pairs))
            for p in rng.choice(codec.ms_config.n_pairs, n_marks, replace=False):
                blk.mark(int(p))
            blocks.append(blk)
        payload, states, checks = encode_blocks(codec, rng, n_blocks, blocks)
        # Layouts must round-trip clean, and stay differential under one
        # extra drift error per block.
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.data_bits, payload)
        for i in range(n_blocks):
            cell = int(rng.integers(codec.n_mlc_cells))
            states[i, cell] = (states[i, cell] + 1) % 3
        assert_matches_scalar(codec, batch, states, checks)


class TestFailStages:
    def test_spare_exhaustion_is_fail_hec(self, codec, batch):
        """7 INV pairs in a valid TEC codeword exhaust the 6 spares."""
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(3):
            blk = codec.new_block_state()
            for p in range(codec.ms_config.n_spare_pairs):
                blk.mark(p)
            blocks.append(blk)
        _, states, checks = encode_blocks(codec, rng, 3, blocks)
        # Force a 7th INV pair and re-derive matching check bits, so the
        # TEC stage passes and the failure lands squarely on HEC.
        for i in range(3):
            states[i, 100:102] = 2
            cw = codec.tec.encode(t32.states_to_tec_bits(states[i]))
            checks[i] = cw[codec.tec.k :]
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.fail_stage, np.full(3, FAIL_HEC))
        assert np.array_equal(out.hec_pairs_dropped, np.full(3, 7))

    def test_constructed_invalid_pattern_escape(self, codec, batch):
        """Two errors whose miscorrection writes the forbidden '10'.

        BCH(10,1) has minimum distance 3, so some error pairs alias to a
        third position.  Check-bit remainders are single powers of two,
        so an S1 cell whose high-bit remainder has exactly two set bits
        names two check bits whose joint flip steers the decoder into
        'correcting' that high bit — fabricating the invalid pattern.
        """
        rng = np.random.default_rng(12)
        _, states, checks = encode_blocks(codec, rng, 1)
        rem = codec.tec.position_remainders()
        k, nc = codec.tec.k, codec.tec.n_check
        target = None
        for c in np.nonzero(states[0] == 0)[0]:  # S1: high-bit flip -> '10'
            if bin(int(rem[2 * int(c)])).count("1") == 2:
                target = 2 * int(c)
                break
        assert target is not None
        flips = [j for j in range(nc) if int(rem[k + j]) & int(rem[target])]
        assert len(flips) == 2
        assert int(rem[k + flips[0]]) ^ int(rem[k + flips[1]]) == int(rem[target])
        bad_checks = checks.copy()
        bad_checks[0, flips] ^= 1
        out = assert_matches_scalar(codec, batch, states, bad_checks)
        assert out.fail_stage[0] == FAIL_INVALID_PATTERN

    def test_mixed_stages_in_one_batch(self, codec, batch):
        """One batch holding every outcome class at once."""
        rng = np.random.default_rng(13)
        _, states, checks = encode_blocks(codec, rng, 5)
        # row 0: clean; row 1: one correctable single-bit drift error.
        states[1, 0] = states[1, 0] + 1 if states[1, 0] < 2 else 1
        # row 2: two errors -> TEC failure or miscorrection.
        low = np.nonzero(states[2] < 2)[0]
        states[2, low[0]] += 1
        states[2, low[1]] += 1
        # row 3: 7 INV pairs with matching checks -> HEC failure.
        states[3, 0:14] = 2
        cw = codec.tec.encode(t32.states_to_tec_bits(states[3]))
        checks[3] = cw[codec.tec.k :]
        # row 4: one check-bit error.
        checks[4, 0] ^= 1
        out = assert_matches_scalar(codec, batch, states, checks)
        assert out.fail_stage[0] == FAIL_NONE
        assert out.fail_stage[1] == FAIL_NONE and out.tec_corrected[1] == 1
        assert out.fail_stage[3] == FAIL_HEC
        assert out.fail_stage[4] == FAIL_NONE and out.tec_corrected[4] == 1


class TestChunkBoundaries:
    def test_rows_straddling_decode_chunks(self, codec, batch):
        """Errors on both sides of the 8192-row chunk edges decode right."""
        from repro.coding.batch import _DECODE_CHUNK

        rng = np.random.default_rng(14)
        n_blocks = 2 * _DECODE_CHUNK + 3
        data = rng.integers(0, 2, size=(n_blocks, codec.data_bits), dtype=np.uint8)
        states, checks = batch.encode(data)
        probe = [0, _DECODE_CHUNK - 1, _DECODE_CHUNK, 2 * _DECODE_CHUNK, n_blocks - 1]
        for i in probe:
            cell = i % codec.n_mlc_cells
            # Single-bit drift step (S4 -> S2 flips one bit; +1 otherwise).
            states[i, cell] = states[i, cell] + 1 if states[i, cell] < 2 else 1
        out = batch.decode(states, checks)
        assert np.array_equal(out.data_bits, data)
        assert not out.uncorrectable.any()
        assert np.array_equal(np.nonzero(out.tec_corrected)[0], np.array(probe))
        # Scalar spot-check on the straddling rows.
        for i in probe:
            ref = codec.decode(states[i], checks[i])
            assert np.array_equal(ref.data_bits, data[i])
            assert ref.tec_corrected == 1

    def test_batch_encode_matches_scalar(self, codec, batch):
        rng = np.random.default_rng(15)
        data, states, checks = encode_blocks(codec, rng, 9)
        got_states, got_checks = batch.encode(data)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_checks, checks)

    def test_batch_encode_with_marked_blocks_matches_scalar(self, codec, batch):
        rng = np.random.default_rng(16)
        blocks = []
        for i in range(4):
            blk = codec.new_block_state()
            for p in rng.choice(codec.ms_config.n_pairs, i, replace=False):
                blk.mark(int(p))
            blocks.append(blk)
        data, states, checks = encode_blocks(codec, rng, 4, blocks)
        got_states, got_checks = batch.encode(data, blocks)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_checks, checks)


class TestSmallBatches:
    """The 1- and 2-row shapes the service and the fleet retries send."""

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_encode_and_decode_match_scalar(self, codec, batch, n_blocks):
        rng = np.random.default_rng(20 + n_blocks)
        data, states, checks = encode_blocks(codec, rng, n_blocks)
        got_states, got_checks = batch.encode(data)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_checks, checks)
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.data_bits, data)
        # One drift step per row, then a check-bit flip on the first.
        for i in range(n_blocks):
            cell = int(rng.integers(codec.n_mlc_cells))
            states[i, cell] = states[i, cell] + 1 if states[i, cell] < 2 else 1
        assert_matches_scalar(codec, batch, states, checks)
        checks[0, 3] ^= 1
        assert_matches_scalar(codec, batch, states, checks)

    def test_single_row_marked_layout(self, codec, batch):
        rng = np.random.default_rng(23)
        blk = codec.new_block_state()
        for p in (0, 57, codec.ms_config.n_pairs - 1):
            blk.mark(p)
        data, states, checks = encode_blocks(codec, rng, 1, [blk])
        mask = np.zeros((1, codec.ms_config.n_pairs), dtype=bool)
        mask[0, blk.marked_pairs] = True
        for blocks in ([blk], blk, mask):
            got_states, got_checks = batch.encode(data, blocks)
            assert np.array_equal(got_states, states)
            assert np.array_equal(got_checks, checks)
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.data_bits, data)
        assert out.hec_pairs_dropped[0] == 3


class TestValidation:
    def test_state_range_checked(self, codec, batch):
        rng = np.random.default_rng(17)
        _, states, checks = encode_blocks(codec, rng, 2)
        states[0, 0] = 3
        with pytest.raises(ValueError):
            batch.decode(states, checks)

    def test_shapes_checked(self, codec, batch):
        rng = np.random.default_rng(18)
        data, states, checks = encode_blocks(codec, rng, 2)
        with pytest.raises(ValueError):
            batch.decode(states[:, :-1], checks)
        with pytest.raises(ValueError):
            batch.decode(states, checks[:, :-1])
        with pytest.raises(ValueError):
            batch.encode(data[:, :-1])
        with pytest.raises(ValueError):
            batch.encode(data, [codec.new_block_state()])  # wrong count
