"""Virtual-time device engine: drift, wear, determinism, validation."""

import numpy as np
import pytest

from repro.cells.faults import FaultMode, WearoutModel
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.core.designs import three_level_optimal
from repro.core.device import PCMDevice
from repro.montecarlo.rng import block_rng
from repro.service.codes import ServiceError
from repro.service.device import (
    DEVICE_VERSION,
    SERVICE_SPAWN_KEY,
    DeviceRegistry,
    VirtualDevice,
)
from repro.wearout.mark_and_spare import SpareExhausted

SECONDS_PER_YEAR = 365.25 * 86400.0


def _payload(seed: int, n_bits: int = 512) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n_bits, dtype=np.uint8)


def _read_data(device: VirtualDevice, block: int, t: float) -> np.ndarray:
    """Direct read through the batch codec (no queue)."""
    device.require_written(block)
    states, slc = device.sense_rows(np.array([block]), np.array([t]))
    decoded = device.codec.decode(states, slc)
    assert not decoded.uncorrectable[0]
    return decoded.data_bits[0]


class TestDeterminism:
    def test_same_history_same_digest(self):
        histories = []
        for _ in range(2):
            dev = VirtualDevice("dev", 99, 8)
            for b in range(4):
                dev.write_block(b, _payload(b), t=0.0)
            dev.clock.advance(1000.0)
            dev.write_block(0, _payload(17), t=1000.0)
            histories.append(dev.state_digest())
        assert histories[0] == histories[1]

    def test_seed_changes_digest(self):
        a = VirtualDevice("a", 1, 4)
        b = VirtualDevice("b", 2, 4)
        a.write_block(0, _payload(0), t=0.0)
        b.write_block(0, _payload(0), t=0.0)
        assert a.state_digest() != b.state_digest()

    def test_rewrite_epoch_changes_draws(self):
        # Writing the same data twice redraws programming noise under a
        # new epoch: the analog state must differ even if data matches.
        dev = VirtualDevice("dev", 5, 2)
        dev.write_block(0, _payload(1), t=0.0)
        lr_first = dev.drifted_lr(np.array([0]), np.array([0.0])).copy()
        dev.write_block(0, _payload(1), t=0.0)
        lr_second = dev.drifted_lr(np.array([0]), np.array([0.0]))
        assert not np.array_equal(lr_first, lr_second)


class TestDrift:
    def test_roundtrip_at_program_time(self):
        dev = VirtualDevice("dev", 3, 4)
        data = _payload(7)
        dev.write_block(1, data, t=0.0)
        assert np.array_equal(_read_data(dev, 1, 0.0), data)

    def test_resistance_drifts_upward(self):
        dev = VirtualDevice("dev", 3, 4)
        dev.write_block(0, _payload(0), t=0.0)
        lr_now = dev.drifted_lr(np.array([0]), np.array([0.0]))
        lr_year = dev.drifted_lr(np.array([0]), np.array([SECONDS_PER_YEAR]))
        # Drift only ever increases log-resistance (alpha >= 0).
        assert (lr_year >= lr_now - 1e-12).all()
        assert lr_year.mean() > lr_now.mean()

    def test_decode_survives_a_year(self):
        # The paper's operating point: 3-ON-2 + BCH-1 keeps a block
        # readable after a year of drift.
        dev = VirtualDevice("dev", 11, 4)
        data = _payload(21)
        dev.write_block(2, data, t=0.0)
        dev.clock.advance(SECONDS_PER_YEAR)
        assert np.array_equal(_read_data(dev, 2, SECONDS_PER_YEAR), data)

    def test_reads_at_distinct_virtual_times(self):
        # Two reads of one block at different t: drift between them is
        # fully determined by the timestamps, not by wall time.
        dev = VirtualDevice("dev", 13, 2)
        dev.write_block(0, _payload(2), t=0.0)
        lr_a = dev.drifted_lr(np.array([0]), np.array([1e4]))
        lr_b = dev.drifted_lr(np.array([0]), np.array([1e4]))
        assert np.array_equal(lr_a, lr_b)


class TestVirtualTime:
    def test_bind_time_defaults_to_clock(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance(42.0)
        assert dev.bind_time(None) == 42.0

    def test_time_regression_rejected(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance(100.0)
        with pytest.raises(ServiceError) as excinfo:
            dev.bind_time(99.0)
        assert excinfo.value.code == "E_TIME_REGRESSION"

    def test_bad_timestamps_rejected(self):
        dev = VirtualDevice("dev", 0, 2)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ServiceError) as excinfo:
                dev.bind_time(bad)
            assert excinfo.value.code in ("E_BAD_REQUEST", "E_TIME_REGRESSION")

    def test_clock_never_rewinds(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance_to(50.0)
        with pytest.raises(ValueError):
            dev.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            dev.clock.advance(-1.0)


class TestWearout:
    # A wide endurance spread (sigma is in decades) makes individual
    # cells die one at a time, so marks accumulate gradually before the
    # budget runs out.  Verify retries reprogram (and further wear) the
    # whole block, so exhaustion follows within a few more writes.
    WEAROUT = WearoutModel(
        mean_endurance=200.0, endurance_sigma=0.6, p_stuck_reset=1.0, p_revive=0.0
    )

    def test_wear_accumulates_until_exhaustion(self):
        dev = VirtualDevice("dev", 7, 1, wearout=self.WEAROUT)
        saw_marks = False
        with pytest.raises(SpareExhausted):
            for i in range(400):
                out = dev.write_block(0, _payload(i), t=0.0)
                saw_marks = saw_marks or out["marked_pairs"] > 0
        assert saw_marks  # wear was gradual, not a cliff
        assert dev.stats.spare_exhausted_writes == 1
        assert dev.stats.wearout_marks >= 1
        wear = dev.describe()["wear"]
        assert wear["blocks_at_budget"] == 1
        assert wear["stuck_cells"] >= 1

    def test_exhausted_block_unreadable_until_rewritten(self):
        dev = VirtualDevice("dev", 7, 1, wearout=self.WEAROUT)
        with pytest.raises(SpareExhausted):
            for i in range(400):
                dev.write_block(0, _payload(i), t=0.0)
        with pytest.raises(ServiceError) as excinfo:
            dev.require_written(0)
        assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

    def test_healthy_device_never_marks(self):
        dev = VirtualDevice("dev", 7, 2)  # default 1e5 endurance
        for i in range(20):
            out = dev.write_block(0, _payload(i), t=0.0)
            assert out["marked_pairs"] == 0
            assert out["retries"] == 0


class TestPCMDeviceOracle:
    """The service device against the sequential PCMDevice reference.

    A :class:`PCMDevice` given the service's endurance budgets and
    failure modes, and switched to the service's per-write stream before
    each write, must end every write in the same analog state: equal
    drifted resistances (now and a year on), stats, marks, and the same
    writes running out of spares.  Both models wear out within the run.
    """

    MODELS = {
        # Every failure is stuck-reset; nothing to revive.
        "stuck_reset": WearoutModel(
            mean_endurance=40.0, endurance_sigma=0.25, p_stuck_reset=1.0, p_revive=0.0
        ),
        # Mostly stuck-set, and revival succeeds half the time.
        "stuck_set": WearoutModel(
            mean_endurance=40.0, endurance_sigma=0.25, p_stuck_reset=0.2, p_revive=0.5
        ),
    }
    SEED = 21
    N_BLOCKS = 2
    N_WRITES = 120

    def _oracle(self, wearout: WearoutModel, n_spare_pairs: int) -> PCMDevice:
        dev = PCMDevice(
            self.N_BLOCKS,
            design=three_level_optimal(),
            wearout=wearout,
            codec=ThreeOnTwoBlockCodec(n_spare_pairs=n_spare_pairs),
        )
        n = dev.array.n
        dev.array._endurance = wearout.sample_endurance(
            block_rng(self.SEED, (SERVICE_SPAWN_KEY, 0)), n
        )
        dev.array._pending_mode = wearout.sample_modes(
            block_rng(self.SEED, (SERVICE_SPAWN_KEY, 1)), n
        )
        return dev

    @pytest.mark.parametrize("n_spare_pairs", [0, 6])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_matches_pcm_device(self, model, n_spare_pairs):
        wearout = self.MODELS[model]
        dev = VirtualDevice(
            "dev", self.SEED, self.N_BLOCKS, n_spare_pairs=n_spare_pairs, wearout=wearout
        )
        ref = self._oracle(wearout, n_spare_pairs)
        rng = np.random.default_rng(5)
        epochs = [0] * self.N_BLOCKS
        exhausted_dev, exhausted_ref = [], []
        for i in range(self.N_WRITES):
            block = int(rng.integers(self.N_BLOCKS))
            bits = rng.integers(0, 2, 512, dtype=np.uint8)
            t = 100.0 * i
            ref.array.rng = block_rng(
                self.SEED, (SERVICE_SPAWN_KEY, 2, block, epochs[block])
            )
            epochs[block] += 1
            try:
                dev.write_block(block, bits, t)
            except SpareExhausted:
                exhausted_dev.append(i)
            try:
                ref.write(block, bits, t)
            except SpareExhausted:
                exhausted_ref.append(i)
            marks = dev.describe()["wear"]["marked_pairs_total"]
            assert marks == sum(ref.block_state(b).n_marked for b in range(self.N_BLOCKS))
            cells = np.arange(block * ref.cells_per_block, (block + 1) * ref.cells_per_block)
            for when in (t, t + SECONDS_PER_YEAR):
                got = dev.drifted_lr(np.array([block]), np.array([when]))[0]
                assert np.array_equal(got, ref.array.log_resistance(when, cells)), (i, when)
        assert exhausted_dev == exhausted_ref
        assert exhausted_dev, "the run never exhausted a block's spares"
        assert dev.stats.writes == ref.stats.writes
        assert dev.stats.write_retries == ref.stats.write_retries
        assert dev.stats.wearout_marks == ref.stats.wearout_marks
        assert dev.describe()["wear"]["stuck_cells"] == int(ref.array.stuck_mask().sum())
        if n_spare_pairs:
            assert dev.stats.wearout_marks > 0
        if wearout.p_revive and n_spare_pairs:
            revived = (ref.array.fault_modes == FaultMode.STUCK_RESET.value) & (
                ref.array._pending_mode == FaultMode.STUCK_SET.value
            )
            assert revived.any(), "no stuck-set cell was revived"

    def test_version_reported(self):
        dev = VirtualDevice("dev", 0, 1)
        assert dev.describe()["device_version"] == DEVICE_VERSION


class TestValidation:
    def test_block_range(self):
        dev = VirtualDevice("dev", 0, 4)
        with pytest.raises(ServiceError) as excinfo:
            dev.check_block(4)
        assert excinfo.value.code == "E_BLOCK_RANGE"
        with pytest.raises(ServiceError):
            dev.check_block(-1)

    def test_unwritten_block(self):
        dev = VirtualDevice("dev", 0, 4)
        with pytest.raises(ServiceError) as excinfo:
            dev.require_written(2)
        assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

    def test_needs_a_block(self):
        with pytest.raises(ServiceError):
            VirtualDevice("dev", 0, 0)


class TestRegistry:
    def test_create_get_delete(self):
        reg = DeviceRegistry()
        dev = reg.create(0, 4)
        assert dev.device_id == "dev-0001"
        assert reg.get(dev.device_id) is dev
        assert len(reg) == 1
        reg.delete(dev.device_id)
        assert len(reg) == 0
        with pytest.raises(ServiceError) as excinfo:
            reg.get(dev.device_id)
        assert excinfo.value.code == "E_DEVICE_NOT_FOUND"

    def test_ids_never_reused(self):
        reg = DeviceRegistry()
        first = reg.create(0, 4)
        reg.delete(first.device_id)
        second = reg.create(0, 4)
        assert second.device_id != first.device_id

    def test_describe_fields(self):
        reg = DeviceRegistry()
        dev = reg.create(9, 8)
        d = dev.describe()
        assert d["n_blocks"] == 8
        assert d["data_bits"] == 512
        assert d["cells_per_block"] == 354
        assert d["slc_cells_per_block"] == 10
        assert d["virtual_time"] == 0.0
        assert d["blocks_written"] == 0
