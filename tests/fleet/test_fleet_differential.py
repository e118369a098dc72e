"""Fleet vs single-device differential and fan-out invariance.

The fleet engine's whole claim is that it adds *zero* physics of its
own: an ``n_devices=1`` fleet must be bit-identical to driving a plain
:class:`~repro.core.device.PCMDevice` through the same epoch schedule by
hand — same cell states (state digest), same :class:`DeviceStats`, same
decode outcomes, same death epoch.  ``drive_single`` below is that
independent sequential reference: it uses only the public single-device
API (``write``/``read``), never the batch codec or any fleet internals.

On top of the differential, the fan-out contract: fleet counts are
invariant to epoch batching (``advance(a); advance(b)`` ==
``advance(a+b)``), shard size, shards-per-task grouping, and worker
count — properties checked both directly and via hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetConfig,
    FleetEngine,
    counter_index,
    device_params,
    fleet_mc,
    stress_config,
)
from repro.montecarlo.rng import seed_entropy
from tests.fleet.reference import drive_single

#: Wear-accelerated so the differential exercises marks, retries, the
#: stale-row fallback, and spare-exhaustion death — not just clean writes.
STRESS = stress_config(n_devices=8, n_epochs=6)


class TestSingleDeviceDifferential:
    """n_devices=1 fleets pinned to the sequential PCMDevice path."""

    @pytest.mark.parametrize("index", range(STRESS.n_devices))
    def test_bit_identical_stress(self, index):
        entropy = seed_entropy(42)
        ref_dev, ref_counts, ref_alive = drive_single(STRESS, entropy, index)

        engine = FleetEngine(STRESS, entropy, first_device=index, n_devices=1)
        counts = engine.advance(STRESS.n_epochs)

        assert engine.device(index).state_digest() == ref_dev.state_digest()
        assert engine.device(index).stats == ref_dev.stats
        assert (counts == ref_counts).all()
        assert bool(engine.alive_mask()[0]) == ref_alive

    def test_bit_identical_default_config(self):
        # Paper-faithful endurance: no deaths, pure clean-path physics.
        config = FleetConfig(n_devices=3, n_epochs=4)
        entropy = seed_entropy(7)
        for index in range(config.n_devices):
            ref_dev, ref_counts, ref_alive = drive_single(config, entropy, index)
            engine = FleetEngine(config, entropy, first_device=index, n_devices=1)
            counts = engine.advance(config.n_epochs)
            assert engine.device(index).state_digest() == ref_dev.state_digest()
            assert engine.device(index).stats == ref_dev.stats
            assert (counts == ref_counts).all()
            assert ref_alive and bool(engine.alive_mask()[0])
            assert counts[:, counter_index("deaths")].sum() == 0

    def test_stress_config_exercises_failure_paths(self):
        """The differential above is only meaningful if the stress fleet
        actually hits wear: marks and deaths must both occur."""
        engine = FleetEngine(STRESS, seed_entropy(42))
        counts = engine.advance(STRESS.n_epochs).sum(axis=0)
        assert counts[counter_index("wearout_marks")] > 0
        assert counts[counter_index("deaths")] > 0
        assert not engine.alive_mask().all()


class TestEpochBatchInvariance:
    def test_split_advance_matches(self):
        entropy = seed_entropy(3)
        whole = FleetEngine(STRESS, entropy)
        split = FleetEngine(STRESS, entropy)
        all_at_once = whole.advance(STRESS.n_epochs)
        stacked = np.vstack([split.advance(2), split.advance(1), split.advance(3)])
        assert (all_at_once == stacked).all()
        assert whole.state_digest() == split.state_digest()
        assert whole.epoch == split.epoch == STRESS.n_epochs

    @given(cut=st.integers(min_value=0, max_value=STRESS.n_epochs))
    @settings(max_examples=7, deadline=None)
    def test_any_cut_point(self, cut):
        entropy = seed_entropy(11)
        whole = FleetEngine(STRESS, entropy, 0, 4).advance(STRESS.n_epochs)
        split = FleetEngine(STRESS, entropy, 0, 4)
        parts = np.vstack(
            [split.advance(cut), split.advance(STRESS.n_epochs - cut)]
        )
        assert (whole == parts).all()


class TestShardInvariance:
    """fleet_mc counts do not depend on how work is fanned out."""

    CONFIG = stress_config(n_devices=11, n_epochs=3)

    def reference(self):
        return fleet_mc(self.CONFIG, seed=0, jobs=1)

    def test_shard_size_invariant(self):
        ref = self.reference()
        for shard_devices in (1, 3, 7, 100):
            got = fleet_mc(self.CONFIG, seed=0, jobs=1, shard_devices=shard_devices)
            assert (got.counts == ref.counts).all(), shard_devices
            assert got.to_dict() == ref.to_dict()

    def test_shards_per_task_invariant(self):
        ref = self.reference()
        for group in (2, 4):
            got = fleet_mc(
                self.CONFIG, seed=0, jobs=1, shard_devices=2, shards_per_task=group
            )
            assert (got.counts == ref.counts).all()

    def test_jobs_invariant(self):
        ref = self.reference()
        got = fleet_mc(self.CONFIG, seed=0, jobs=2, shard_devices=3)
        assert (got.counts == ref.counts).all()
        assert got.to_dict() == ref.to_dict()

    @given(
        shard_devices=st.integers(min_value=1, max_value=12),
        group=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_fanout_property(self, shard_devices, group):
        got = fleet_mc(
            self.CONFIG,
            seed=0,
            jobs=1,
            shard_devices=shard_devices,
            shards_per_task=group,
        )
        assert (got.counts == self.reference().counts).all()

    def test_engine_sharding_matches_monolith(self):
        """Splitting one engine's device range across several engines
        sums to the monolithic engine's counts."""
        entropy = seed_entropy(0)
        whole = FleetEngine(self.CONFIG, entropy).advance(self.CONFIG.n_epochs)
        parts = np.zeros_like(whole)
        for first, n in ((0, 4), (4, 4), (8, 3)):
            parts += FleetEngine(self.CONFIG, entropy, first, n).advance(
                self.CONFIG.n_epochs
            )
        assert (whole == parts).all()


class TestHeterogeneity:
    def test_device_params_pure_function_of_index(self):
        entropy = seed_entropy(5)
        a = device_params(STRESS, entropy, 3)
        b = device_params(STRESS, entropy, 3)
        assert a == b
        assert a != device_params(STRESS, entropy, 4)

    def test_population_spreads_over_axes(self):
        entropy = seed_entropy(1)
        config = stress_config(n_devices=64)
        drawn = [device_params(config, entropy, i) for i in range(config.n_devices)]
        assert len({p.workload for p in drawn}) > 1
        assert len({p.temp_scale for p in drawn}) > 1
        jitters = [p.alpha_jitter for p in drawn]
        assert min(jitters) < 1.0 < max(jitters)
