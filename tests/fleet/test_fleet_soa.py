"""SoA engine pinned bit-identical to the object engine.

The object engine (``ObjectFleetEngine``) is the semantic reference:
one ``PCMDevice`` per device, scalar epoch loop.  The SoA engine re-
implements the same epoch on flat population arrays, and the contract
is *bit*-identity — same per-device RNG streams consumed in the same
per-device order, so state digests, ``DeviceStats``, death epochs, and
count matrices all match exactly, epoch by epoch.  These tests pin that
contract directly (engine vs engine), at the summary level through
``fleet_mc``, via hypothesis over seeds and shard offsets, and through
a chaos crash-resume whose reference run uses the *other* engine.

The batched-RNG fast paths (``repro.fleet.fastrng``) are also pinned
here against the scalar draws they replace.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import builtin_campaign
from repro.campaign.store import RunStore
from repro.cells.faults import FaultMode
from repro.chaos import FaultPlan, FaultSpec, InjectedCrash, activate
from repro.coding.batch import BatchThreeOnTwoCodec
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.fleet import (
    FLEET_ENGINE_ENV,
    FLEET_SPAWN_KEY,
    FleetConfig,
    FleetEngine,
    ObjectFleetEngine,
    SoaFleetEngine,
    counter_index,
    fleet_mc,
    stress_config,
)
from repro.fleet.config import KEY_DATA, KEY_DEVICE
from repro.fleet.fastrng import (
    FastSeeder,
    draw_payloads,
    merged_normals_ok,
    payload_fast_ok,
)
from repro.montecarlo.results_cache import ResultsCache
from repro.montecarlo.rng import block_rng, seed_entropy

#: Wear-accelerated: marks, retries, stale-row re-encodes, and deaths
#: all occur, so the wear path is exercised — not just clean writes.
STRESS = stress_config(n_devices=8, n_epochs=6)

#: Both failure modes plus revival: stuck-set cells (pinned to the
#: lowest state when sensed), and the reverse-current revival draw that
#: force-highest makes for them.  ``stress_config`` alone pins every
#: failure to stuck-reset and never revives.
MIXED_FAULTS = stress_config(n_devices=6, n_epochs=5, p_stuck_reset=0.5, p_revive=0.5)

#: Wear onset: a tight endurance spread keeps the first epochs provably
#: fault-free (every cell's wear stays below the population's minimum
#: endurance), then the same run crosses into retries, marks and deaths.
WEAR_ONSET = stress_config(
    n_devices=5,
    n_epochs=8,
    mean_endurance=36.0,
    endurance_sigma=0.1,
    endurance_jitter_sigma=0.0,
)


def assert_engines_identical(a, b, n_epochs):
    """Advance both engines epoch by epoch asserting full bit-identity."""
    assert a.state_digest() == b.state_digest(), "initial state diverged"
    for e in range(n_epochs):
        ca = a.advance(1)
        cb = b.advance(1)
        assert (ca == cb).all(), f"counts diverged in epoch {e}"
        assert (a.alive_mask() == b.alive_mask()).all(), f"deaths diverged in {e}"
        assert a.state_digest() == b.state_digest(), f"state diverged in epoch {e}"
    for k in np.flatnonzero(a.alive_mask()):
        index = a.first_device + int(k)
        assert a.device(index).stats == b.device(index).stats
        assert a.device(index).state_digest() == b.device(index).state_digest()


class TestEngineFactory:
    def test_default_is_soa(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENGINE_ENV, raising=False)
        engine = FleetEngine(STRESS, seed_entropy(0))
        assert isinstance(engine, SoaFleetEngine)

    def test_explicit_object(self):
        engine = FleetEngine(STRESS, seed_entropy(0), engine="object")
        assert isinstance(engine, ObjectFleetEngine)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENGINE_ENV, "object")
        assert isinstance(FleetEngine(STRESS, seed_entropy(0)), ObjectFleetEngine)
        monkeypatch.setenv(FLEET_ENGINE_ENV, "soa")
        assert isinstance(FleetEngine(STRESS, seed_entropy(0)), SoaFleetEngine)

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENGINE_ENV, "object")
        engine = FleetEngine(STRESS, seed_entropy(0), engine="soa")
        assert isinstance(engine, SoaFleetEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            FleetEngine(STRESS, seed_entropy(0), engine="vectorized")


class TestPopulationDifferential:
    """SoA == object across whole populations, epoch by epoch."""

    def test_stress_population(self):
        entropy = seed_entropy(42)
        assert_engines_identical(
            ObjectFleetEngine(STRESS, entropy),
            SoaFleetEngine(STRESS, entropy),
            STRESS.n_epochs,
        )

    def test_default_config_population(self):
        config = FleetConfig(n_devices=6, n_epochs=4)
        entropy = seed_entropy(7)
        assert_engines_identical(
            ObjectFleetEngine(config, entropy),
            SoaFleetEngine(config, entropy),
            config.n_epochs,
        )

    def test_mixed_fault_modes_population(self):
        entropy = seed_entropy(42)
        soa = SoaFleetEngine(MIXED_FAULTS, entropy)
        assert_engines_identical(
            ObjectFleetEngine(MIXED_FAULTS, entropy), soa, MIXED_FAULTS.n_epochs
        )
        # The branches this input exists for were really taken: stuck-set
        # cells remain (sense pinning), and some stuck-set cells were
        # revived to stuck-reset by force-highest.
        s = soa._s
        assert (s.fault == FaultMode.STUCK_SET.value).any()
        revived = (s.fault == FaultMode.STUCK_RESET.value) & (
            s.pending_mode == FaultMode.STUCK_SET.value
        )
        assert revived.any()

    def test_wear_onset_population(self):
        entropy = seed_entropy(3)
        obj = ObjectFleetEngine(WEAR_ONSET, entropy)
        soa = SoaFleetEngine(WEAR_ONSET, entropy)
        assert obj.state_digest() == soa.state_digest()
        counts = soa.advance(WEAR_ONSET.n_epochs)
        assert (counts == obj.advance(WEAR_ONSET.n_epochs)).all()
        assert obj.state_digest() == soa.state_digest()
        # Both regimes in one run: clean epochs first, then wear.
        retries = counts[:, counter_index("write_retries")]
        marks = counts[:, counter_index("wearout_marks")]
        assert retries[:2].sum() == 0 and marks[:2].sum() == 0
        assert retries.sum() > 0 and marks.sum() > 0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_any_seed_stress(self, seed):
        entropy = seed_entropy(seed)
        for config in (
            stress_config(n_devices=5, n_epochs=4),
            dataclasses.replace(MIXED_FAULTS, n_devices=5, n_epochs=4),
            WEAR_ONSET,
        ):
            assert_engines_identical(
                ObjectFleetEngine(config, entropy),
                SoaFleetEngine(config, entropy),
                config.n_epochs,
            )

    @given(
        first=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_shard_window(self, first, n):
        """Bit-identity holds for any global device window, so sharded
        campaigns may mix engines freely."""
        config = stress_config(n_devices=64, n_epochs=3)
        entropy = seed_entropy(3)
        assert_engines_identical(
            ObjectFleetEngine(config, entropy, first, n),
            SoaFleetEngine(config, entropy, first, n),
            config.n_epochs,
        )

    def test_epoch_batch_invariance_soa(self):
        entropy = seed_entropy(13)
        whole = SoaFleetEngine(STRESS, entropy)
        split = SoaFleetEngine(STRESS, entropy)
        all_at_once = whole.advance(STRESS.n_epochs)
        stacked = np.vstack([split.advance(1), split.advance(3), split.advance(2)])
        assert (all_at_once == stacked).all()
        assert whole.state_digest() == split.state_digest()


class TestWaveEncodes:
    """The wear path re-encodes in batches, never one block at a time.

    Retries, and first attempts at a block marked earlier in the epoch,
    need a fresh encode under the new layout.  The wave-step epoch sends
    all of a step's such rows through one batch codec call.
    """

    CONFIG = stress_config(n_devices=32, n_epochs=5)

    def _retries(self, counts):
        return int(counts[:, counter_index("write_retries")].sum())

    def test_scalar_codec_never_called(self, monkeypatch):
        engine = SoaFleetEngine(self.CONFIG, seed_entropy(0))
        calls = []
        encode = ThreeOnTwoBlockCodec.encode

        def counting(codec, *args, **kwargs):
            calls.append(1)
            return encode(codec, *args, **kwargs)

        monkeypatch.setattr(ThreeOnTwoBlockCodec, "encode", counting)
        counts = engine.advance(self.CONFIG.n_epochs)
        assert self._retries(counts) > 0  # the wear path really ran
        assert not calls

    def test_at_most_one_batch_encode_per_wave_step(self, monkeypatch):
        engine = SoaFleetEngine(self.CONFIG, seed_entropy(0))
        step_of_call = []  # per batch encode: its wave step, or None
        current = [None]
        n_steps = [0]
        encode = BatchThreeOnTwoCodec.encode
        step = SoaFleetEngine._step

        def counting_encode(codec, *args, **kwargs):
            step_of_call.append(current[0])
            return encode(codec, *args, **kwargs)

        def counting_step(self, *args, **kwargs):
            n_steps[0] += 1
            current[0] = n_steps[0]
            try:
                return step(self, *args, **kwargs)
            finally:
                current[0] = None

        monkeypatch.setattr(BatchThreeOnTwoCodec, "encode", counting_encode)
        monkeypatch.setattr(SoaFleetEngine, "_step", counting_step)
        counts = engine.advance(self.CONFIG.n_epochs)
        in_steps = [s for s in step_of_call if s is not None]
        assert len(in_steps) == len(set(in_steps)), "two encodes in one step"
        # Outside the steps: one up-front encode per phase (writes, scrub).
        assert len(step_of_call) - len(in_steps) <= 2 * self.CONFIG.n_epochs
        # Many devices retry in the same step, so calls < retries.
        assert 0 < len(in_steps) < self._retries(counts)


class TestSummaryEquality:
    def test_fleet_mc_engine_invariant(self):
        config = stress_config(n_devices=11, n_epochs=3)
        soa = fleet_mc(config, seed=0, jobs=1, engine="soa")
        obj = fleet_mc(config, seed=0, jobs=1, engine="object")
        assert (soa.counts == obj.counts).all()
        assert soa.to_dict() == obj.to_dict()

    def test_engine_absent_from_cache_key(self, tmp_path):
        """Both engines produce identical counts, so one engine's cache
        entries serve the other verbatim."""
        config = stress_config(n_devices=9, n_epochs=3)
        cache = ResultsCache(cache_dir=tmp_path / "cache")
        warm = fleet_mc(config, seed=0, jobs=1, cache=cache, engine="object")
        misses = cache.stats.misses
        assert misses > 0
        served = fleet_mc(config, seed=0, jobs=1, cache=cache, engine="soa")
        assert cache.stats.misses == misses  # no recompute
        assert (served.counts == warm.counts).all()


class TestFastRng:
    """Batched seeding/draw fast paths pinned to the scalar reference."""

    def test_fast_seeder_matches_block_rng(self):
        seeder = FastSeeder.shared()
        entropy = seed_entropy(99)
        idx = np.arange(17, 29)
        gens = seeder.generators(entropy, (FLEET_SPAWN_KEY, KEY_DEVICE), idx)
        for i, g in zip(idx, gens):
            ref = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DEVICE, int(i)))
            assert (
                g.integers(0, 2**63, 8).tolist()
                == ref.integers(0, 2**63, 8).tolist()
            )
            assert g.bit_generator.state == ref.bit_generator.state

    def test_payload_fast_path_matches_scalar_draws(self):
        if not payload_fast_ok():
            pytest.skip("payload fast path disabled on this numpy build")
        entropy = seed_entropy(5)
        fast = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DATA, 0))
        ref = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DATA, 0))
        got = draw_payloads(fast, 4, 512)
        want = np.stack([ref.integers(0, 2, 512, dtype=np.uint8) for _ in range(4)])
        assert (got == want).all()
        # Stream-equivalent end state: same PCG position, no buffered
        # half-word (``uinteger`` is scratch whenever ``has_uint32`` is 0).
        a, b = fast.bit_generator.state, ref.bit_generator.state
        assert a["state"] == b["state"]
        assert a["has_uint32"] == b["has_uint32"] == 0

    def test_merged_normals_self_check(self):
        assert isinstance(merged_normals_ok(), bool)


class TestChaosResumeSoa:
    """Crash-resume on the SoA path, byte-equal to an *object-engine*
    clean run — crash recovery and engine equivalence in one check."""

    N_DEVICES = 30

    def _spec(self):
        return builtin_campaign("fleet", n_samples=self.N_DEVICES, seed=0)

    def _run_clean(self, run_dir, cache_dir):
        result = CampaignScheduler(
            self._spec(),
            RunStore(run_dir),
            cache=ResultsCache(cache_dir=cache_dir),
            sleep=lambda _t: None,
        ).run()
        assert result.ok
        return result

    def test_soa_crash_resume_matches_object_clean_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLEET_ENGINE_ENV, "object")
        self._run_clean(tmp_path / "ref", tmp_path / "ref-cache")

        monkeypatch.setenv(FLEET_ENGINE_ENV, "soa")
        plan = FaultPlan(
            faults=(FaultSpec.make("fleet.epoch", occurrence=1, action="crash"),),
            seed=0,
        )
        store = RunStore(tmp_path / "faulted")
        crashes = 0
        with activate(plan):
            for attempt in range(4):
                scheduler = CampaignScheduler(
                    self._spec(),
                    store,
                    cache=ResultsCache(cache_dir=tmp_path / "faulted-cache"),
                    sleep=lambda _t: None,
                )
                try:
                    result = scheduler.run(resume=attempt > 0)
                except InjectedCrash:
                    crashes += 1
                    continue
                break
            else:
                raise AssertionError("no recovery within 4 restarts")
        assert result.ok and crashes == 1

        ref = RunStore(tmp_path / "ref")
        for job_id in sorted(ref.completed_jobs()):
            assert (
                store.result_path(job_id).read_bytes()
                == ref.result_path(job_id).read_bytes()
            )
        assert result.results["fleet-population"] == json.loads(
            ref.result_path("fleet-population").read_text()
        )
