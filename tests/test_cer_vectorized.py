"""Differential suites for the vectorized CER core (PR 6).

Three promises are held here:

1. **Batched analytic quadrature** (`analytic_design_cer_batch` /
   `analytic_state_cer_batch`) matches the per-design scalar entry points
   to <= 1e-12 relative over random feasible designs, schedules, and time
   grids (in practice the kernels are bit-identical — the broadcasts
   preserve the scalar path's per-element float operations).
2. **MC evaluation** returns bit-identical ``int64`` counts to the
   frozen per-block sort + ``searchsorted`` reduction, and leaves the
   persistent cache keys unchanged (a warm cache checked in from an
   earlier engine serves with zero misses).
3. **Vectorized sensing policies** reproduce the per-threshold loops
   exactly (golden pins captured before the rewrite).
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.montecarlo.executor as executor
from repro.cells.drift import (
    NO_ESCALATION,
    PAPER_ESCALATION,
    escalation_schedule,
)
from repro.cells.params import TABLE1, DriftParams, StateParams
from repro.cells.sensing import ReferenceCellSensing, TimeAwareSensing
from repro.core.designs import all_designs, four_level_naive, three_level_optimal
from repro.core.levels import LevelDesign
from repro.montecarlo.analytic import (
    analytic_design_cer,
    analytic_design_cer_batch,
    analytic_state_cer,
    analytic_state_cer_batch,
)
from repro.montecarlo.cer import (
    critical_log_times,
    design_cer,
    sample_state_cells,
    state_cer,
)
from repro.montecarlo.executor import StateRun, blocks_evaluated, run_counts
from repro.montecarlo.results_cache import ResultsCache, state_counts_key
from repro.montecarlo.rng import block_rng

SCHEDULES = {
    "paper": PAPER_ESCALATION,
    "none": NO_ESCALATION,
    "correlated": escalation_schedule("correlated"),
    "mean": escalation_schedule("mean"),
}


def random_design(draw) -> LevelDesign:
    """A feasible random design: ordered levels with room for thresholds."""
    n = draw(st.integers(min_value=2, max_value=4))
    gaps = [draw(st.floats(0.7, 1.6)) for _ in range(n - 1)]
    mus = np.concatenate([[3.0], 3.0 + np.cumsum(gaps)])
    fracs = [draw(st.floats(0.25, 0.75)) for _ in range(n - 1)]
    taus = [m + f * (m2 - m) for m, m2, f in zip(mus[:-1], mus[1:], fracs)]
    occ = np.array([draw(st.floats(0.05, 1.0)) for _ in range(n)])
    return LevelDesign.from_levels(
        "rand",
        [f"S{i + 1}" for i in range(n)],
        [float(m) for m in mus],
        thresholds=taus,
        occupancy=occ / occ.sum(),
    )


class TestBatchedAnalytic:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_batch_matches_scalar_per_design(self, data):
        designs = [random_design(data.draw) for _ in range(data.draw(st.integers(1, 3)))]
        sched = SCHEDULES[data.draw(st.sampled_from(sorted(SCHEDULES)))]
        n_t = data.draw(st.integers(1, 5))
        exps = sorted(data.draw(st.floats(0.1, 11.9)) for _ in range(n_t))
        times = [10.0**e for e in exps]
        batch = analytic_design_cer_batch(designs, times, schedule=sched, z_points=301)
        assert batch.shape == (len(designs), n_t)
        for j, d in enumerate(designs):
            ref = analytic_design_cer(d, times, schedule=sched, z_points=301)
            np.testing.assert_allclose(batch[j], ref, rtol=1e-12, atol=0.0)

    def test_canonical_designs_bitwise(self):
        designs = all_designs()
        names = sorted(designs)
        times = [2.0**k for k in (1, 15, 30, 40)]
        batch = analytic_design_cer_batch([designs[n] for n in names], times)
        for j, n in enumerate(names):
            ref = analytic_design_cer(designs[n], times)
            assert np.array_equal(batch[j], ref), n

    def test_state_batch_matches_scalar(self):
        d = four_level_naive()
        taus = [d.upper_threshold(i) for i in range(4)]
        times = [32.0, 2.0**20, 2.0**40]
        batch = analytic_state_cer_batch(d.states, taus, times)
        for i, (s, tau) in enumerate(zip(d.states, taus)):
            if np.isfinite(tau):
                assert np.array_equal(batch[i], analytic_state_cer(s, tau, times))
            else:
                assert np.all(batch[i] == 0.0)

    def test_duplicate_rows_share_quadrature(self):
        s = TABLE1["S2"]
        times = [2.0**20, 2.0**30]
        batch = analytic_state_cer_batch([s, s, s], [4.5, 5.0, 4.5], times)
        assert np.array_equal(batch[0], batch[2])
        assert not np.array_equal(batch[0], batch[1])

    def test_empty_designs(self):
        assert analytic_design_cer_batch([], [1024.0]).shape == (0, 1)

    def test_deterministic_kernel_rejects_independent_tiers(self):
        from repro.montecarlo.analytic import _deterministic_rows_cer

        s = TABLE1["S2"]
        with pytest.raises(ValueError, match="independent"):
            _deterministic_rows_cer(
                np.array([s.mu_lr]),
                np.array([s.sigma_lr]),
                np.array([5.5]),
                PAPER_ESCALATION.tiers,
                PAPER_ESCALATION,
                s.drift.mu_alpha,
                s.drift.sigma_alpha,
                np.array([6.0]),
                301,
                8.5,
            )


def _eval_blocks_reference(task) -> np.ndarray:
    """The pre-fusion per-block reduction, frozen as the test oracle."""
    counts = np.zeros(len(task.L_grid), dtype=np.int64)
    for offset, size in enumerate(task.sizes):
        rng = block_rng(task.entropy, task.prefix + (task.first_block + offset,))
        lr0, alpha, z = sample_state_cells(task.state, size, rng)
        tier_z = None
        if task.n_tiers:
            tier_z = [rng.standard_normal(size) for _ in range(task.n_tiers)]
        L_star = critical_log_times(
            lr0, alpha, z, task.state.drift.mu_alpha, task.tau, task.schedule, tier_z
        )
        L_star.sort()
        counts += np.searchsorted(L_star, task.L_grid, side="right")
    return counts


class TestFusedExecutor:
    L = np.log10(np.sort(np.array([32.0, 2.0**15, 2.0**20, 2.0**30, 2.0**40])))

    def test_engine_version_unchanged(self):
        assert executor.ENGINE_VERSION == 1

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(["S1", "S2", "S3"]),
        tau=st.floats(4.2, 6.0),
        n=st.integers(1, 45_000),
        seed=st.integers(0, 2**31),
        sched=st.sampled_from(sorted(SCHEDULES)),
    )
    def test_fused_counts_bit_identical(self, name, tau, n, seed, sched):
        schedule = SCHEDULES[sched]
        run = StateRun(TABLE1[name], tau, n, seed, (1,))
        new = run_counts([run], self.L, schedule=schedule)[0]
        n_tiers = 0
        if schedule.mode == "independent" and np.isfinite(tau):
            n_tiers = len(schedule.tiers_between(-np.inf, tau))
        task = executor._Task(
            item=0,
            state=run.state,
            tau=float(run.tau),
            n_tiers=n_tiers,
            first_block=0,
            sizes=tuple(executor.plan_blocks(n)),
            entropy=run.entropy,
            prefix=run.prefix,
            L_grid=self.L,
            schedule=schedule,
        )
        ref = _eval_blocks_reference(task)
        assert new.dtype == np.int64
        assert np.array_equal(new, ref)

    def test_golden_counts_tier_crossing(self):
        r = state_cer(TABLE1["S3"], 5.5, [4.0, 1024.0, 2.0**20], 34_567, seed=7)
        assert [int(c) for c in (r.cer * r.n_samples).round()] == [5, 1299, 9278]

    def test_golden_counts_custom_state(self):
        s = StateParams("X", 4.0, 1.0 / 6.0, DriftParams(0.05, 0.02))
        r = state_cer(s, 4.9, [4.0, 1024.0, 2.0**20], 50_000, seed=9)
        assert [int(c) for c in (r.cer * r.n_samples).round()] == [0, 0, 45]
        r = state_cer(
            s, 5.1, [4.0, 1024.0, 2.0**20], 50_000, seed=9,
            schedule=SCHEDULES["correlated"],
        )
        assert [int(c) for c in (r.cer * r.n_samples).round()] == [0, 0, 6]


class TestWarmCacheAcrossFusion:
    """A cache written by the pre-fusion engine must serve with 0 misses."""

    FIXTURE = "tests/fixtures/mc_cache_prefusion"
    PINNED_KEY = "02d47640eddf339cc2077172072c177c60b444b30b894450c731faf0e5aa21ff"

    @pytest.fixture()
    def warm_cache(self, tmp_path):
        shutil.copytree(self.FIXTURE, tmp_path, dirs_exist_ok=True)
        return ResultsCache(tmp_path)

    def test_state_counts_key_pinned(self):
        run = StateRun(TABLE1["S2"], 5.5, 25_000, 123, ())
        times = np.sort(np.array([2.0**15, 2.0**30, 2.0**40]))
        assert state_counts_key(run, times, PAPER_ESCALATION) == self.PINNED_KEY

    def test_design_run_zero_misses(self, warm_cache):
        before = blocks_evaluated()
        r = design_cer(
            four_level_naive(), [32.0, 1024.0, 2.0**20], 30_000, seed=42,
            cache=warm_cache,
        )
        assert blocks_evaluated() == before, "fusion invalidated the warm cache"
        assert [int(c) for c in (r.cer * r.n_samples).round()] == [33, 275, 2029]

    def test_state_run_zero_misses(self, warm_cache):
        before = blocks_evaluated()
        r = state_cer(
            TABLE1["S2"], 5.5, [2.0**15, 2.0**30, 2.0**40], 25_000, seed=123,
            cache=warm_cache,
        )
        assert blocks_evaluated() == before
        assert [int(c) for c in (r.cer * r.n_samples).round()] == [0, 0, 0]


class TestVectorizedSensing:
    def test_time_aware_golden_pins(self):
        lc4 = four_level_naive()
        got = TimeAwareSensing().thresholds_at(lc4, 3.0)
        assert list(got) == [3.5004771212547197, 4.509542425094393, 5.5286272752831795]
        got = TimeAwareSensing().thresholds_at(three_level_optimal(), 1e6)
        assert list(got) == [3.490033333333333, 5.5408333333333335]

    def test_reference_cell_golden_pins(self):
        lc4 = four_level_naive()
        got = ReferenceCellSensing(8, seed=5).thresholds_at(lc4, 1.0)
        assert list(got) == [3.45058391693733, 4.4612482518329175, 5.500144909488183]
        got = ReferenceCellSensing(8, seed=5).measured_means(lc4, 1e4)
        assert list(got) == [
            2.9512985164573715,
            4.032603357346295,
            5.204576105093643,
            6.44448003621172,
        ]

    def test_reference_cell_degenerate_state_uses_loop(self):
        # sigma_alpha = 0 consumes fewer uniforms in the fast path; the
        # policy must fall back to the sequential per-state sampler.
        d = LevelDesign(
            name="deg",
            states=(
                StateParams("A", 4.0, 0.1, DriftParams(0.02, 0.0)),
                StateParams("B", 6.0, 0.1, DriftParams(0.1, 0.04)),
            ),
            thresholds=(5.0,),
            occupancy=(0.5, 0.5),
        )
        policy = ReferenceCellSensing(4, seed=3)
        from repro.montecarlo.rng import make_rng

        expect = policy._measured_means_loop(d, make_rng(3), np.log10(1e4))
        assert np.array_equal(policy.measured_means(d, 1e4), expect)
