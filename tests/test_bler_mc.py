"""Empirical BLER engine: determinism, caching, analytic cross-validation."""

import numpy as np
import pytest

from repro.analysis.bler import binom_confidence, block_error_rate
from repro.cli import main
from repro.coding.batch import BatchThreeOnTwoCodec
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.core.three_on_two import STATE_TO_TEC_BITS
from repro.montecarlo.bler_mc import BLER_SPAWN_KEY, ERR_STATE, BlerResult, bler_mc
from repro.montecarlo.executor import plan_blocks
from repro.montecarlo.results_cache import ResultsCache
from repro.montecarlo.rng import block_rng, seed_entropy

CERS = [3e-3, 1e-2]
N_BLOCKS = 20_000

#: ``(n_silent, n_errors)`` of ``bler_mc(PINNED_CERS, 25_000, seed=s)``,
#: recorded from the dense injection loop (every block injected and
#: decoded at every CER).  Any change to draws, injection or decode that
#: moves a count shows up here.
PINNED_CERS = (1e-3, 3e-3, 1e-2, 5e-2)
PINNED_COUNTS = {
    0: [(597, 1225), (3410, 7164), (10446, 21636), (12117, 25000)],
    11: [(594, 1225), (3540, 7302), (10475, 21759), (12089, 25000)],
}


def dense_reference(cers, n_blocks, seed, n_spare_pairs=6, data_bits=512):
    """Per-CER ``np.where`` injection + full decode of every block.

    The straightforward evaluator: same RNG blocks and draw order as the
    engine (data first, then one uniform per cell), no sparsity.
    """
    bc = BatchThreeOnTwoCodec(
        ThreeOnTwoBlockCodec(data_bits=data_bits, n_spare_pairs=n_spare_pairs)
    )
    entropy = seed_entropy(seed)
    counts = np.zeros((len(cers), 2), dtype=np.int64)
    for index, size in enumerate(plan_blocks(n_blocks)):
        rng = block_rng(entropy, (BLER_SPAWN_KEY, index))
        data = rng.integers(0, 2, size=(size, data_bits), dtype=np.uint8)
        u = rng.random((size, bc.codec.n_mlc_cells))
        states, checks = bc.encode(data)
        for j, cer in enumerate(cers):
            read = np.where(u < cer, ERR_STATE[states], states)
            out = bc.decode(read, checks)
            mismatch = np.any(out.data_bits != data, axis=1)
            counts[j, 0] += int((mismatch & ~out.uncorrectable).sum())
            counts[j, 1] += int((out.uncorrectable | mismatch).sum())
    return [(int(s), int(e)) for s, e in counts]


@pytest.fixture(scope="module")
def baseline():
    return bler_mc(CERS, N_BLOCKS, seed=7)


class TestInjectionModel:
    def test_each_error_flips_exactly_one_tec_bit(self):
        """The analytic comparison hinges on 1 erring cell = 1 bit error."""
        for s in range(3):
            assert ERR_STATE[s] != s
            flipped = STATE_TO_TEC_BITS[s] ^ STATE_TO_TEC_BITS[ERR_STATE[s]]
            assert int(flipped.sum()) == 1, s

    def test_err_state_is_read_only(self):
        with pytest.raises(ValueError):
            ERR_STATE[0] = 2


class TestDeterminism:
    def test_chunk_and_jobs_invariance(self, baseline):
        assert bler_mc(CERS, N_BLOCKS, seed=7, chunk=7_000, jobs=1) == baseline
        assert bler_mc(CERS, N_BLOCKS, seed=7, chunk=5_000, jobs=2) == baseline

    def test_seed_changes_counts(self, baseline):
        other = bler_mc(CERS, N_BLOCKS, seed=8)
        assert [r.n_errors for r in other] != [r.n_errors for r in baseline]

    def test_single_cer_scalar_and_duplicates(self, baseline):
        one = bler_mc(CERS[0], N_BLOCKS, seed=7)
        assert isinstance(one, list) and one[0] == baseline[0]
        dup = bler_mc([CERS[0], CERS[0]], N_BLOCKS, seed=7)
        assert dup[0] == dup[1] == baseline[0]

    def test_common_random_numbers_make_curve_monotone(self, baseline):
        """Shared uniforms: more CER can only add errors, never remove."""
        assert baseline[0].n_errors <= baseline[1].n_errors


class TestPinnedCounts:
    @pytest.mark.parametrize("seed", sorted(PINNED_COUNTS))
    def test_counts_are_pinned(self, seed):
        results = bler_mc(PINNED_CERS, 25_000, seed=seed)
        got = [(r.n_silent, r.n_errors) for r in results]
        assert got == PINNED_COUNTS[seed]


class TestDenseDifferential:
    """The engine agrees with the dense reference evaluator exactly."""

    @pytest.mark.parametrize(
        "cers, n_blocks, spares",
        [
            # cer=0 and cer=1 bracket the thresholds; 12_345 blocks end
            # in a partial RNG block.
            ((0.0, 1e-3, 1.0), 12_345, 6),
            # Duplicates and an unsorted order share one uniform draw.
            ((1e-2, 2e-3, 1e-2, 2e-3), 3_000, 6),
            # A non-default spare count changes the block geometry.
            ((3e-3, 2e-2), 4_321, 2),
        ],
    )
    def test_matches_dense_reference(self, cers, n_blocks, spares):
        results = bler_mc(cers, n_blocks, seed=5, n_spare_pairs=spares)
        got = [(r.n_silent, r.n_errors) for r in results]
        assert got == dense_reference(cers, n_blocks, 5, n_spare_pairs=spares)


class TestCache:
    def test_round_trip_and_warm_hit(self, tmp_path, baseline):
        cache = ResultsCache(cache_dir=tmp_path / "mc")
        first = bler_mc(CERS, N_BLOCKS, seed=7, cache=cache)
        assert cache.stats.misses == len(CERS)
        assert cache.stats.stores == len(CERS)
        second = bler_mc(CERS, N_BLOCKS, seed=7, cache=cache)
        assert cache.stats.hits == len(CERS)
        assert first == second == baseline

    def test_key_separates_geometry_and_seed(self, tmp_path):
        cache = ResultsCache(cache_dir=tmp_path / "mc")
        bler_mc([1e-2], 2_000, seed=7, cache=cache)
        bler_mc([1e-2], 2_000, seed=8, cache=cache)
        bler_mc([1e-2], 2_000, seed=7, n_spare_pairs=4, cache=cache)
        assert cache.stats.stores == 3 and cache.stats.hits == 0


class TestAnalyticAgreement:
    def test_within_binomial_ci_at_three_points(self):
        """The acceptance cross-validation, at CI scale (50k blocks)."""
        results = bler_mc([3e-3, 1e-2, 3e-2], 50_000, seed=7)
        for r in results:
            lo, hi = r.confidence()
            analytic = block_error_rate(r.cer, 354, 1)
            assert lo <= analytic <= hi, (r.cer, r.bler, analytic)

    def test_zero_cer_never_errs(self):
        (r,) = bler_mc([0.0], 5_000, seed=7)
        assert r.n_errors == 0 and r.n_silent == 0 and r.bler == 0.0
        assert r.confidence()[0] == 0.0


class TestBlerResult:
    def test_detected_plus_silent(self, baseline):
        for r in baseline:
            assert 0 <= r.n_silent <= r.n_errors
            assert r.n_detected == r.n_errors - r.n_silent
            lo, hi = r.confidence()
            assert lo <= r.bler <= hi

    def test_zero_blocks_guard(self):
        r = BlerResult(cer=0.1, n_blocks=0, n_silent=0, n_errors=0)
        assert r.bler == 0.0


class TestValidation:
    def test_bad_cer_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([1.5], 100)
        with pytest.raises(ValueError):
            bler_mc([-0.1], 100)

    def test_bad_block_count_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([0.01], 0)

    def test_empty_cers_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([], 100)

    def test_binom_confidence_validation(self):
        with pytest.raises(ValueError):
            binom_confidence(1, 0)
        with pytest.raises(ValueError):
            binom_confidence(5, 3)
        with pytest.raises(ValueError):
            binom_confidence(1, 10, confidence=1.0)

    def test_binom_confidence_extremes(self):
        lo, hi = binom_confidence(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = binom_confidence(100, 100)
        assert 0.95 < lo < 1 and hi == 1.0


class TestCli:
    def test_analytic_table(self, capsys):
        assert main(["bler", "--cer", "1e-3", "1e-2"]) == 0
        out = capsys.readouterr().out
        assert "BCH-1" in out and out.count("BLER at CER") == 2

    def test_empirical_cross_validates(self, capsys):
        rc = main(
            [
                "bler", "--cer", "3e-3", "1e-2", "--empirical", "20000",
                "--seed", "7", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "analytic" in out and "NO" not in out
        assert "batched 3-ON-2 datapath" in out

    def test_campaign_builtin_runs(self, tmp_path, capsys):
        rc = main(
            [
                "campaign", "run", "--spec", "bler", "--samples", "5000",
                "--run-dir", str(tmp_path / "run"), "--no-cache",
                "--no-progress",
            ]
        )
        assert rc == 0, capsys.readouterr().err
        assert "bler_mc" in capsys.readouterr().out
