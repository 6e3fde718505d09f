"""Tests for the sharded campaign driver.

The contract under test: sharding changes wall-clock only — every
result is bit-identical to the serial path, for any worker count and
any chunk-aligned shard layout.
"""

import numpy as np
import pytest

from repro.attacks.cpa import StreamingCPA
from repro.attacks.full_key import recover_last_round_key
from repro.core.attack import REDUCTION_HW, REDUCTION_SINGLE_BIT
from repro.experiments.parallel import (
    DEFAULT_CHUNK_WORKING_SET_BYTES,
    Shard,
    plan_chunk_size,
    plan_shards,
    sharded_attack,
    sharded_full_key,
)


class TestPlanShards:
    def test_covers_range_contiguously(self):
        shards = plan_shards(500_000, 4)
        assert shards[0].start == 0
        assert shards[-1].end == 500_000
        for a, b in zip(shards, shards[1:]):
            assert a.end == b.start

    def test_boundaries_chunk_aligned(self):
        cases = [
            (plan_shards(500_000, 4), 50_000),
            (plan_shards(120_001, 3, chunk_size=50_000), 50_000),
            (plan_shards(7, 3, chunk_size=2), 2),
        ]
        for shards, chunk in cases:
            for shard in shards[:-1]:
                assert shard.end % chunk == 0

    def test_fewer_chunks_than_workers(self):
        shards = plan_shards(1000, 8)
        assert shards == [Shard(0, 1000)]

    def test_shard_num_traces(self):
        assert Shard(100, 350).num_traces == 250

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 4)
        with pytest.raises(ValueError):
            plan_shards(100, 4, chunk_size=0)


class TestPlanChunkSize:
    def test_bounded_by_working_set_footprint(self):
        # 1 KiB per trace against the 4 MiB default budget: 4096
        # traces per chunk, regardless of how long the campaign is.
        assert plan_chunk_size(10**6, 1024, workers=1) == 4096
        assert plan_chunk_size(10**7, 1024, workers=1) == 4096

    def test_saturates_workers_on_small_campaigns(self):
        # A campaign whose footprint-derived chunk would be one giant
        # block still splits into at least one chunk per worker.
        assert plan_chunk_size(100, 1, workers=4) == 25

    def test_never_exceeds_campaign_length(self):
        assert plan_chunk_size(10, 1, workers=1) == 10

    def test_huge_footprint_still_makes_progress(self):
        assert plan_chunk_size(100, 10**9, workers=1) == 1

    def test_custom_target_bytes(self):
        assert plan_chunk_size(
            10**6, 100, workers=1, target_bytes=1000
        ) == 10

    def test_default_budget_is_cache_scaled(self):
        assert DEFAULT_CHUNK_WORKING_SET_BYTES == 4 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_chunk_size(0, 8)
        with pytest.raises(ValueError):
            plan_chunk_size(100, 0)
        with pytest.raises(ValueError):
            plan_chunk_size(100, 8, target_bytes=0)


class TestShardedAttack:
    def test_matches_serial_exactly(self, alu_campaign):
        checkpoints = [1500, 4000, 8000]
        serial = alu_campaign.attack(
            8000, reduction=REDUCTION_HW, checkpoints=checkpoints
        )
        sharded = sharded_attack(
            alu_campaign,
            8000,
            reduction=REDUCTION_HW,
            checkpoints=checkpoints,
            max_workers=4,
        )
        assert np.array_equal(serial.checkpoints, sharded.checkpoints)
        assert np.array_equal(serial.correlations, sharded.correlations)
        assert serial.correct_key == sharded.correct_key

    def test_worker_count_invariant(self, alu_campaign):
        kwargs = dict(
            reduction=REDUCTION_SINGLE_BIT,
            checkpoints=[2000, 6000],
            chunk_size=1000,
        )
        one = sharded_attack(alu_campaign, 6000, max_workers=1, **kwargs)
        four = sharded_attack(alu_campaign, 6000, max_workers=4, **kwargs)
        assert np.array_equal(one.correlations, four.correlations)

    def test_chunk_grid_preserves_serial_seeds(self, alu_campaign):
        # Sharding with a small chunk must equal the serial collector
        # run at the same chunk size (jitter seeds are keyed on the
        # global chunk grid, not on shard-local offsets).
        from repro.attacks.cpa import run_cpa
        from repro.attacks.models import single_bit_hypothesis

        data = alu_campaign.collect_reduced_traces(
            6000, REDUCTION_HW, chunk_size=1000
        )
        hypotheses = single_bit_hypothesis(data["ciphertexts"][:, 3])
        serial = run_cpa(
            data["leakage"], hypotheses, checkpoints=[2500, 6000]
        )
        sharded = sharded_attack(
            alu_campaign,
            6000,
            reduction=REDUCTION_HW,
            checkpoints=[2500, 6000],
            max_workers=3,
            chunk_size=1000,
        )
        assert np.array_equal(serial.correlations, sharded.correlations)

    def test_appends_final_checkpoint(self, alu_campaign):
        result = sharded_attack(
            alu_campaign,
            3000,
            checkpoints=[1000],
            max_workers=2,
            chunk_size=1000,
        )
        assert result.checkpoints.tolist() == [1000, 3000]
        assert result.correlations.shape[0] == 2

    def test_validation(self, alu_campaign):
        with pytest.raises(ValueError):
            sharded_attack(alu_campaign, 1)
        with pytest.raises(ValueError):
            sharded_attack(alu_campaign, 1000, checkpoints=[5000])


class TestShardedFullKey:
    def test_matches_serial_exactly(self, alu_campaign):
        # Default chunk grid: identical to attack_full_key.
        serial = alu_campaign.attack_full_key(5000)
        sharded = sharded_full_key(alu_campaign, 5000, max_workers=4)
        assert (
            serial.recovered_last_round_key
            == sharded.recovered_last_round_key
        )
        for a, b in zip(serial.byte_results, sharded.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

    def test_multi_shard_matches_serial_on_same_grid(self, alu_campaign):
        # Sharding with a smaller chunk equals the serial collector run
        # at that chunk size (the jitter-seed grid is the chunk grid).
        data = alu_campaign.collect_column_traces(5000, chunk_size=1000)
        serial = recover_last_round_key(
            data["leakage"],
            data["ciphertexts"],
            correct_key=alu_campaign.cipher.last_round_key,
        )
        sharded = sharded_full_key(
            alu_campaign, 5000, max_workers=4, chunk_size=1000
        )
        for a, b in zip(serial.byte_results, sharded.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

    def test_parallel_byte_cpa_invariant(self):
        rng = np.random.default_rng(0)
        leakage = rng.normal(size=(3000, 4))
        ciphertexts = rng.integers(
            0, 256, size=(3000, 16), dtype=np.uint8
        )
        serial = recover_last_round_key(leakage, ciphertexts)
        threaded = recover_last_round_key(
            leakage, ciphertexts, max_workers=8
        )
        for a, b in zip(serial.byte_results, threaded.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

class TestStreamingMerge:
    def _integer_stream(self, n=6000, seed=0):
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 64, size=n).astype(np.float64)
        hypotheses = rng.integers(0, 2, size=(n, 16)).astype(np.float64)
        return leakage, hypotheses

    def test_merge_equals_single_stream(self):
        leakage, hypotheses = self._integer_stream()
        whole = StreamingCPA(num_candidates=16)
        whole.update(leakage, hypotheses)

        merged = StreamingCPA(num_candidates=16)
        for lo, hi in ((0, 1000), (1000, 3500), (3500, 6000)):
            part = StreamingCPA(num_candidates=16)
            part.update(leakage[lo:hi], hypotheses[lo:hi])
            merged.merge(part)
        assert merged.count == whole.count
        # Integer-valued inputs make the running sums float-exact, so
        # merging must reproduce the single-stream state bit for bit.
        assert np.array_equal(
            merged.correlations(), whole.correlations()
        )

    def test_merge_order_independent(self):
        leakage, hypotheses = self._integer_stream(seed=3)
        parts = []
        for lo, hi in ((0, 2000), (2000, 4000), (4000, 6000)):
            part = StreamingCPA(num_candidates=16)
            part.update(leakage[lo:hi], hypotheses[lo:hi])
            parts.append(part)
        forward = StreamingCPA(num_candidates=16)
        for part in parts:
            forward.merge(part)
        backward = StreamingCPA(num_candidates=16)
        for part in reversed(parts):
            backward.merge(part)
        assert np.array_equal(
            forward.correlations(), backward.correlations()
        )

    def test_merge_returns_self(self):
        a = StreamingCPA(num_candidates=4)
        b = StreamingCPA(num_candidates=4)
        assert a.merge(b) is a

    def test_candidate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamingCPA(num_candidates=4).merge(
                StreamingCPA(num_candidates=8)
            )

    def test_copy_is_independent(self):
        leakage, hypotheses = self._integer_stream(n=100, seed=5)
        original = StreamingCPA(num_candidates=16)
        original.update(leakage, hypotheses)
        snapshot = original.copy()
        original.update(leakage, hypotheses)
        assert snapshot.count == 100
        assert original.count == 200
        assert not np.array_equal(
            snapshot._sum_h, original._sum_h
        )


@pytest.mark.timeout(300)
class TestFaultTolerantCampaign:
    """Injected faults either recover bit-identically or fail structured."""

    CS = 1000  # small chunk grid so several shards exist

    def _baseline(self, alu_campaign):
        return sharded_attack(
            alu_campaign, 4000, checkpoints=[2000, 4000],
            max_workers=4, chunk_size=self.CS,
        )

    def test_nan_poisoning_caught_and_retried(self, alu_campaign):
        from repro.util.executors import CampaignHealth, RetryPolicy
        from repro.util.faults import FAULT_NAN, FaultPlan, FaultSpec

        baseline = self._baseline(alu_campaign)
        shards = plan_shards(4000, 4, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_NAN, site=shards[2].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_attack(
            alu_campaign, 4000, checkpoints=[2000, 4000],
            max_workers=4, chunk_size=self.CS,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        assert np.array_equal(result.correlations, baseline.correlations)
        failed = [a for a in health.attempts if a.status == "error"]
        assert any("NonFinite" in (a.error or "") for a in failed)

    def test_nan_poisoned_column_block_caught_and_retried(
        self, alu_campaign
    ):
        from repro.util.executors import CampaignHealth, RetryPolicy
        from repro.util.faults import FAULT_NAN, FaultPlan, FaultSpec

        baseline = sharded_full_key(
            alu_campaign, 3000, max_workers=3, chunk_size=self.CS,
        )
        shards = plan_shards(3000, 3, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_NAN, site=shards[1].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_full_key(
            alu_campaign, 3000, max_workers=3, chunk_size=self.CS,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        for a, b in zip(baseline.byte_results, result.byte_results):
            assert np.array_equal(a.correlations, b.correlations)
        failed = [a for a in health.attempts if a.status == "error"]
        assert failed and all("non-finite" in a.error for a in failed)

    def test_truncated_partials_caught_and_retried(self, alu_campaign):
        from repro.util.executors import CampaignHealth, RetryPolicy
        from repro.util.faults import FAULT_TRUNCATE, FaultPlan, FaultSpec

        baseline = self._baseline(alu_campaign)
        shards = plan_shards(4000, 4, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_TRUNCATE, site=shards[3].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_attack(
            alu_campaign, 4000, checkpoints=[2000, 4000],
            max_workers=4, chunk_size=self.CS,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        assert np.array_equal(result.correlations, baseline.correlations)
        failed = [a for a in health.attempts if a.status == "error"]
        assert any("Truncated" in (a.error or "") for a in failed)

    def test_hung_shard_abandoned_at_deadline_on_one_worker(
        self, alu_campaign
    ):
        # One worker still runs the resilient map on a (one-thread)
        # pool, so the deadline abandons the hang and the retry lands
        # bit-identically.
        import time

        from repro.util.executors import CampaignHealth, RetryPolicy
        from repro.util.faults import FAULT_HANG, FaultPlan, FaultSpec

        baseline = sharded_attack(
            alu_campaign, 4000, checkpoints=[2000, 4000],
            max_workers=1, chunk_size=self.CS,
        )
        shards = plan_shards(4000, 1, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_HANG, site=shards[0].site, hang_seconds=5.0)]
        )
        health = CampaignHealth()
        started = time.monotonic()
        result = sharded_attack(
            alu_campaign, 4000, checkpoints=[2000, 4000],
            max_workers=1, chunk_size=self.CS,
            policy=RetryPolicy(timeout=1.0, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        assert time.monotonic() - started < 5.0
        assert health.timeouts == 1
        assert result.correlations.tobytes() == (
            baseline.correlations.tobytes()
        )
        assert np.array_equal(result.checkpoints, baseline.checkpoints)

    def test_exhaustion_surfaces_shard_error(self, alu_campaign):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec

        shards = plan_shards(4000, 4, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[0].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError) as excinfo:
            sharded_attack(
                alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert excinfo.value.site == shards[0].site


@pytest.mark.timeout(300)
class TestCheckpointResume:
    """A killed campaign resumed from its checkpoint is bit-identical."""

    CS = 1000

    def _interrupt_then_resume(self, alu_campaign, tmp_path):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec
        from repro.experiments.checkpoint import load_checkpoint

        baseline = sharded_attack(
            alu_campaign, 4000, checkpoints=[1500, 2500, 4000],
            max_workers=4, chunk_size=self.CS,
        )
        path = str(tmp_path / "resume.npz")
        shards = plan_shards(4000, 4, self.CS)
        # A persistent exception on the third shard kills the driver
        # after the first checkpoint group is durable.
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[2].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_attack(
                alu_campaign, 4000, checkpoints=[1500, 2500, 4000],
                max_workers=4, chunk_size=self.CS,
                checkpoint_path=path, checkpoint_every=1,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        stored = load_checkpoint(path)
        assert 0 < stored.completed_shards < len(shards)
        resumed = sharded_attack(
            alu_campaign, 4000, checkpoints=[1500, 2500, 4000],
            max_workers=4, chunk_size=self.CS,
            checkpoint_path=path, checkpoint_every=1, resume=True,
        )
        assert np.array_equal(
            resumed.correlations, baseline.correlations
        )
        assert np.array_equal(resumed.checkpoints, baseline.checkpoints)
        assert resumed.correct_key == baseline.correct_key

    def test_kill_then_resume_thread_backend(self, alu_campaign, tmp_path):
        self._interrupt_then_resume(alu_campaign, tmp_path)

    def test_uninterrupted_checkpointed_run_identical(
        self, alu_campaign, tmp_path
    ):
        baseline = sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
        )
        path = str(tmp_path / "full.npz")
        result = sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
            checkpoint_path=path, checkpoint_every=2,
        )
        assert np.array_equal(result.correlations, baseline.correlations)
        # Resuming a finished campaign recomputes nothing and still
        # returns the full result.
        again = sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
            checkpoint_path=path, resume=True,
        )
        assert np.array_equal(again.correlations, baseline.correlations)

    def test_resume_rejects_mismatched_config(
        self, alu_campaign, tmp_path
    ):
        from repro.experiments.checkpoint import CheckpointError

        path = str(tmp_path / "mismatch.npz")
        sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="num_traces"):
            sharded_attack(
                alu_campaign, 5000, max_workers=4, chunk_size=self.CS,
                checkpoint_path=path, resume=True,
            )

    def test_resume_with_absent_checkpoint_is_fresh_start(
        self, alu_campaign, tmp_path
    ):
        baseline = sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
        )
        path = str(tmp_path / "never-written.npz")
        result = sharded_attack(
            alu_campaign, 4000, max_workers=4, chunk_size=self.CS,
            checkpoint_path=path, resume=True,
        )
        assert np.array_equal(result.correlations, baseline.correlations)

    def test_fullkey_kill_then_resume(self, alu_campaign, tmp_path):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec
        from repro.experiments.checkpoint import load_checkpoint

        baseline = sharded_full_key(
            alu_campaign, 3000, max_workers=3, chunk_size=self.CS,
        )
        path = str(tmp_path / "fullkey.npz")
        shards = plan_shards(3000, 3, self.CS)
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[2].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_full_key(
                alu_campaign, 3000, max_workers=3, chunk_size=self.CS,
                checkpoint_path=path, checkpoint_every=1,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert 0 < load_checkpoint(path).completed_shards < len(shards)
        resumed = sharded_full_key(
            alu_campaign, 3000, max_workers=3, chunk_size=self.CS,
            checkpoint_path=path, checkpoint_every=1, resume=True,
        )
        assert (
            resumed.recovered_last_round_key
            == baseline.recovered_last_round_key
        )
        for a, b in zip(baseline.byte_results, resumed.byte_results):
            assert np.array_equal(a.correlations, b.correlations)
