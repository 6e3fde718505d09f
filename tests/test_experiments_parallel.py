"""Tests for the sharded campaign driver.

The contract under test: sharding changes wall-clock only — every
result is bit-identical to the serial path, for any worker count and
any block-aligned shard layout.
"""

import time

import numpy as np
import pytest

from repro.attacks.cpa import StreamingCPA
from repro.attacks.full_key import recover_last_round_key
from repro.core.attack import (
    REDUCTION_HW,
    REDUCTION_SINGLE_BIT,
    STREAM_BLOCK,
)
from repro.experiments.parallel import (
    Shard,
    plan_shards,
    run_lease,
    sharded_attack,
    sharded_full_key,
    sharded_physical_attack,
    sharded_physical_full_key,
)
from repro.util.faults import FaultPlan

#: Campaign sizes that span several stream blocks, the last one
#: partial, so several shards exist and no boundary is a round number.
N4 = 3 * STREAM_BLOCK + 1000
N3 = 2 * STREAM_BLOCK + 800


class TestPlanShards:
    def test_covers_range_contiguously(self):
        shards = plan_shards(500_000, 4)
        assert shards[0].start == 0
        assert shards[-1].end == 500_000
        for a, b in zip(shards, shards[1:]):
            assert a.end == b.start

    def test_boundaries_chunk_aligned(self):
        for num_traces, workers in [(500_000, 4), (120_001, 3), (N4, 4)]:
            for shard in plan_shards(num_traces, workers)[:-1]:
                assert shard.end % STREAM_BLOCK == 0

    def test_splits_blocks_evenly(self):
        # The 60k two-worker campaign is 15 blocks, the last one
        # partial: 7 + 8 (28,672 + 31,328 traces), not the 50k + 10k
        # of a coarse grid.  The spare block goes to the shard holding
        # the partial one.
        assert plan_shards(60_000, 2) == [
            Shard(0, 7 * STREAM_BLOCK), Shard(7 * STREAM_BLOCK, 60_000)
        ]
        for num_traces in (N3, N4, 60_000, 150_000, 250_000):
            for workers in (1, 2, 3, 4, 7):
                shards = plan_shards(num_traces, workers)
                blocks = [-(-s.num_traces // STREAM_BLOCK) for s in shards]
                assert max(blocks) - min(blocks) <= 1
                assert len(shards) == min(
                    workers, -(-num_traces // STREAM_BLOCK)
                )

    def test_fewer_chunks_than_workers(self):
        assert plan_shards(1000, 8) == [Shard(0, 1000)]
        assert plan_shards(STREAM_BLOCK + 1, 8) == [
            Shard(0, STREAM_BLOCK), Shard(STREAM_BLOCK, STREAM_BLOCK + 1)
        ]

    def test_shard_num_traces(self):
        assert Shard(100, 350).num_traces == 250

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(0, 4)

    def test_lease_off_the_block_grid_rejected(self, alu_campaign):
        from repro.experiments.parallel import ShardSource

        source = ShardSource.per_column(alu_campaign, N3)
        for start, end in (
            (1000, N3),  # starts mid-block
            (0, STREAM_BLOCK + 1),  # ends mid-block before the end
            (STREAM_BLOCK, N3 + 1),  # runs past the campaign
            (STREAM_BLOCK, STREAM_BLOCK),  # empty
        ):
            with pytest.raises(ValueError, match="stream block grid"):
                run_lease(source, start, end, [end])
        [(boundary, state)] = run_lease(source, STREAM_BLOCK, N3, [N3])
        assert boundary == N3
        assert state["counts"].shape == (16, 256)
        assert int(state["count"]) == N3 - STREAM_BLOCK

    def test_lease_segment_ends_must_end_at_the_lease_end(
        self, alu_campaign
    ):
        from repro.experiments.parallel import ShardSource

        source = ShardSource.reduced(alu_campaign, N3)
        end = 2 * STREAM_BLOCK
        for ends in (
            [],
            [STREAM_BLOCK],  # stops short of the lease end
            [end, N3],  # runs past it
            [3000, 2000, end],  # not rising
            [0, end],  # at the lease start, outside it
        ):
            with pytest.raises(ValueError, match="segment ends"):
                run_lease(source, 0, end, ends)
        partials = run_lease(source, 0, end, [3000, end])
        assert [boundary for boundary, _ in partials] == [3000, end]


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
            reduction=REDUCTION_SINGLE_BIT, checkpoints=[2000, 6000, N4]
        )
        one = sharded_attack(alu_campaign, N4, max_workers=1, **kwargs)
        four = sharded_attack(alu_campaign, N4, max_workers=4, **kwargs)
        assert np.array_equal(one.correlations, four.correlations)

    def test_chunk_grid_preserves_serial_seeds(self, alu_campaign):
        # Three shards must equal the serial collector: jitter seeds are
        # keyed on the global stream-block grid, not on shard-local
        # offsets.
        from repro.attacks.cpa import run_cpa
        from repro.attacks.models import BYTE_VALUES, single_bit_hypothesis

        data = alu_campaign.collect_reduced_traces(N3, REDUCTION_HW)
        serial = run_cpa(
            data["leakage"],
            data["ciphertexts"][:, 3],
            single_bit_hypothesis(BYTE_VALUES),
            checkpoints=[2500, 6000, N3],
        )
        sharded = sharded_attack(
            alu_campaign,
            N3,
            reduction=REDUCTION_HW,
            checkpoints=[2500, 6000, N3],
            max_workers=3,
        )
        assert np.array_equal(serial.correlations, sharded.correlations)

    def test_appends_final_checkpoint(self, alu_campaign):
        result = sharded_attack(
            alu_campaign,
            3000,
            checkpoints=[1000],
            max_workers=2,
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
        serial = alu_campaign.attack_full_key(5000)
        sharded = sharded_full_key(alu_campaign, 5000, max_workers=4)
        assert (
            serial.recovered_last_round_key
            == sharded.recovered_last_round_key
        )
        for a, b in zip(serial.byte_results, sharded.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

    def test_multi_shard_matches_serial_on_same_grid(self, alu_campaign):
        # Four shards equal the serial collector, which walks the same
        # stream-block grid.
        data = alu_campaign.collect_column_traces(N4)
        serial = recover_last_round_key(
            data["leakage"],
            data["ciphertexts"],
            correct_key=alu_campaign.cipher.last_round_key,
        )
        sharded = sharded_full_key(alu_campaign, N4, max_workers=4)
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
        values = rng.integers(0, 16, size=n)
        table = rng.integers(0, 2, size=(16, 16)).astype(np.int8)
        return leakage, values, table

    def test_merge_equals_single_stream(self):
        leakage, values, table = self._integer_stream()
        whole = StreamingCPA(table)
        whole.update(leakage, values)

        merged = StreamingCPA(table)
        for lo, hi in ((0, 1000), (1000, 3500), (3500, 6000)):
            part = StreamingCPA(table)
            part.update(leakage[lo:hi], values[lo:hi])
            merged.merge(part)
        assert merged.count == whole.count
        # The int64 states add up to the single-stream state exactly.
        assert np.array_equal(
            merged.correlations(), whole.correlations()
        )

    def test_merge_order_independent(self):
        leakage, values, table = self._integer_stream(seed=3)
        parts = []
        for lo, hi in ((0, 2000), (2000, 4000), (4000, 6000)):
            part = StreamingCPA(table)
            part.update(leakage[lo:hi], values[lo:hi])
            parts.append(part)
        forward = StreamingCPA(table)
        for part in parts:
            forward.merge(part)
        backward = StreamingCPA(table)
        for part in reversed(parts):
            backward.merge(part)
        assert np.array_equal(
            forward.correlations(), backward.correlations()
        )

    def test_merge_returns_self(self):
        a = StreamingCPA(np.eye(4))
        b = StreamingCPA(np.eye(4))
        assert a.merge(b) is a

    def test_candidate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamingCPA(np.eye(4)).merge(StreamingCPA(np.eye(8)))

    def test_copy_is_independent(self):
        # A state rebuilt from state_arrays() is a snapshot: updating
        # the original leaves it as it was.
        leakage, values, table = self._integer_stream(n=100, seed=5)
        original = StreamingCPA(table)
        original.update(leakage, values)
        snapshot = StreamingCPA.from_state_arrays(
            original.state_arrays(), table
        )
        original.update(leakage, values)
        assert snapshot.count == 100
        assert original.count == 200
        assert not np.array_equal(
            snapshot.state_arrays()["sums"], original.state_arrays()["sums"]
        )


@pytest.mark.timeout(300)
class TestFaultTolerantCampaign:
    """Injected faults either recover bit-identically or fail structured."""

    def _baseline(self, alu_campaign):
        return sharded_attack(
            alu_campaign, N4, checkpoints=[2000, N4],
            max_workers=4,
        )

    def test_nan_poisoning_caught_and_retried(self, alu_campaign):
        from repro.util.executors import CampaignHealth, RetryPolicy
        from repro.util.faults import FAULT_NAN, FaultPlan, FaultSpec

        baseline = self._baseline(alu_campaign)
        shards = plan_shards(N4, 4)
        plan = FaultPlan(
            [FaultSpec(FAULT_NAN, site=shards[2].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_attack(
            alu_campaign, N4, checkpoints=[2000, N4],
            max_workers=4,
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
            alu_campaign, N3, max_workers=3,
        )
        shards = plan_shards(N3, 3)
        plan = FaultPlan(
            [FaultSpec(FAULT_NAN, site=shards[1].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_full_key(
            alu_campaign, N3, max_workers=3,
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
        shards = plan_shards(N4, 4)
        plan = FaultPlan(
            [FaultSpec(FAULT_TRUNCATE, site=shards[3].site, attempts=1)],
            seed=2,
        )
        health = CampaignHealth()
        result = sharded_attack(
            alu_campaign, N4, checkpoints=[2000, N4],
            max_workers=4,
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
            alu_campaign, N4, checkpoints=[2000, N4],
            max_workers=1,
        )
        shards = plan_shards(N4, 1)
        plan = FaultPlan(
            [FaultSpec(FAULT_HANG, site=shards[0].site, hang_seconds=5.0)]
        )
        health = CampaignHealth()
        started = time.monotonic()
        result = sharded_attack(
            alu_campaign, N4, checkpoints=[2000, N4],
            max_workers=1,
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

        shards = plan_shards(N4, 4)
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[0].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError) as excinfo:
            sharded_attack(
                alu_campaign, N4, max_workers=4,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert excinfo.value.site == shards[0].site


@pytest.mark.timeout(300)
class TestCheckpointResume:
    """A killed campaign resumed from its checkpoint is bit-identical."""

    def _interrupt_then_resume(self, alu_campaign, tmp_path):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec
        from repro.experiments.checkpoint import load_checkpoint

        baseline = sharded_attack(
            alu_campaign, N4, checkpoints=[1500, 2500, N4],
            max_workers=4,
        )
        path = str(tmp_path / "resume.npz")
        shards = plan_shards(N4, 4)
        # A persistent exception on the third shard kills the driver
        # after the first two shards merged and became durable.
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[2].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_attack(
                alu_campaign, N4, checkpoints=[1500, 2500, N4],
                max_workers=4,
                checkpoint_path=path,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        stored = load_checkpoint(path)
        assert 0 < stored.completed_shards < len(shards)
        resumed = sharded_attack(
            alu_campaign, N4, checkpoints=[1500, 2500, N4],
            max_workers=4,
            checkpoint_path=path, resume=True,
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
            alu_campaign, N4, max_workers=4,
        )
        path = str(tmp_path / "full.npz")
        result = sharded_attack(
            alu_campaign, N4, max_workers=4,
            checkpoint_path=path,
        )
        assert np.array_equal(result.correlations, baseline.correlations)
        # Resuming a finished campaign recomputes nothing and still
        # returns the full result.
        again = sharded_attack(
            alu_campaign, N4, max_workers=4,
            checkpoint_path=path, resume=True,
        )
        assert np.array_equal(again.correlations, baseline.correlations)

    def test_resume_rejects_mismatched_config(
        self, alu_campaign, tmp_path
    ):
        from repro.experiments.checkpoint import CheckpointError

        path = str(tmp_path / "mismatch.npz")
        sharded_attack(
            alu_campaign, N4, max_workers=4,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="num_traces"):
            sharded_attack(
                alu_campaign, N4 + 1000, max_workers=4,
                checkpoint_path=path, resume=True,
            )

    def test_resume_with_absent_checkpoint_is_fresh_start(
        self, alu_campaign, tmp_path
    ):
        baseline = sharded_attack(
            alu_campaign, N4, max_workers=4,
        )
        path = str(tmp_path / "never-written.npz")
        result = sharded_attack(
            alu_campaign, N4, max_workers=4,
            checkpoint_path=path, resume=True,
        )
        assert np.array_equal(result.correlations, baseline.correlations)

    def test_fullkey_kill_then_resume(self, alu_campaign, tmp_path):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec
        from repro.experiments.checkpoint import load_checkpoint

        baseline = sharded_full_key(
            alu_campaign, N3, max_workers=3,
        )
        path = str(tmp_path / "fullkey.npz")
        shards = plan_shards(N3, 3)
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[2].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_full_key(
                alu_campaign, N3, max_workers=3,
                checkpoint_path=path,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert 0 < load_checkpoint(path).completed_shards < len(shards)
        resumed = sharded_full_key(
            alu_campaign, N3, max_workers=3,
            checkpoint_path=path, resume=True,
        )
        assert (
            resumed.recovered_last_round_key
            == baseline.recovered_last_round_key
        )
        for a, b in zip(baseline.byte_results, resumed.byte_results):
            assert np.array_equal(a.correlations, b.correlations)

    def test_failed_shard_keeps_the_merged_prefix_at_full_width(
        self, alu_campaign, tmp_path
    ):
        # No knob: the four shards run four-wide, every merged shard is
        # saved, and a shard that fails every attempt leaves the prefix
        # before it on disk.
        from repro.experiments.checkpoint import load_checkpoint
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultSpec

        num_traces = 4 * STREAM_BLOCK
        shards = plan_shards(num_traces, 4)
        path = str(tmp_path / "prefix.npz")
        plan = _Timeline(
            [FaultSpec(FAULT_EXCEPTION, site=shards[3].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_attack(
                alu_campaign, num_traces, max_workers=4,
                checkpoint_path=path,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert load_checkpoint(path).completed_shards == 3
        # The shards ran concurrently: shard 3's first attempt began
        # before shard 0's first attempt ended.
        assert plan.began[shards[3].site, 0] < plan.ended[shards[0].site, 0]
        resumed = sharded_attack(
            alu_campaign, num_traces, max_workers=4,
            checkpoint_path=path, resume=True,
        )
        baseline = sharded_attack(alu_campaign, num_traces, max_workers=4)
        assert resumed.correlations.tobytes() == (
            baseline.correlations.tobytes()
        )
        assert np.array_equal(resumed.checkpoints, baseline.checkpoints)


class _Timeline(FaultPlan):
    """A fault plan that also stamps when each ``(site, attempt)``
    began (its pre-task faults fire) and ended (its payload passes)."""

    def __init__(self, specs):
        super().__init__(specs)
        self.began = {}
        self.ended = {}

    def fire(self, site, attempt):
        self.began[site, attempt] = time.monotonic()
        super().fire(site, attempt)

    def corrupt_payload(self, site, attempt, result):
        self.ended[site, attempt] = time.monotonic()
        return super().corrupt_payload(site, attempt, result)


#: Manifest config hashes of the drivers at the fixed configurations of
#: :class:`TestManifestFingerprint` (checkpoint format 3).  They must
#: not drift: a checkpoint resumes only under the same hash.
GOLDEN_MANIFEST_HASHES = {
    "attack": (
        "2d9a1e4b1c853bdd1ad54965ee03d1c2"
        "dabf003e68db88f4856ed1f578c766f4"
    ),
    "fullkey": (
        "0f5e058102dbdd61ff93e115b7b52f94"
        "5fd25c20422c880eeddea92728285200"
    ),
    "physical-fullkey": (
        "552042f68b7ed0440c34e3b103211f61"
        "d1eca84481f5026c8eaea4d786371dfc"
    ),
}

#: The physical driver's hash while its manifest carried the retired
#: ``reference`` entry (always False in a campaign that ran).
RETIRED_PHYSICAL_HASH = (
    "05fb788016fe8061617ba85ceeec14c5"
    "b94a1ecf95b935358dfefe1380001aaa"
)


class TestManifestFingerprint:
    def _manifest(self, run, tmp_path):
        from repro.experiments.checkpoint import load_checkpoint

        path = str(tmp_path / "fingerprint.npz")
        run(path)
        return load_checkpoint(path).manifest

    def _drivers(self, alu_campaign, alu_sensor):
        from repro.aes import AES128
        from repro.core.tracegen import PhysicalTraceGenerator

        generator = PhysicalTraceGenerator(AES128(bytes(range(16))))
        return {
            "attack": lambda path: sharded_attack(
                alu_campaign, N3, max_workers=2, checkpoint_path=path
            ),
            "fullkey": lambda path: sharded_full_key(
                alu_campaign, N3, max_workers=2, checkpoint_path=path
            ),
            "physical": lambda path, **kw: sharded_physical_attack(
                generator, alu_sensor, 2000, seed=5, max_workers=1,
                checkpoint_path=path, **kw,
            ),
            "physical-fullkey": lambda path: sharded_physical_full_key(
                generator, alu_sensor, 2000, seed=5, max_workers=1,
                checkpoint_path=path,
            ),
        }

    @pytest.mark.parametrize("kind", sorted(GOLDEN_MANIFEST_HASHES))
    def test_config_hash_unchanged(
        self, alu_campaign, alu_sensor, tmp_path, kind
    ):
        run = self._drivers(alu_campaign, alu_sensor)[kind]
        manifest = self._manifest(run, tmp_path)
        assert manifest.kind == kind
        assert manifest.config_hash == GOLDEN_MANIFEST_HASHES[kind]

    def test_checkpoint_with_reference_entry_refuses_to_resume(
        self, alu_campaign, alu_sensor, tmp_path
    ):
        # The physical manifest lost only its ``reference`` entry: put
        # it back and the hash is the retired one, and a checkpoint
        # carrying it refuses to resume with the one-line error.
        import dataclasses

        from repro.experiments.checkpoint import (
            CheckpointError,
            load_checkpoint,
            save_checkpoint,
        )

        run = self._drivers(alu_campaign, alu_sensor)["physical"]
        path = str(tmp_path / "fingerprint.npz")
        run(path)
        stored = load_checkpoint(path)
        assert "reference" not in stored.manifest.params
        retired = dataclasses.replace(
            stored.manifest,
            params=dict(stored.manifest.params, reference=False),
        )
        assert retired.config_hash == RETIRED_PHYSICAL_HASH
        save_checkpoint(
            path, dataclasses.replace(stored, manifest=retired)
        )
        with pytest.raises(
            CheckpointError,
            match="parameter 'reference': checkpoint has False, run has "
            "None — refusing to resume a different campaign",
        ) as excinfo:
            run(path, resume=True)
        assert "\n" not in str(excinfo.value)
