"""Property tests: the by-value CPA statistic is the dense one, exactly.

Campaign drivers accumulate CPA from ciphertext-byte values and a
256-row hypothesis table instead of an (N, 256) matrix.  These
properties pin that route to the dense reference over generated
inputs — state bytes, merge order, the full-key recovery and the
sharded full-key driver at several worker counts and after a
kill/resume — so bit-identity rests on checks, not on a comment.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    StreamingCPA,
    column_of_key_byte,
    hamming_weight_hypothesis,
    recover_last_round_key,
    run_cpa,
    single_bit_hypothesis,
)
from repro.attacks.models import BYTE_VALUES
from repro.core.attack import STREAM_BLOCK
from repro.experiments.parallel import plan_shards, sharded_full_key

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _table(model):
    """(256, 256) by-value table for a single bit (0..7) or ``"hw"``."""
    if model == "hw":
        return hamming_weight_hypothesis(BYTE_VALUES)
    return single_bit_hypothesis(BYTE_VALUES, bit=model)


@st.composite
def segmented_streams(draw, max_traces=400):
    """Integer leakage in [0, 192], ciphertext bytes and a split."""
    n = draw(st.integers(min_value=1, max_value=max_traces))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    leakage = rng.integers(0, 193, n).astype(np.float64)
    values = rng.integers(0, 256, n, dtype=np.uint8)
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=n), max_size=6)
    )
    bounds = [0] + sorted(cuts) + [n]
    model = draw(st.sampled_from(list(range(8)) + ["hw"]))
    return leakage, values, bounds, model


def _state_bytes(engine):
    return {
        key: value.tobytes() for key, value in engine.state_arrays().items()
    }


class TestByValueEqualsDense:
    @PROPERTY
    @given(segmented_streams())
    def test_state_arrays_byte_equal(self, stream):
        leakage, values, bounds, model = stream
        table = _table(model)
        dense = StreamingCPA()
        by_value = StreamingCPA()
        for start, end in zip(bounds, bounds[1:]):
            dense.update(leakage[start:end], table[values[start:end]])
            by_value.update(leakage[start:end], table, values[start:end])
        assert _state_bytes(by_value) == _state_bytes(dense)

    @PROPERTY
    @given(segmented_streams(), st.randoms(use_true_random=False))
    def test_merge_order_free(self, stream, random):
        leakage, values, bounds, model = stream
        table = _table(model)
        partials = []
        for start, end in zip(bounds, bounds[1:]):
            engine = StreamingCPA()
            engine.update(leakage[start:end], table, values[start:end])
            partials.append(engine)
        in_order = StreamingCPA()
        for engine in partials:
            in_order.merge(engine)
        shuffled = list(partials)
        random.shuffle(shuffled)
        other = StreamingCPA()
        for engine in shuffled:
            other.merge(engine)
        assert _state_bytes(other) == _state_bytes(in_order)
        single = StreamingCPA()
        single.update(leakage, table, values)
        assert _state_bytes(in_order) == _state_bytes(single)


class TestFullKeyReference:
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(
        n=st.integers(min_value=2, max_value=1500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_dense_per_byte_loop_equals_recovery(self, n, seed, bit):
        # recover_last_round_key runs the by-value statistic, so the
        # cross-check is an explicit dense run_cpa per key byte.
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 193, (n, 4)).astype(np.float64)
        ciphertexts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
        key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        recovered = recover_last_round_key(
            leakage, ciphertexts, target_bit=bit, correct_key=key
        )
        for byte_index, result in enumerate(recovered.byte_results):
            reference = run_cpa(
                leakage[:, column_of_key_byte(byte_index)],
                single_bit_hypothesis(ciphertexts[:, byte_index], bit=bit),
                correct_key=key[byte_index],
            )
            assert np.array_equal(result.checkpoints, reference.checkpoints)
            assert np.array_equal(
                result.correlations, reference.correlations
            )


def _dense_reference(campaign, num_traces):
    """Serial column collection plus a dense per-byte CPA loop."""
    data = campaign.collect_column_traces(num_traces)
    return [
        run_cpa(
            data["leakage"][:, column_of_key_byte(byte_index)],
            single_bit_hypothesis(data["ciphertexts"][:, byte_index]),
        ).correlations
        for byte_index in range(16)
    ]


@pytest.mark.timeout(300)
class TestShardedFullKeyProperty:
    @settings(derandomize=True, deadline=None, max_examples=4)
    @given(
        num_traces=st.integers(
            min_value=STREAM_BLOCK + 1, max_value=3 * STREAM_BLOCK - 1
        ),
        workers=st.sampled_from([1, 2, 3]),
    )
    def test_any_worker_count_equals_serial(
        self, alu_campaign, num_traces, workers
    ):
        reference = _dense_reference(alu_campaign, num_traces)
        sharded = sharded_full_key(
            alu_campaign, num_traces, max_workers=workers
        )
        for expected, result in zip(reference, sharded.byte_results):
            assert np.array_equal(result.correlations, expected)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_kill_then_resume_equals_serial(
        self, alu_campaign, tmp_path, workers
    ):
        from repro.experiments.checkpoint import load_checkpoint
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec

        num_traces = 3 * STREAM_BLOCK - 500
        reference = _dense_reference(alu_campaign, num_traces)
        shards = plan_shards(num_traces, workers)
        path = str(tmp_path / "fullkey.npz")
        # A persistent fault on the last shard kills the collection
        # after the earlier shards became durable.
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[-1].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_full_key(
                alu_campaign, num_traces, max_workers=workers,
                checkpoint_path=path, checkpoint_every=1,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert 0 < load_checkpoint(path).completed_shards < len(shards)
        resumed = sharded_full_key(
            alu_campaign, num_traces, max_workers=workers,
            checkpoint_path=path, checkpoint_every=1, resume=True,
        )
        for expected, result in zip(reference, resumed.byte_results):
            assert np.array_equal(result.correlations, expected)

    def test_fleet_lease_local_pool_equals_serial_collector(self):
        # A two-slot fleet worker splits its lease into block-aligned
        # sub-shards and each of those into four column tasks; the
        # stacked block must be the serial collector's leakage.
        from repro.service.jobs import normalize_params
        from repro.service.runners import (
            cached_setup,
            _experiment_config,
            run_fullkey_shard,
        )

        params = normalize_params("fullkey", {"traces": 60_000, "seed": 1})
        campaign = cached_setup(_experiment_config(params)).campaign("alu")
        serial = campaign.collect_column_traces(60_000)["leakage"]
        for local_workers in (1, 2):
            block = run_fullkey_shard(
                params, 0, 60_000, local_workers=local_workers
            )
            assert np.array_equal(block, serial)
