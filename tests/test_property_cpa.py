"""Property tests: the one CPA state is exact, order-free and dense-equal.

Every CPA runs through :class:`StreamingCPA`, an int64 per-value state
folded through a (V, K) hypothesis table.  These properties pin it over
generated inputs — merge order, the checkpoint and wire round trips, a
dense float64 reference written out here, a 16-bit-value table, the
refusal of inexact states, the full-key recovery and the sharded
full-key driver at several worker counts, after a kill/resume and over
fleet leases — so bit-identity rests on checks, not on a comment.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    InexactStateError,
    StreamingCPA,
    column_of_key_byte,
    hamming_distance_hypothesis,
    hamming_weight_hypothesis,
    recover_last_round_key,
    single_bit_hypothesis,
)
from repro.attacks.cpa import default_checkpoints
from repro.attacks.models import BYTE_VALUES
from repro.core.attack import STREAM_BLOCK
from repro.experiments.checkpoint import (
    CampaignCheckpoint,
    CampaignManifest,
    load_checkpoint,
    save_checkpoint,
)
from repro.experiments.parallel import plan_shards, sharded_full_key
from repro.service.codec import pack_message, unpack_message
from repro.util.errors import ReproError

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)


def _table(model):
    """(256, 256) table for a single bit (0..7) or ``"hw"``."""
    if model == "hw":
        return hamming_weight_hypothesis(BYTE_VALUES)
    return single_bit_hypothesis(BYTE_VALUES, bit=model)


def dense_correlations(leakage, hypotheses, points):
    """Textbook CPA over an explicit (N, K) float64 hypothesis matrix:
    running sums evaluated at every checkpoint."""
    x = np.asarray(leakage, dtype=np.float64)
    h = np.asarray(hypotheses, dtype=np.float64)
    rows = []
    for n in points:
        sum_x = x[:n].sum()
        sum_xx = (x[:n] * x[:n]).sum()
        sum_h = h[:n].sum(axis=0)
        sum_hh = (h[:n] * h[:n]).sum(axis=0)
        sum_xh = h[:n].T @ x[:n]
        cov = sum_xh - sum_x * sum_h / n
        var_x = sum_xx - sum_x * sum_x / n
        var_h = sum_hh - sum_h * sum_h / n
        denom = np.sqrt(np.maximum(var_x, 0.0) * np.maximum(var_h, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(np.where(denom > 0, cov / denom, 0.0))
    return np.vstack(rows)


@st.composite
def segmented_streams(draw, max_traces=400):
    """Integer leakage in [-64, 192], byte values and a split."""
    n = draw(st.integers(min_value=2, max_value=max_traces))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    leakage = rng.integers(-64, 193, n).astype(np.float64)
    values = rng.integers(0, 256, n, dtype=np.uint8)
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=n), max_size=6)
    )
    bounds = [0] + sorted(cuts) + [n]
    model = draw(st.sampled_from(list(range(8)) + ["hw"]))
    return leakage, values, bounds, model


def _state_bytes(engine):
    return {
        key: np.asarray(value).tobytes()
        for key, value in engine.state_arrays().items()
    }


def _codec_round_trip(value):
    line, blob = pack_message(value).split(b"\n", 1)
    return unpack_message(json.loads(line), blob)


def _partials(leakage, values, bounds, table):
    partials = []
    for start, end in zip(bounds, bounds[1:]):
        engine = StreamingCPA(table)
        engine.update(leakage[start:end], values[start:end])
        partials.append(engine)
    return partials


class TestByValueEqualsDense:
    @PROPERTY
    @given(segmented_streams(), st.randoms(use_true_random=False))
    def test_merge_order_free(self, stream, random):
        # In any order, and after the frame codec, segment states merge
        # to the single-pass state and its correlations.
        leakage, values, bounds, model = stream
        table = _table(model)
        single = StreamingCPA(table)
        single.update(leakage, values)
        partials = _partials(leakage, values, bounds, table)
        shuffled = list(partials)
        random.shuffle(shuffled)
        wired = StreamingCPA(table)
        for engine in shuffled:
            state = _codec_round_trip(engine.state_arrays())
            wired.merge(StreamingCPA.from_state_arrays(state, table))
        assert _state_bytes(wired) == _state_bytes(single)
        assert wired.correlations().tobytes() == (
            single.correlations().tobytes()
        )

    @PROPERTY
    @given(segmented_streams())
    def test_state_arrays_byte_equal(self, stream):
        # The int64 state of a segmented pass, merged in trace order,
        # is byte-equal to the single pass's.
        leakage, values, bounds, model = stream
        table = _table(model)
        single = StreamingCPA(table)
        single.update(leakage, values)
        in_order = StreamingCPA(table)
        for engine in _partials(leakage, values, bounds, table):
            in_order.merge(engine)
        assert _state_bytes(in_order) == _state_bytes(single)

    @PROPERTY
    @given(stream=segmented_streams())
    def test_checkpoint_round_trip_is_exact(self, tmp_path_factory, stream):
        leakage, values, bounds, model = stream
        table = _table(model)
        engine = _partials(leakage, values, bounds[:2] + [bounds[-1]], table)
        path = str(tmp_path_factory.mktemp("cpa") / "state.npz")
        save_checkpoint(
            path,
            CampaignCheckpoint(
                CampaignManifest("attack"), 0, engine[0].state_arrays()
            ),
        )
        restored = StreamingCPA.from_state_arrays(
            load_checkpoint(path).arrays, table
        )
        assert _state_bytes(restored) == _state_bytes(engine[0])
        restored.merge(engine[1])
        whole = StreamingCPA(table)
        whole.update(leakage, values)
        assert _state_bytes(restored) == _state_bytes(whole)

    @PROPERTY
    @given(segmented_streams())
    def test_correlations_equal_the_dense_reference(self, stream):
        leakage, values, bounds, model = stream
        table = _table(model)
        engine = StreamingCPA(table)
        points, rows = [], []
        for start, end in zip(bounds, bounds[1:]):
            engine.update(leakage[start:end], values[start:end])
            if end >= 2:
                points.append(end)
                rows.append(engine.correlations())
        reference = dense_correlations(leakage, table[values], points)
        assert np.vstack(rows).tobytes() == reference.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(
        n=st.integers(min_value=2, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sixteen_bit_table_equals_its_dense_equivalent(self, n, seed):
        # The Hamming-distance model reads two bytes: its value is
        # written * 256 + target, a 65,536-row table folded in slices.
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 40, n).astype(np.float64)
        written = rng.integers(0, 256, n, dtype=np.uint8)
        target = rng.integers(0, 256, n, dtype=np.uint8)
        table = hamming_distance_hypothesis(
            np.repeat(BYTE_VALUES, 256), np.tile(BYTE_VALUES, 256)
        )
        values = written.astype(np.int64) * 256 + target
        engine = StreamingCPA(table)
        engine.update(leakage, values)
        reference = dense_correlations(
            leakage, hamming_distance_hypothesis(written, target), [n]
        )
        assert engine.correlations().tobytes() == reference[0].tobytes()

    @PROPERTY
    @given(segmented_streams(), st.integers(min_value=0, max_value=399))
    def test_inexact_state_cannot_merge_or_store(self, stream, where):
        leakage, values, bounds, model = stream
        table = _table(model)
        fractional = leakage.copy()
        fractional[where % leakage.size] += 0.25
        engine = StreamingCPA(table)
        engine.update(fractional, values)
        assert not engine.exact
        exact = StreamingCPA(table)
        exact.update(leakage, values)
        for action in (
            engine.state_arrays,
            lambda: exact.merge(engine),
            lambda: StreamingCPA(table).merge(engine),
        ):
            with pytest.raises(InexactStateError) as excinfo:
                action()
            assert isinstance(excinfo.value, ReproError)
            assert len(str(excinfo.value).splitlines()) == 1


class TestFullKeyReference:
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(
        n=st.integers(min_value=2, max_value=1500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_dense_per_byte_loop_equals_recovery(self, n, seed, bit):
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 193, (n, 4)).astype(np.float64)
        ciphertexts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
        key = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        recovered = recover_last_round_key(
            leakage, ciphertexts, target_bit=bit, correct_key=key
        )
        points = default_checkpoints(n)
        for byte_index, result in enumerate(recovered.byte_results):
            reference = dense_correlations(
                leakage[:, column_of_key_byte(byte_index)],
                single_bit_hypothesis(ciphertexts[:, byte_index], bit=bit),
                points,
            )
            assert np.array_equal(result.checkpoints, points)
            assert result.correlations.tobytes() == reference.tobytes()


def _serial_reference(campaign, num_traces):
    """Serial column collection plus the in-memory per-byte recovery."""
    data = campaign.collect_column_traces(num_traces)
    return [
        result.correlations
        for result in recover_last_round_key(
            data["leakage"], data["ciphertexts"]
        ).byte_results
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
        reference = _serial_reference(alu_campaign, num_traces)
        sharded = sharded_full_key(
            alu_campaign, num_traces, max_workers=workers
        )
        for expected, result in zip(reference, sharded.byte_results):
            assert np.array_equal(result.correlations, expected)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_kill_then_resume_equals_serial(
        self, alu_campaign, tmp_path, workers
    ):
        from repro.util.executors import RetryPolicy, ShardError
        from repro.util.faults import FAULT_EXCEPTION, FaultPlan, FaultSpec

        num_traces = 3 * STREAM_BLOCK - 500
        reference = _serial_reference(alu_campaign, num_traces)
        shards = plan_shards(num_traces, workers)
        path = str(tmp_path / "fullkey.npz")
        # A persistent fault on the last shard kills the campaign
        # after the earlier shards became durable.
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site=shards[-1].site,
                       attempts=10**6)],
        )
        with pytest.raises(ShardError):
            sharded_full_key(
                alu_campaign, num_traces, max_workers=workers,
                checkpoint_path=path,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        assert 0 < load_checkpoint(path).merged_traces < num_traces
        resumed = sharded_full_key(
            alu_campaign, num_traces, max_workers=workers,
            checkpoint_path=path, resume=True,
        )
        for expected, result in zip(reference, resumed.byte_results):
            assert np.array_equal(result.correlations, expected)

    @pytest.mark.parametrize("slots", [1, 2])
    def test_fleet_leases_equal_serial_collector(self, slots):
        # A worker with ``slots`` slots runs that many leases at once,
        # each one shard on one thread returning 16-stream states; the
        # fleet job's campaign loop must merge them into the serial
        # collector plus the in-memory recovery.
        from repro.service.jobs import normalize_params
        from repro.service.runners import cached_setup, run_fullkey
        from tests.test_service_fleet import LeaseDispatch

        params = normalize_params("fullkey", {"traces": 60_000, "seed": 1})
        campaign = cached_setup(int(params["seed"])).campaign("alu")
        reference = _serial_reference(campaign, 60_000)
        merged = run_fullkey(
            params,
            dispatch=LeaseDispatch("fullkey", params, 2 * slots, slots),
        )
        for expected, result in zip(reference, merged.byte_results):
            assert result.correlations.tobytes() == expected.tobytes()
