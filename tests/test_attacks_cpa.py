"""Tests for the CPA engine."""

import numpy as np
import pytest

from repro.aes import AES128, last_round_activity, random_ciphertexts
from repro.attacks import (
    BYTE_VALUES,
    InexactStateError,
    NonFiniteValuesError,
    StreamingCPA,
    default_checkpoints,
    run_cpa,
    single_bit_hypothesis,
)
from repro.util.errors import ReproError

TABLE = single_bit_hypothesis(BYTE_VALUES)


def synthetic_campaign(num_traces=30_000, noise=4.0, seed=0):
    """Leakage with a known embedded key byte."""
    cipher = AES128(bytes(range(16)))
    k10 = cipher.last_round_key
    cts = random_ciphertexts(num_traces, seed=seed)
    rng = np.random.default_rng(seed + 1)
    leak = -last_round_activity(cts, k10, column=3) + rng.normal(
        0, noise, num_traces
    )
    return leak, cts[:, 3], k10[3]


class TestStreamingCPA:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        values = rng.integers(0, 8, 500)
        table = rng.normal(size=(8, 4))
        engine = StreamingCPA(table)
        engine.update(x[:200], values[:200])
        engine.update(x[200:], values[200:])
        corr = engine.correlations()
        for k in range(4):
            expected = np.corrcoef(x, table[values, k])[0, 1]
            assert corr[k] == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        engine = StreamingCPA(np.eye(4))
        with pytest.raises(ValueError):
            engine.update(np.zeros(10), np.zeros(9, dtype=int))
        with pytest.raises(ValueError):
            engine.update(np.zeros((10, 2)), np.zeros((10, 2), dtype=int))

    def test_table_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="table"):
            StreamingCPA(np.zeros(256))

    def test_fewer_than_two_traces_gives_zero(self):
        engine = StreamingCPA(np.eye(2))
        engine.update(np.array([1.0]), np.array([1]))
        assert np.allclose(engine.correlations(), 0.0)

    def test_constant_leakage_gives_zero(self):
        engine = StreamingCPA(np.random.default_rng(0).normal(size=(4, 2)))
        engine.update(np.ones(100), np.arange(100) % 4)
        assert np.allclose(engine.correlations(), 0.0)

    def test_streams_fold_each_stream_like_a_single_state(self):
        rng = np.random.default_rng(3)
        leakage = rng.integers(0, 50, (900, 3)).astype(np.float64)
        values = rng.integers(0, 256, (900, 3), dtype=np.uint8)
        engine = StreamingCPA(TABLE, streams=3)
        engine.update(leakage[:400], values[:400])
        engine.update(leakage[400:], values[400:])
        corr = engine.correlations()
        assert corr.shape == (3, 256)
        for stream in range(3):
            single = StreamingCPA(TABLE)
            single.update(leakage[:, stream], values[:, stream])
            assert np.array_equal(corr[stream], single.correlations())


class TestDefaultCheckpoints:
    def test_covers_full_range(self):
        points = default_checkpoints(100_000)
        assert points[-1] == 100_000
        assert points[0] >= 2

    def test_strictly_increasing(self):
        points = default_checkpoints(50_000)
        assert np.all(np.diff(points) > 0)

    def test_small_trace_count(self):
        points = default_checkpoints(100)
        assert points[-1] == 100

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            default_checkpoints(1)


class TestRunCpa:
    def test_recovers_embedded_key(self):
        leak, values, correct = synthetic_campaign()
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        assert result.best_guess == correct
        assert result.disclosed

    def test_mtd_reasonable(self):
        leak, values, correct = synthetic_campaign()
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        mtd = result.measurements_to_disclosure()
        assert mtd is not None and mtd < 30_000

    def test_pure_noise_not_disclosed(self):
        rng = np.random.default_rng(3)
        leak = rng.normal(size=20_000)
        cts = random_ciphertexts(20_000, seed=4)
        result = run_cpa(leak, cts[:, 3], TABLE, correct_key=77)
        # With pure noise the key can only be "found" by luck (p=1/256);
        # require that the result is not a stable early disclosure.
        mtd = result.measurements_to_disclosure()
        assert mtd is None or mtd > 1000

    def test_progress_shape(self):
        leak, values, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        assert result.correlations.shape == (len(result.checkpoints), 256)

    def test_custom_checkpoints(self):
        leak, values, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(
            leak, values, TABLE, checkpoints=[1000, 5000],
            correct_key=correct,
        )
        assert result.checkpoints.tolist() == [1000, 5000]

    def test_checkpoint_validation(self):
        leak, values, correct = synthetic_campaign(num_traces=1000)
        with pytest.raises(ValueError):
            run_cpa(leak, values, TABLE, checkpoints=[2000])

    def test_correlation_magnitude_grows_clean(self):
        leak, values, correct = synthetic_campaign(noise=1.0)
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        correct_track = np.abs(result.correlations[:, correct])
        assert correct_track[-1] > correct_track[0]

    def test_key_ranks_degenerate_guard(self):
        # A constant bit must not look like a disclosure.
        leak = np.ones(1000)
        cts = random_ciphertexts(1000, seed=5)
        result = run_cpa(leak, cts[:, 3], TABLE, correct_key=10)
        assert result.measurements_to_disclosure() is None
        assert result.key_ranks().max() == 255

    def test_final_correlations_are_abs(self):
        leak, values, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        assert result.final_correlations.min() >= 0

    def test_requires_correct_key_for_metrics(self):
        leak, values, _ = synthetic_campaign(num_traces=2000)
        result = run_cpa(leak, values, TABLE)
        with pytest.raises(ValueError):
            result.key_ranks()

    def test_leakage_shape_validation(self):
        values = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            run_cpa(np.zeros((10, 2)), values, TABLE)
        with pytest.raises(ValueError, match="values"):
            run_cpa(np.zeros(10), values[:5], TABLE)

    def test_key_rank_at(self):
        leak, values, correct = synthetic_campaign()
        result = run_cpa(leak, values, TABLE, correct_key=correct)
        assert result.key_rank_at(-1) == 0


class TestCheckpointRegressions:
    """Pins for two historical checkpoint bugs."""

    def test_small_campaign_grid_not_degenerate(self):
        # Campaigns below the 50-trace grid start used to produce a
        # descending logspace that filtered down to the single point
        # [num_traces]; the grid must instead span [2, num_traces].
        for num_traces in (5, 10, 30, 49, 50):
            points = default_checkpoints(num_traces)
            assert points[0] == 2, num_traces
            assert points[-1] == num_traces
            assert len(points) > 1
            assert np.all(np.diff(points) > 0)

    def test_grid_start_unchanged_for_large_campaigns(self):
        points = default_checkpoints(100_000)
        assert points[0] == 50

    def test_traces_after_last_checkpoint_not_dropped(self):
        # run_cpa used to silently ignore traces beyond the last
        # explicit checkpoint; a final checkpoint at num_traces is now
        # always appended.
        leak, values, correct = synthetic_campaign(num_traces=5000)
        partial = run_cpa(
            leak, values, TABLE, checkpoints=[1000], correct_key=correct
        )
        assert partial.checkpoints.tolist() == [1000, 5000]
        full = run_cpa(
            leak, values, TABLE, checkpoints=[1000, 5000],
            correct_key=correct,
        )
        assert np.array_equal(
            partial.correlations, full.correlations
        )

    def test_explicit_final_checkpoint_not_duplicated(self):
        leak, values, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(
            leak, values, TABLE, checkpoints=[1000, 3000],
            correct_key=correct,
        )
        assert result.checkpoints.tolist() == [1000, 3000]


class TestFiniteGuard:
    """NaN/Inf must be rejected at the accumulator, naming the traces."""

    def _blocks(self, n=20):
        rng = np.random.default_rng(0)
        leakage = rng.integers(0, 8, n).astype(np.float64)
        values = rng.integers(0, 8, n)
        table = rng.integers(0, 2, (8, 4)).astype(np.float64)
        return leakage, values, table

    def test_nan_leakage_rejected_with_indices(self):
        leakage, values, table = self._blocks()
        leakage[3] = np.nan
        leakage[17] = np.inf
        engine = StreamingCPA(table)
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(leakage, values)
        error = excinfo.value
        assert error.which == "leakage"
        assert error.indices.tolist() == [3, 17]
        assert "3" in str(error) and "17" in str(error)
        # The rejected block must not have touched the state.
        assert engine.count == 0

    def test_indices_offset_by_prior_traces(self):
        leakage, values, table = self._blocks()
        engine = StreamingCPA(table)
        engine.update(leakage, values)
        bad = leakage.copy()
        bad[5] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(bad, values)
        assert excinfo.value.indices.tolist() == [25]

    def test_nan_hypotheses_rejected(self):
        leakage, values, table = self._blocks()
        table[values[7], 2] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(table).update(leakage, values)
        assert excinfo.value.which == "hypotheses"
        assert excinfo.value.indices.tolist() == np.flatnonzero(
            values == values[7]
        ).tolist()

    def test_error_message_caps_listed_indices(self):
        leakage, values, table = self._blocks()
        leakage[:] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(table).update(leakage, values)
        assert "(20 total)" in str(excinfo.value)

    def test_non_finite_in_any_stream_names_its_trace(self):
        leakage = np.zeros((6, 3))
        leakage[4, 2] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(TABLE, streams=3).update(
                leakage, np.zeros((6, 3), dtype=np.uint8)
            )
        assert excinfo.value.indices.tolist() == [4]


class TestStateRoundtrip:
    def test_state_arrays_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        leakage = rng.integers(0, 64, 500).astype(np.float64)
        values = rng.integers(0, 256, 500, dtype=np.uint8)
        engine = StreamingCPA(TABLE)
        engine.update(leakage, values)
        rebuilt = StreamingCPA.from_state_arrays(engine.state_arrays(), TABLE)
        assert rebuilt.count == engine.count
        assert rebuilt.num_candidates == 256
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )
        # Continuing both must stay identical (state is complete).
        engine.update(leakage, values)
        rebuilt.update(leakage, values)
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )

    def test_state_arrays_are_copies(self):
        engine = StreamingCPA(TABLE)
        engine.update(np.ones(4), np.arange(4))
        state = engine.state_arrays()
        assert {np.asarray(v).dtype for v in state.values()} == {
            np.dtype(np.int64)
        }
        state["sums"][:] = -99
        assert (engine.state_arrays()["sums"] != -99).all()

    def test_rebuild_rejects_float_arrays_and_wrong_tables(self):
        engine = StreamingCPA(TABLE)
        engine.update(np.ones(4), np.arange(4))
        state = engine.state_arrays()
        with pytest.raises(InexactStateError):
            StreamingCPA.from_state_arrays(
                dict(state, sums=state["sums"].astype(np.float64)), TABLE
            )
        with pytest.raises(ValueError, match="table"):
            StreamingCPA.from_state_arrays(state, np.eye(16))


class TestByValueUpdate:
    """``update(x, values)`` adds a block by value; integer leakage keeps
    an int64 state, and any other state cannot merge or be stored."""

    def _stream(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 193, n).astype(np.float64)
        values = rng.integers(0, 256, n, dtype=np.uint8)
        return leakage, values

    def test_run_cpa_by_value_matches_dense(self):
        leakage, values = self._stream(n=8000, seed=1)
        result = run_cpa(leakage, values, TABLE, correct_key=42)
        h = TABLE[values].astype(np.float64)
        n = leakage.size
        cov = h.T @ leakage - leakage.sum() * h.sum(axis=0) / n
        var_x = (leakage * leakage).sum() - leakage.sum() ** 2 / n
        var_h = (h * h).sum(axis=0) - h.sum(axis=0) ** 2 / n
        expected = cov / np.sqrt(var_x * var_h)
        assert np.array_equal(result.correlations[-1], expected)

    def test_non_integral_leakage_makes_the_state_inexact(self):
        leakage, values = self._stream(n=20)
        engine = StreamingCPA(TABLE)
        engine.update(leakage, values)
        assert engine.exact
        fractional = leakage.copy()
        fractional[4] += 0.5
        engine.update(fractional, values)
        assert not engine.exact
        assert engine.count == 40
        assert np.isfinite(engine.correlations()).all()
        other = StreamingCPA(TABLE)
        other.update(leakage, values)
        for action in (
            engine.state_arrays,
            lambda: other.merge(engine),
            lambda: engine.merge(other),
        ):
            with pytest.raises(InexactStateError) as excinfo:
                action()
            assert isinstance(excinfo.value, ReproError)
            assert "\n" not in str(excinfo.value)

    def test_non_finite_checked_before_integrality(self):
        # An injected NaN (the fault harness's "nan" fault) must still
        # surface as NonFiniteValuesError next to fractional values.
        leakage, values = self._stream(n=20)
        leakage[2] = 0.5
        leakage[9] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(TABLE).update(leakage, values)
        assert excinfo.value.indices.tolist() == [9]

    def test_values_must_be_bytes(self):
        leakage, values = self._stream(n=4)
        with pytest.raises(ValueError, match="256"):
            StreamingCPA(TABLE).update(leakage, np.array([1, 2, 256, 3]))
        with pytest.raises(ValueError, match="3.5"):
            StreamingCPA(TABLE).update(leakage, np.array([1, 2, 3.5, 3]))
        with pytest.raises(ValueError, match="0..15"):
            StreamingCPA(np.eye(16)).update(leakage, np.array([1, 2, 16, 3]))

    def test_shape_validation(self):
        leakage, values = self._stream(n=10)
        with pytest.raises(ValueError, match="values"):
            StreamingCPA(TABLE).update(leakage, values[:5])
        with pytest.raises(ValueError, match="table"):
            StreamingCPA(np.eye(128)[0])
        with pytest.raises(ValueError, match="values"):
            run_cpa(leakage, values[:5], TABLE)
        with pytest.raises(ValueError, match="merge"):
            StreamingCPA(TABLE).merge(StreamingCPA(TABLE, streams=2))

    def test_non_finite_table_row_names_its_traces(self):
        leakage, values = self._stream(n=20)
        table = np.zeros((256, 256))
        table[values[6]] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(table).update(leakage, values)
        assert excinfo.value.which == "hypotheses"
        assert 6 in excinfo.value.indices.tolist()
