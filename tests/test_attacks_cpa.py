"""Tests for the CPA engine."""

import numpy as np
import pytest

from repro.aes import AES128, last_round_activity, random_ciphertexts
from repro.attacks import (
    StreamingCPA,
    default_checkpoints,
    run_cpa,
    single_bit_hypothesis,
)


def synthetic_campaign(num_traces=30_000, noise=4.0, seed=0):
    """Leakage with a known embedded key byte."""
    cipher = AES128(bytes(range(16)))
    k10 = cipher.last_round_key
    cts = random_ciphertexts(num_traces, seed=seed)
    rng = np.random.default_rng(seed + 1)
    leak = -last_round_activity(cts, k10, column=3) + rng.normal(
        0, noise, num_traces
    )
    hypotheses = single_bit_hypothesis(cts[:, 3])
    return leak, hypotheses, k10[3]


class TestStreamingCPA:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        h = rng.normal(size=(500, 4))
        engine = StreamingCPA(num_candidates=4)
        engine.update(x[:200], h[:200])
        engine.update(x[200:], h[200:])
        corr = engine.correlations()
        for k in range(4):
            expected = np.corrcoef(x, h[:, k])[0, 1]
            assert corr[k] == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        engine = StreamingCPA(num_candidates=4)
        with pytest.raises(ValueError):
            engine.update(np.zeros(10), np.zeros((10, 3)))

    def test_fewer_than_two_traces_gives_zero(self):
        engine = StreamingCPA(num_candidates=2)
        engine.update(np.array([1.0]), np.array([[0.0, 1.0]]))
        assert np.allclose(engine.correlations(), 0.0)

    def test_constant_leakage_gives_zero(self):
        engine = StreamingCPA(num_candidates=2)
        engine.update(np.ones(100), np.random.default_rng(0).normal(size=(100, 2)))
        assert np.allclose(engine.correlations(), 0.0)


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
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.best_guess == correct
        assert result.disclosed

    def test_mtd_reasonable(self):
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
        mtd = result.measurements_to_disclosure()
        assert mtd is not None and mtd < 30_000

    def test_pure_noise_not_disclosed(self):
        rng = np.random.default_rng(3)
        leak = rng.normal(size=20_000)
        cts = random_ciphertexts(20_000, seed=4)
        hypotheses = single_bit_hypothesis(cts[:, 3])
        result = run_cpa(leak, hypotheses, correct_key=77)
        # With pure noise the key can only be "found" by luck (p=1/256);
        # require that the result is not a stable early disclosure.
        mtd = result.measurements_to_disclosure()
        assert mtd is None or mtd > 1000

    def test_progress_shape(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.correlations.shape == (len(result.checkpoints), 256)

    def test_custom_checkpoints(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        result = run_cpa(
            leak, hypotheses, checkpoints=[1000, 5000], correct_key=correct
        )
        assert result.checkpoints.tolist() == [1000, 5000]

    def test_checkpoint_validation(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=1000)
        with pytest.raises(ValueError):
            run_cpa(leak, hypotheses, checkpoints=[2000])

    def test_correlation_magnitude_grows_clean(self):
        leak, hypotheses, correct = synthetic_campaign(noise=1.0)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        correct_track = np.abs(result.correlations[:, correct])
        assert correct_track[-1] > correct_track[0]

    def test_key_ranks_degenerate_guard(self):
        # A constant bit must not look like a disclosure.
        leak = np.ones(1000)
        cts = random_ciphertexts(1000, seed=5)
        hypotheses = single_bit_hypothesis(cts[:, 3])
        result = run_cpa(leak, hypotheses, correct_key=10)
        assert result.measurements_to_disclosure() is None
        assert result.key_ranks().max() == 255

    def test_final_correlations_are_abs(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(leak, hypotheses, correct_key=correct)
        assert result.final_correlations.min() >= 0

    def test_requires_correct_key_for_metrics(self):
        leak, hypotheses, _ = synthetic_campaign(num_traces=2000)
        result = run_cpa(leak, hypotheses)
        with pytest.raises(ValueError):
            result.key_ranks()

    def test_leakage_shape_validation(self):
        with pytest.raises(ValueError):
            run_cpa(np.zeros((10, 2)), np.zeros((10, 256)))
        with pytest.raises(ValueError):
            run_cpa(np.zeros(10), np.zeros((5, 256)))

    def test_key_rank_at(self):
        leak, hypotheses, correct = synthetic_campaign()
        result = run_cpa(leak, hypotheses, correct_key=correct)
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
        leak, hypotheses, correct = synthetic_campaign(num_traces=5000)
        partial = run_cpa(
            leak, hypotheses, checkpoints=[1000], correct_key=correct
        )
        assert partial.checkpoints.tolist() == [1000, 5000]
        full = run_cpa(
            leak, hypotheses, checkpoints=[1000, 5000],
            correct_key=correct,
        )
        assert np.array_equal(
            partial.correlations, full.correlations
        )

    def test_explicit_final_checkpoint_not_duplicated(self):
        leak, hypotheses, correct = synthetic_campaign(num_traces=3000)
        result = run_cpa(
            leak, hypotheses, checkpoints=[1000, 3000],
            correct_key=correct,
        )
        assert result.checkpoints.tolist() == [1000, 3000]


class TestFiniteGuard:
    """NaN/Inf must be rejected at the accumulator, naming the traces."""

    def _blocks(self, n=20):
        rng = np.random.default_rng(0)
        leakage = rng.integers(0, 8, n).astype(np.float64)
        hypotheses = rng.integers(0, 2, (n, 4)).astype(np.float64)
        return leakage, hypotheses

    def test_nan_leakage_rejected_with_indices(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        leakage[3] = np.nan
        leakage[17] = np.inf
        engine = StreamingCPA(num_candidates=4)
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(leakage, hypotheses)
        error = excinfo.value
        assert error.which == "leakage"
        assert error.indices.tolist() == [3, 17]
        assert "3" in str(error) and "17" in str(error)
        # The rejected block must not have touched the state.
        assert engine.count == 0

    def test_indices_offset_by_prior_traces(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        engine = StreamingCPA(num_candidates=4)
        engine.update(leakage, hypotheses)
        bad = leakage.copy()
        bad[5] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            engine.update(bad, hypotheses)
        assert excinfo.value.indices.tolist() == [25]

    def test_nan_hypotheses_rejected(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        hypotheses[7, 2] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(num_candidates=4).update(leakage, hypotheses)
        assert excinfo.value.which == "hypotheses"
        assert excinfo.value.indices.tolist() == [7]

    def test_error_message_caps_listed_indices(self):
        from repro.attacks import NonFiniteValuesError

        leakage, hypotheses = self._blocks()
        leakage[:] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA(num_candidates=4).update(leakage, hypotheses)
        assert "(20 total)" in str(excinfo.value)


class TestStateRoundtrip:
    def test_state_arrays_roundtrip_bit_exact(self):
        rng = np.random.default_rng(1)
        leakage = rng.integers(0, 64, 500).astype(np.float64)
        hypotheses = rng.integers(0, 2, (500, 16)).astype(np.float64)
        engine = StreamingCPA(num_candidates=16)
        engine.update(leakage, hypotheses)
        rebuilt = StreamingCPA.from_state_arrays(engine.state_arrays())
        assert rebuilt.count == engine.count
        assert rebuilt.num_candidates == 16
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )
        # Continuing both must stay identical (state is complete).
        engine.update(leakage, hypotheses)
        rebuilt.update(leakage, hypotheses)
        assert np.array_equal(
            rebuilt.correlations(), engine.correlations()
        )

    def test_state_arrays_are_copies(self):
        engine = StreamingCPA(num_candidates=4)
        engine.update(
            np.ones(4), np.ones((4, 4))
        )
        state = engine.state_arrays()
        state["sum_h"][:] = -99.0
        assert (engine._sum_h != -99.0).all()


class TestByValueUpdate:
    """``update(x, table, values)`` is the dense update, bit for bit."""

    def _stream(self, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        leakage = rng.integers(0, 193, n).astype(np.float64)
        values = rng.integers(0, 256, n, dtype=np.uint8)
        return leakage, values

    def test_run_cpa_by_value_matches_dense(self):
        from repro.attacks.models import BYTE_VALUES

        leakage, values = self._stream(n=8000, seed=1)
        table = single_bit_hypothesis(BYTE_VALUES)
        dense = run_cpa(leakage, table[values], correct_key=42)
        by_value = run_cpa(leakage, table, correct_key=42, values=values)
        assert np.array_equal(dense.checkpoints, by_value.checkpoints)
        assert np.array_equal(dense.correlations, by_value.correlations)

    def test_non_integral_leakage_rejected_with_indices(self):
        from repro.attacks import NonIntegralValuesError
        from repro.util.errors import ReproError

        leakage, values = self._stream(n=20)
        table = np.eye(256)
        engine = StreamingCPA()
        engine.update(leakage, table, values)
        leakage[4] += 0.5
        leakage[11] = -0.25
        with pytest.raises(NonIntegralValuesError) as excinfo:
            engine.update(leakage, table, values)
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.which == "leakage"
        # Indices are offset by the 20 traces already accumulated.
        assert excinfo.value.indices.tolist() == [24, 31]
        assert "24" in str(excinfo.value) and "31" in str(excinfo.value)
        assert engine.count == 20

    def test_non_finite_checked_before_integrality(self):
        # An injected NaN (the fault harness's "nan" fault) must still
        # surface as NonFiniteValuesError next to fractional values.
        from repro.attacks import NonFiniteValuesError

        leakage, values = self._stream(n=20)
        leakage[2] = 0.5
        leakage[9] = np.nan
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA().update(leakage, np.eye(256), values)
        assert excinfo.value.indices.tolist() == [9]

    def test_non_finite_table_row_names_its_traces(self):
        from repro.attacks import NonFiniteValuesError

        leakage, values = self._stream(n=20)
        table = np.zeros((256, 256))
        table[values[6]] = np.inf
        with pytest.raises(NonFiniteValuesError) as excinfo:
            StreamingCPA().update(leakage, table, values)
        assert excinfo.value.which == "hypotheses"
        assert 6 in excinfo.value.indices.tolist()

    def test_values_must_be_bytes(self):
        leakage, values = self._stream(n=4)
        with pytest.raises(ValueError, match="256"):
            StreamingCPA().update(
                leakage, np.eye(256), np.array([1, 2, 256, 3])
            )

    def test_shape_validation(self):
        leakage, values = self._stream(n=10)
        with pytest.raises(ValueError, match="values"):
            StreamingCPA().update(leakage, np.eye(256), values[:5])
        with pytest.raises(ValueError, match="table"):
            StreamingCPA().update(leakage, np.eye(128), values)
        with pytest.raises(ValueError, match="256"):
            run_cpa(leakage, np.eye(128), values=values)
