"""Tests for trace alignment: shift estimation and gathering.

The correctness contract: an integer trigger misalignment is exactly
undone — ``apply_shifts`` moves float64 samples bitwise, so aligning a
shifted copy of the reference restores the interior samples exactly.
Edge cases pinned here (satellite): constant traces resolve to shift
0, a ``max_shift`` as large as the window is rejected, and a
single-trace batch works.
"""

import numpy as np
import pytest

from repro.preprocess.align import (
    align_traces,
    apply_shifts,
    crop,
    estimate_shifts,
    shift_candidates,
)
from repro.preprocess.spec import PreprocessError
from repro.util import kernels
from repro.util.errors import ReproError
from repro.util.rng import make_rng


def _reference(samples=64, seed=11):
    return make_rng(seed, "align-ref").normal(size=samples)


def _shifted_batch(reference, shifts):
    """Each trace carries the reference content ``s`` samples late."""
    length = reference.shape[0]
    out = np.empty((len(shifts), length))
    for row, s in enumerate(shifts):
        idx = np.clip(np.arange(length) - s, 0, length - 1)
        out[row] = reference[idx]
    return out


class TestEstimateShifts:
    @pytest.mark.parametrize("metric", ["correlation", "sad"])
    def test_recovers_known_integer_shifts(self, metric):
        reference = _reference()
        shifts = [-3, -1, 0, 2, 3]
        traces = _shifted_batch(reference, shifts)
        estimated = estimate_shifts(traces, reference, 4, metric)
        assert estimated.tolist() == shifts

    def test_alignment_restores_interior_samples_exactly(self):
        reference = _reference()
        shifts = [-2, 0, 3]
        traces = _shifted_batch(reference, shifts)
        aligned, est = align_traces(traces, reference, 4)
        assert est.tolist() == shifts
        for row, s in enumerate(shifts):
            lo, hi = max(0, -s), 64 - max(0, s)
            assert np.array_equal(aligned[row, lo:hi], reference[lo:hi])

    def test_constant_traces_resolve_to_shift_zero(self):
        reference = _reference()
        flat = np.full((5, reference.shape[0]), 0.73)
        assert estimate_shifts(flat, reference, 6).tolist() == [0] * 5
        assert estimate_shifts(
            flat, np.zeros_like(reference), 6, "sad"
        ).tolist() == [0] * 5

    def test_single_trace_batch(self):
        reference = _reference()
        trace = _shifted_batch(reference, [2])[0]  # 1-D input
        est = estimate_shifts(trace, reference, 4)
        assert est.shape == (1,)
        assert est[0] == 2
        aligned, _ = align_traces(trace, reference, 4)
        assert aligned.shape == (1, reference.shape[0])

    def test_shift_larger_than_window_rejected(self):
        reference = _reference(samples=16)
        traces = _shifted_batch(reference, [0, 1])
        with pytest.raises(PreprocessError, match="max_shift"):
            estimate_shifts(traces, reference, 16)
        # One less than the window length is the largest legal range.
        estimate_shifts(traces, reference, 15)

    def test_shift_beyond_search_range_clips_to_range(self):
        reference = _reference()
        traces = _shifted_batch(reference, [6])
        est = estimate_shifts(traces, reference, 3)
        assert -3 <= int(est[0]) <= 3

    def test_unknown_metric_rejected(self):
        reference = _reference()
        with pytest.raises(PreprocessError, match="metric"):
            estimate_shifts(
                _shifted_batch(reference, [0]), reference, 2, "dtw"
            )

    def test_reference_length_mismatch_rejected(self):
        reference = _reference()
        with pytest.raises(PreprocessError, match="reference length"):
            estimate_shifts(
                _shifted_batch(reference, [0]), reference[:-1], 2
            )


class TestNonFiniteRejected:
    """NaN/inf used to pick a shift silently (0 for NaN, a shift whose
    overlap skips the bad sample for inf); both backends now refuse."""

    @pytest.mark.parametrize("backend", kernels.available_backends("align"))
    @pytest.mark.parametrize("metric", ["correlation", "sad"])
    @pytest.mark.parametrize(
        "row, index, value",
        [(2, 10, np.nan), (0, 0, np.inf), (4, 63, -np.inf)],
    )
    def test_bad_trace_named(self, backend, metric, row, index, value):
        reference = _reference()
        traces = _shifted_batch(reference, [0, 1, 2, -1, -2])
        traces[row, index] = value
        with kernels.use(backend):
            with pytest.raises(PreprocessError, match="trace %d " % row):
                estimate_shifts(traces, reference, 4, metric)

    @pytest.mark.parametrize("backend", kernels.available_backends("align"))
    def test_bad_reference_rejected(self, backend):
        reference = _reference()
        traces = _shifted_batch(reference, [0, 1])
        reference[5] = np.nan
        with kernels.use(backend):
            with pytest.raises(PreprocessError, match="reference"):
                estimate_shifts(traces, reference, 4)

    def test_error_is_one_line_and_structured(self):
        reference = _reference()
        traces = _shifted_batch(reference, [0, 1, 2])
        traces[1, 3] = np.nan
        with pytest.raises(ReproError) as info:
            estimate_shifts(traces, reference, 4)
        assert "\n" not in str(info.value)


class TestApplyShifts:
    def test_gather_is_edge_clamped(self):
        traces = np.arange(8.0)[None, :]
        out = apply_shifts(traces, np.array([3]))
        assert out[0].tolist() == [3, 4, 5, 6, 7, 7, 7, 7]
        out = apply_shifts(traces, np.array([-2]))
        assert out[0].tolist() == [0, 0, 0, 1, 2, 3, 4, 5]

    def test_shift_count_mismatch_rejected(self):
        with pytest.raises(PreprocessError, match="shifts"):
            apply_shifts(np.zeros((3, 8)), np.array([0, 1]))


class TestCropAndCandidates:
    def test_crop_bounds_checked(self):
        traces = np.zeros((2, 10))
        assert crop(traces, 2, 7).shape == (2, 5)
        with pytest.raises(PreprocessError, match="window"):
            crop(traces, 7, 2)
        with pytest.raises(PreprocessError, match="window"):
            crop(traces, 0, 11)

    def test_candidates_ordered_by_magnitude(self):
        assert shift_candidates(2) == [0, -1, 1, -2, 2]
        with pytest.raises(PreprocessError):
            shift_candidates(0)
