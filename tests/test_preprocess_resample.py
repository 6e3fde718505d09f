"""Tests for polyphase resampling (the whole-trace numpy reference)."""

import numpy as np
import pytest

from repro.preprocess.resample import (
    map_resampled_index,
    polyphase_resample,
    resampled_length,
)
from repro.preprocess.spec import PreprocessError
from repro.util.rng import make_rng

RATES = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (4, 2), (5, 3)]


def _batch(num=6, samples=72, seed=3):
    return make_rng(seed, "resample-batch").normal(size=(num, samples))


class TestResample:
    def test_identity_rate_is_a_no_op(self):
        batch = _batch()
        assert polyphase_resample(batch, 1, 1) is batch
        # Unreduced identity rates collapse to 1/1.
        assert polyphase_resample(batch, 3, 3) is batch

    @pytest.mark.parametrize("up,down", RATES)
    def test_output_length_matches_helper(self, up, down):
        batch = _batch()
        out = polyphase_resample(batch, up, down)
        assert out.shape == (
            batch.shape[0],
            resampled_length(batch.shape[1], up, down),
        )

    def test_upsampling_preserves_waveform_shape(self):
        t = np.linspace(0, 4 * np.pi, 72)
        batch = np.sin(t)[None, :]
        out = polyphase_resample(batch, 2, 1)
        # Delay-compensated: output j sits at input time j/2, so the
        # even outputs track the inputs closely (FIR ripple only).
        assert np.allclose(out[0, 20:120:2], batch[0, 10:60], atol=0.05)

    def test_index_mapping_round_trips_through_rate(self):
        for up, down in RATES:
            for index in (0, 7, 31, 71):
                mapped = map_resampled_index(index, up, down)
                assert abs(mapped - index * up / down) <= 0.5 + 1e-9

    def test_too_short_input_rejected(self):
        with pytest.raises(PreprocessError, match="at least 2"):
            polyphase_resample(np.zeros((1, 1)), 2, 1)
