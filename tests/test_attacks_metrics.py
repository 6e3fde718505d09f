"""Tests for attack metrics."""

import numpy as np
import pytest

from repro.attacks import (
    CPAResult,
    guessing_entropy,
    success_rate,
    summarize,
)


def make_result(correct_key=7, disclosed=True):
    checkpoints = np.array([100, 1000, 10000])
    correlations = np.zeros((3, 256))
    correlations[:, 3] = [0.05, 0.02, 0.01]  # a decaying wrong guess
    if disclosed:
        correlations[:, correct_key] = [0.02, 0.08, 0.15]
    return CPAResult(checkpoints, correlations, correct_key=correct_key)


class TestSummarize:
    def test_disclosed_summary(self):
        summary = summarize("fig10", make_result())
        assert summary.label == "fig10"
        assert summary.disclosed
        assert summary.mtd == 1000
        assert summary.final_margin == pytest.approx(0.15 - 0.01)
        assert summary.num_traces == 10000

    def test_not_disclosed(self):
        summary = summarize("x", make_result(disclosed=False))
        assert not summary.disclosed
        assert summary.mtd is None
        assert summary.final_margin < 0

    def test_requires_correct_key(self):
        result = make_result()
        result.correct_key = None
        with pytest.raises(ValueError):
            summarize("x", result)


class TestCampaignMetrics:
    def test_guessing_entropy(self):
        assert guessing_entropy([0, 0, 3]) == pytest.approx(1.0)

    def test_guessing_entropy_empty(self):
        with pytest.raises(ValueError):
            guessing_entropy([])

    def test_success_rate(self):
        assert success_rate([0, 0, 5]) == pytest.approx(2 / 3)

    def test_success_rate_threshold(self):
        assert success_rate([0, 2, 5], threshold=2) == pytest.approx(2 / 3)

    def test_success_rate_empty(self):
        with pytest.raises(ValueError):
            success_rate([])
