"""Tests for the end-to-end attack campaign (reduced trace budgets)."""

import numpy as np
import pytest

from repro.core import REDUCTION_HW, REDUCTION_SINGLE_BIT
from repro.core.attack import STREAM_BLOCK


class TestCharacterization:
    def test_census_matches_paper_shape(self, alu_campaign):
        census = alu_campaign.characterization.census
        # Paper Fig. 7: 79 RO-sensitive, 40 AES, 39 subset, 112 silent.
        assert 65 <= census.num_ro_sensitive <= 95
        assert 30 <= census.num_aes_sensitive <= 55
        assert census.num_aes_sensitive < census.num_ro_sensitive
        assert census.num_aes_subset_of_ro >= (
            census.num_aes_sensitive - 2
        )
        assert census.num_unaffected >= 95

    def test_best_bit_is_sensitive(self, alu_campaign):
        char = alu_campaign.characterization
        bit = char.best_bit()
        assert char.census.ro_sensitive[bit]

    def test_best_bit_ranks_distinct(self, alu_campaign):
        char = alu_campaign.characterization
        assert char.best_bit(0) != char.best_bit(1)

    def test_best_bit_rank_bounds(self, alu_campaign):
        char = alu_campaign.characterization
        with pytest.raises(ValueError):
            char.best_bit(rank=10_000)

    def test_response_correlations_shape(self, alu_campaign):
        rho = alu_campaign.characterization.bit_response_correlations()
        assert rho.shape == (192,)
        assert np.all(rho >= 0) and np.all(rho <= 1)

    def test_variances_cover_word(self, alu_campaign):
        char = alu_campaign.characterization
        assert char.variances_ro.shape == (192,)
        assert char.variances_aes.shape == (192,)
        # RO activity swings wider, so total RO variance dominates.
        assert char.variances_ro.sum() > char.variances_aes.sum()


class TestCollection:
    def test_reduced_traces_shapes(self, alu_campaign):
        data = alu_campaign.collect_reduced_traces(2000)
        assert data["ciphertexts"].shape == (2000, 16)
        assert data["leakage"].shape == (2000,)
        assert data["voltages"].shape == (2000,)

    def test_single_bit_reduction_is_binary(self, alu_campaign):
        data = alu_campaign.collect_reduced_traces(
            1000, reduction=REDUCTION_SINGLE_BIT
        )
        assert set(np.unique(data["leakage"])) <= {0.0, 1.0}

    def test_unknown_reduction_rejected(self, alu_campaign):
        with pytest.raises(ValueError):
            alu_campaign.collect_reduced_traces(100, reduction="fft")

    def test_bit_bounds_checked(self, alu_campaign):
        with pytest.raises(ValueError):
            alu_campaign.collect_reduced_traces(
                100, reduction=REDUCTION_SINGLE_BIT, bit=500
            )

    def test_minimum_trace_count(self, alu_campaign):
        with pytest.raises(ValueError):
            alu_campaign.collect_reduced_traces(1)

    def test_chunking_invariant(self, alu_campaign):
        # Ciphertexts and voltages are campaign-global draws, and each
        # stream block's jitter is keyed on the block's global start,
        # so the blocks two campaigns share hold the same leakage.
        short = alu_campaign.collect_reduced_traces(STREAM_BLOCK + 700)
        long = alu_campaign.collect_reduced_traces(2 * STREAM_BLOCK + 300)
        head = slice(0, STREAM_BLOCK + 700)
        assert np.array_equal(short["ciphertexts"], long["ciphertexts"][head])
        assert np.array_equal(short["voltages"], long["voltages"][head])
        block = slice(0, STREAM_BLOCK)
        assert np.array_equal(short["leakage"][block], long["leakage"][block])


class TestAttack:
    def test_tdc_attack_discloses_fast(self, alu_campaign):
        result = alu_campaign.attack_with_tdc(8000)
        assert result.disclosed
        assert result.measurements_to_disclosure() < 8000

    def test_tdc_beats_benign_sensor(self, alu_campaign):
        tdc = alu_campaign.attack_with_tdc(8000)
        benign = alu_campaign.attack(8000, reduction=REDUCTION_HW)
        tdc_corr = tdc.final_correlations[tdc.correct_key]
        benign_corr = benign.final_correlations[benign.correct_key]
        assert tdc_corr > benign_corr

    def test_attack_carries_correct_key(self, alu_campaign, cipher):
        result = alu_campaign.attack(2000)
        assert result.correct_key == cipher.last_round_key[3]
