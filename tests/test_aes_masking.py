"""Tests for the first-order masked victim model."""

import numpy as np
import pytest

from repro.aes import AES128, LeakageModel, MaskedLeakageModel, random_ciphertexts
from repro.attacks import BYTE_VALUES, run_cpa, single_bit_hypothesis


@pytest.fixture(scope="module")
def cipher():
    return AES128(bytes(range(16)))


class TestMaskedActivity:
    def test_mean_activity_comparable_to_unmasked(self, cipher):
        cts = random_ciphertexts(5000, seed=0)
        masked = MaskedLeakageModel(mask_share_weight=0.0)
        unmasked = LeakageModel()
        m = masked.activity(cts, cipher.last_round_key)
        u = unmasked.activity(cts, cipher.last_round_key)
        # Masking randomizes values but not the average switching level.
        assert abs(m.mean() - u.mean()) < 2.0

    def test_activity_decorrelated_from_state(self, cipher):
        cts = random_ciphertexts(50_000, seed=1)
        masked = MaskedLeakageModel()
        activity = masked.activity(cts, cipher.last_round_key)
        h = single_bit_hypothesis(cts[:, 3])[
            :, cipher.last_round_key[3]
        ].astype(float)
        rho = abs(np.corrcoef(h, activity)[0, 1])
        # First-order masking: correlation at the noise level
        # (~1/sqrt(N) = 0.0045 here).
        assert rho < 0.02

    def test_unmasked_correlates_for_contrast(self, cipher):
        cts = random_ciphertexts(50_000, seed=1)
        activity = LeakageModel().activity(cts, cipher.last_round_key)
        h = single_bit_hypothesis(cts[:, 3])[
            :, cipher.last_round_key[3]
        ].astype(float)
        assert abs(np.corrcoef(h, activity)[0, 1]) > 0.1

    def test_mask_seed_changes_activity(self, cipher):
        cts = random_ciphertexts(100, seed=2)
        a = MaskedLeakageModel(mask_seed=1).activity(
            cts, cipher.last_round_key
        )
        b = MaskedLeakageModel(mask_seed=2).activity(
            cts, cipher.last_round_key
        )
        assert not np.array_equal(a, b)

    def test_deterministic_per_seed(self, cipher):
        cts = random_ciphertexts(100, seed=2)
        a = MaskedLeakageModel(mask_seed=1).activity(
            cts, cipher.last_round_key
        )
        b = MaskedLeakageModel(mask_seed=1).activity(
            cts, cipher.last_round_key
        )
        assert np.array_equal(a, b)


class TestMaskedCpaFails:
    def test_cpa_defeated(self, cipher):
        cts = random_ciphertexts(60_000, seed=3)
        model = MaskedLeakageModel()
        v = model.voltages(cts, cipher.last_round_key, seed=4)
        result = run_cpa(
            v, cts[:, 3], single_bit_hypothesis(BYTE_VALUES),
            correct_key=cipher.last_round_key[3],
        )
        assert result.measurements_to_disclosure() is None

    def test_unmasked_succeeds_same_budget(self, cipher):
        cts = random_ciphertexts(60_000, seed=3)
        model = LeakageModel()
        v = model.voltages(cts, cipher.last_round_key, seed=4)
        result = run_cpa(
            v, cts[:, 3], single_bit_hypothesis(BYTE_VALUES),
            correct_key=cipher.last_round_key[3],
        )
        assert result.disclosed
