"""Tests for second-order CPA against masking."""

import numpy as np
import pytest

from repro.aes import (
    AES128,
    LeakageModel,
    MaskedLeakageModel,
    random_ciphertexts,
)
from repro.attacks import (
    BYTE_VALUES,
    centered_square,
    run_cpa,
    run_second_order_cpa,
    single_bit_hypothesis,
)


@pytest.fixture(scope="module")
def cipher():
    return AES128(bytes(range(16)))


@pytest.fixture(scope="module")
def masked_traces(cipher):
    cts = random_ciphertexts(200_000, seed=1)
    v = MaskedLeakageModel().voltages(cts, cipher.last_round_key, seed=2)
    return cts, v


class TestCenteredSquare:
    def test_zero_mean_input(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(centered_square(x), 1.0)

    def test_mean_removed(self):
        x = np.array([5.0, 7.0])
        assert np.allclose(centered_square(x), [1.0, 1.0])

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            centered_square(np.zeros((3, 2)))


class TestSecondOrderAttack:
    def test_first_order_fails_on_masked(self, cipher, masked_traces):
        cts, v = masked_traces
        first = run_cpa(
            v, cts[:, 3], single_bit_hypothesis(BYTE_VALUES),
            correct_key=cipher.last_round_key[3],
        )
        assert first.measurements_to_disclosure() is None

    def test_second_order_succeeds_on_masked(self, cipher, masked_traces):
        cts, v = masked_traces
        second = run_second_order_cpa(
            v, cts[:, 3], correct_key=cipher.last_round_key[3]
        )
        assert second.disclosed
        assert second.best_guess == cipher.last_round_key[3]

    def test_second_order_costs_more_than_first_on_unmasked(self, cipher):
        """On an *unmasked* victim, the plain first-order attack should
        not be slower than the quadratic one — the preprocessing only
        pays off when first-order leakage is absent."""
        cts = random_ciphertexts(100_000, seed=3)
        v = LeakageModel().voltages(cts, cipher.last_round_key, seed=4)
        first = run_cpa(
            v, cts[:, 3], single_bit_hypothesis(BYTE_VALUES),
            correct_key=cipher.last_round_key[3],
        )
        assert first.disclosed
        second = run_second_order_cpa(
            v, cts[:, 3], correct_key=cipher.last_round_key[3]
        )
        if second.measurements_to_disclosure() is not None:
            assert (
                second.measurements_to_disclosure()
                >= first.measurements_to_disclosure()
            )

    def test_mask_reuse_would_be_first_order_leaky(self, cipher):
        """Sanity check of the masking model: if the output were
        re-masked with the *same* mask, the register transition would
        be unmasked — the fresh-mask model must not show that."""
        cts = random_ciphertexts(50_000, seed=5)
        model = MaskedLeakageModel(value_weight=0.0, mask_share_weight=0.0)
        activity = model.activity(cts, cipher.last_round_key)
        # Pure transition activity of a properly re-masked register is
        # independent of the state: correlation with the true-key
        # hypothesis stays at noise level.
        h = single_bit_hypothesis(cts[:, 3])[
            :, cipher.last_round_key[3]
        ].astype(float)
        assert abs(np.corrcoef(h, activity)[0, 1]) < 0.02
