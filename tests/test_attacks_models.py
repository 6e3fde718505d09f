"""Tests for leakage hypothesis models."""

import numpy as np
import pytest

from repro.aes import AES128, INV_SBOX, random_ciphertexts
from repro.attacks import (
    hamming_distance_hypothesis,
    hamming_weight_hypothesis,
    inverse_sbox_intermediate,
    single_bit_hypothesis,
)


class TestInverseSboxIntermediate:
    def test_matches_scalar_definition(self):
        cts = np.array([0x00, 0xA5, 0xFF], dtype=np.uint8)
        table = inverse_sbox_intermediate(cts)
        assert table.shape == (3, 256)
        for row, c in enumerate(cts):
            for k in (0, 17, 255):
                assert table[row, k] == INV_SBOX[c ^ k]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            inverse_sbox_intermediate(np.zeros((4, 2), dtype=np.uint8))

    def test_correct_key_column_recovers_state(self):
        cipher = AES128(bytes(range(16)))
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = cipher.encrypt(pt)
        states = cipher.round_states(pt)
        target_byte = 3
        key_byte = cipher.last_round_key[target_byte]
        table = inverse_sbox_intermediate(
            np.array([ct[target_byte]], dtype=np.uint8)
        )
        # Guessing k10[3] with ct[3] recovers s9 at the ShiftRows source
        # position of cell 3, which is cell 15.
        assert table[0, key_byte] == states[10][15]


class TestSingleBitHypothesis:
    def test_binary_output(self):
        cts = random_ciphertexts(100, seed=0)[:, 3]
        h = single_bit_hypothesis(cts, bit=0)
        assert set(np.unique(h)) <= {0, 1}
        assert h.shape == (100, 256)

    def test_bit_extraction_consistent(self):
        cts = random_ciphertexts(50, seed=1)[:, 3]
        intermediate = inverse_sbox_intermediate(cts)
        for bit in range(8):
            h = single_bit_hypothesis(cts, bit=bit)
            assert np.array_equal(h, (intermediate >> bit) & 1)

    def test_bit_bounds(self):
        cts = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            single_bit_hypothesis(cts, bit=8)

    def test_balanced_over_random_inputs(self):
        cts = random_ciphertexts(20000, seed=2)[:, 3]
        h = single_bit_hypothesis(cts, bit=0)
        assert abs(h.mean() - 0.5) < 0.02


class TestHammingWeightHypothesis:
    def test_range(self):
        cts = random_ciphertexts(100, seed=3)[:, 0]
        h = hamming_weight_hypothesis(cts)
        assert h.min() >= 0 and h.max() <= 8

    def test_mean_near_four(self):
        cts = random_ciphertexts(20000, seed=4)[:, 0]
        h = hamming_weight_hypothesis(cts)
        assert abs(h.mean() - 4.0) < 0.1


class TestHammingDistanceHypothesis:
    def test_range(self):
        cts = random_ciphertexts(100, seed=5)
        h = hamming_distance_hypothesis(cts[:, 15], cts[:, 3])
        assert h.min() >= 0 and h.max() <= 8

    def test_shape(self):
        cts = random_ciphertexts(10, seed=6)
        h = hamming_distance_hypothesis(cts[:, 15], cts[:, 3])
        assert h.shape == (10, 256)


class TestCiphertextByteValidation:
    """Out-of-range or fractional bytes must raise, never wrap."""

    @pytest.mark.parametrize("bad", [256, -1, 3.7, np.nan, np.inf])
    def test_rejects_non_byte_values(self, bad):
        cts = np.array([7.0, bad, 9.0])
        with pytest.raises(ValueError, match="index 1"):
            single_bit_hypothesis(cts)

    def test_wrapping_input_is_rejected(self):
        # Once cast silently to the hypotheses of [0, 255, 3].
        with pytest.raises(ValueError, match="256"):
            single_bit_hypothesis(np.array([256, -1, 3.7]))
        with pytest.raises(ValueError, match="-1"):
            hamming_weight_hypothesis(np.array([5, -1], dtype=np.int64))

    def test_rejects_non_numeric_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            single_bit_hypothesis(np.array(["a", "b"]))

    def test_integer_and_integral_float_bytes_accepted(self):
        cts = random_ciphertexts(64, seed=7)[:, 3]
        expected = single_bit_hypothesis(cts, bit=2)
        for converted in (cts.astype(np.int64), cts.astype(np.float64)):
            assert np.array_equal(
                single_bit_hypothesis(converted, bit=2), expected
            )
