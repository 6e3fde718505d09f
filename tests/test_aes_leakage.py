"""Tests for the vectorized last-round leakage model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aes import (
    AES128,
    LeakageModel,
    SHIFT_ROWS_SOURCE,
    destination_of_source,
    last_round_activity,
    last_round_byte_hd,
    random_ciphertexts,
    state_before_final_sbox,
    verify_fast_path,
)


@pytest.fixture(scope="module")
def cipher():
    return AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))


class TestStateRecovery:
    def test_against_reference_cipher(self, cipher):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pt = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
            assert verify_fast_path(cipher, pt)

    def test_vectorized_batch(self, cipher):
        rng = np.random.default_rng(1)
        pts = [bytes(rng.integers(0, 256, 16, dtype=np.uint8))
               for _ in range(8)]
        cts = np.array(
            [list(cipher.encrypt(pt)) for pt in pts], dtype=np.uint8
        )
        s9 = state_before_final_sbox(cts, cipher.last_round_key)
        for row, pt in enumerate(pts):
            assert s9[row].tolist() == cipher.round_states(pt)[10]

    def test_shape_validation(self, cipher):
        with pytest.raises(ValueError):
            state_before_final_sbox(
                np.zeros((4, 8), dtype=np.uint8), cipher.last_round_key
            )
        with pytest.raises(ValueError):
            state_before_final_sbox(
                np.zeros((4, 16), dtype=np.uint8), b"short"
            )


class TestShiftRowsTables:
    def test_source_is_permutation(self):
        assert sorted(SHIFT_ROWS_SOURCE.tolist()) == list(range(16))

    def test_destination_inverts_source(self):
        destination = destination_of_source()
        for d in range(16):
            assert destination[SHIFT_ROWS_SOURCE[d]] == d

    def test_row0_fixed(self):
        # Row 0 does not shift: positions 0, 4, 8, 12 map to themselves.
        for position in (0, 4, 8, 12):
            assert SHIFT_ROWS_SOURCE[position] == position

    def test_paper_target_cell(self):
        # Guessing key byte 3 targets pre-SBox cell 15 (row 3, col 3).
        assert SHIFT_ROWS_SOURCE[3] == 15


class TestHammingStatistics:
    def test_hd_mean_near_64(self, cipher):
        cts = random_ciphertexts(5000, seed=3)
        hd = last_round_byte_hd(cts, cipher.last_round_key).sum(axis=1)
        assert abs(hd.mean() - 64.0) < 2.0

    def test_hd_bounds(self, cipher):
        cts = random_ciphertexts(1000, seed=5)
        per_byte = last_round_byte_hd(cts, cipher.last_round_key)
        assert per_byte.min() >= 0 and per_byte.max() <= 8

    def test_activity_column_restriction(self, cipher):
        cts = random_ciphertexts(2000, seed=6)
        column_activity = last_round_activity(
            cts, cipher.last_round_key, column=3,
            value_weight=1.0, transition_weight=0.0,
        )
        # 4 bytes of HW: mean 16.
        assert abs(column_activity.mean() - 16.0) < 1.0
        full = last_round_activity(
            cts, cipher.last_round_key, column=None,
            value_weight=1.0, transition_weight=0.0,
        )
        assert abs(full.mean() - 64.0) < 2.0

    def test_activity_weights(self, cipher):
        cts = random_ciphertexts(100, seed=7)
        hw_only = last_round_activity(
            cts, cipher.last_round_key, 1.0, 0.0, column=None
        )
        s9 = state_before_final_sbox(cts, cipher.last_round_key)
        hw = np.unpackbits(s9, axis=1).sum(axis=1)
        assert np.array_equal(hw_only, hw)
        hd_only = last_round_activity(
            cts, cipher.last_round_key, 0.0, 1.0, column=None
        )
        assert np.array_equal(
            hd_only,
            last_round_byte_hd(cts, cipher.last_round_key).sum(axis=1),
        )

    def test_invalid_column(self, cipher):
        with pytest.raises(ValueError):
            last_round_activity(
                random_ciphertexts(4), cipher.last_round_key, column=4
            )


class TestLeakageModel:
    def test_voltage_below_idle_on_average(self, cipher):
        model = LeakageModel()
        cts = random_ciphertexts(2000, seed=8)
        v = model.voltages(cts, cipher.last_round_key, seed=9)
        assert v.mean() < model.v_idle

    def test_reproducible(self, cipher):
        model = LeakageModel()
        cts = random_ciphertexts(100, seed=8)
        a = model.voltages(cts, cipher.last_round_key, seed=9)
        b = model.voltages(cts, cipher.last_round_key, seed=9)
        assert np.allclose(a, b)

    def test_activity_correlates_negatively_with_voltage(self, cipher):
        model = LeakageModel(noise_sigma_v=1e-4)
        cts = random_ciphertexts(5000, seed=10)
        activity = model.activity(cts, cipher.last_round_key)
        v = model.voltages(cts, cipher.last_round_key, seed=11)
        assert np.corrcoef(activity, v)[0, 1] < -0.9


class TestRandomCiphertexts:
    def test_shape_and_dtype(self):
        cts = random_ciphertexts(10, seed=0)
        assert cts.shape == (10, 16)
        assert cts.dtype == np.uint8

    def test_seeded(self):
        assert np.array_equal(
            random_ciphertexts(10, seed=1), random_ciphertexts(10, seed=1)
        )

    def test_roughly_uniform(self):
        cts = random_ciphertexts(20000, seed=2)
        mean = cts.astype(float).mean()
        assert abs(mean - 127.5) < 1.5
