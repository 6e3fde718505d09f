"""Tests for the active-fence hiding countermeasure."""

import numpy as np
import pytest

from repro.aes import AES128, LeakageModel, random_ciphertexts
from repro.attacks import BYTE_VALUES, run_cpa, single_bit_hypothesis
from repro.defense import ActiveFence, FencedLeakageModel


@pytest.fixture(scope="module")
def cipher():
    return AES128(bytes(range(16)))


class TestActiveFence:
    def test_noise_sigma_formula(self):
        fence = ActiveFence(
            num_elements=1000,
            group_size=10,
            current_per_element_a=1e-4,
            impedance_ohm=0.1,
            activation_probability=0.5,
        )
        expected = 0.1 * 1e-4 * 10 * np.sqrt(100 * 0.25)
        assert fence.noise_sigma_v == pytest.approx(expected)

    def test_noise_is_zero_mean_after_droop(self):
        fence = ActiveFence(seed=1)
        noise = fence.noise_voltages(50_000)
        assert noise.std() == pytest.approx(fence.noise_sigma_v, rel=0.1)
        assert (-noise.mean()) == pytest.approx(fence.mean_droop_v, rel=0.1)

    def test_group_size_scales_noise(self):
        small = ActiveFence(group_size=1)
        large = ActiveFence(group_size=64)
        assert large.noise_sigma_v > 5 * small.noise_sigma_v

    def test_deterministic_per_seed(self):
        a = ActiveFence(seed=3).noise_voltages(100)
        b = ActiveFence(seed=3).noise_voltages(100)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        fence = ActiveFence(seed=3)
        assert not np.array_equal(
            fence.noise_voltages(100, stream=0),
            fence.noise_voltages(100, stream=1),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ActiveFence(num_elements=-1)
        with pytest.raises(ValueError):
            ActiveFence(activation_probability=1.5)
        with pytest.raises(ValueError):
            ActiveFence(group_size=0)


class TestFencedLeakage:
    def test_signal_preserved_noise_added(self, cipher):
        cts = random_ciphertexts(20_000, seed=5)
        base = LeakageModel()
        fenced = FencedLeakageModel(base, ActiveFence(seed=7))
        clean = base.voltages(cts, cipher.last_round_key, seed=6)
        noisy = fenced.voltages(cts, cipher.last_round_key, seed=6)
        assert noisy.std() > clean.std()

    def test_attack_degraded_not_stopped(self, cipher):
        cts = random_ciphertexts(80_000, seed=8)
        table = single_bit_hypothesis(BYTE_VALUES)
        correct = cipher.last_round_key[3]

        base = LeakageModel()
        clean = run_cpa(
            base.voltages(cts, cipher.last_round_key, seed=9),
            cts[:, 3], table, correct_key=correct,
        )
        fenced_model = FencedLeakageModel(base, ActiveFence(seed=7))
        fenced = run_cpa(
            fenced_model.voltages(cts, cipher.last_round_key, seed=9),
            cts[:, 3], table, correct_key=correct,
        )
        assert clean.disclosed
        clean_corr = clean.final_correlations[correct]
        fenced_corr = fenced.final_correlations[correct]
        # Hiding: the correlation shrinks but does not vanish.
        assert fenced_corr < 0.6 * clean_corr
        assert fenced_corr > 0.01

    def test_column_voltages_fenced(self, cipher):
        cts = random_ciphertexts(1000, seed=10)
        fenced = FencedLeakageModel(LeakageModel(), ActiveFence(seed=7))
        columns = fenced.column_voltages(cts, cipher.last_round_key, seed=1)
        assert columns.shape == (1000, 4)
