"""Tests for end-to-end physical trace generation.

Contract: the vectorized pipeline (batched AES -> batched current
waveforms -> IIR PDN integration) is bit-identical to the per-trace
pure-Python reference at every stage, and the physically generated
traces actually leak the key to the same CPA the analytical campaign
uses.
"""

import numpy as np
import pytest

from repro.aes import AES128, last_round_activity
from repro.aes.batch import BatchedAES128, cycle_activity_from_states
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.experiments import sharded_physical_attack
from repro.pdn import aes_current_waveform, aes_current_waveform_batch


@pytest.fixture(scope="module")
def cipher():
    return AES128(bytes(range(16)))


@pytest.fixture(scope="module")
def generator(cipher):
    return PhysicalTraceGenerator(cipher)


class TestCurrentWaveformBatch:
    def _activities(self, traces=7, cycles=44, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 48.0, size=(traces, cycles))

    def test_matches_per_trace_loop(self):
        activities = self._activities()
        batch = aes_current_waveform_batch(
            activities, 72, start_sample=4, samples_per_cycle=1.5
        )
        for t, row in enumerate(activities):
            single = aes_current_waveform(
                row, 72, start_sample=4, samples_per_cycle=1.5
            )
            assert np.array_equal(batch[t], single)

    def test_matches_loop_when_truncated(self):
        # num_samples cuts the encryption short: the break/clamp edge
        # cases of the scalar loop must be reproduced exactly.
        activities = self._activities(seed=3)
        for num_samples in (10, 37, 65):
            batch = aes_current_waveform_batch(
                activities, num_samples, start_sample=4,
                samples_per_cycle=1.5,
            )
            for t, row in enumerate(activities):
                single = aes_current_waveform(
                    row, num_samples, start_sample=4,
                    samples_per_cycle=1.5,
                )
                assert np.array_equal(batch[t], single)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            aes_current_waveform_batch(
                np.zeros(44), 72, start_sample=0, samples_per_cycle=1.5
            )


class TestCycleActivity:
    def test_last_round_cycles_match_leakage_model(self, cipher):
        # At the last-round cycle of column c the physical activity
        # must reduce to the analytical model's last_round_activity.
        pts = random_plaintexts(50, seed=2)
        batched = BatchedAES128.from_cipher(cipher)
        states = batched.round_states(pts)
        activity = cycle_activity_from_states(states)
        ciphertexts = states[:, 11]
        for column in range(4):
            expected = last_round_activity(
                ciphertexts, cipher.last_round_key, column=column
            )
            assert np.array_equal(activity[:, 40 + column], expected)


class TestPhysicalTraceGenerator:
    def test_fast_matches_reference_bitwise(self, generator):
        pts = random_plaintexts(20, seed=7)
        fast = generator.generate(pts, seed=11)
        reference = generator.generate_reference(pts, seed=11)
        assert np.array_equal(
            fast["ciphertexts"], reference["ciphertexts"]
        )
        assert np.array_equal(fast["voltages"], reference["voltages"])

    def test_ciphertexts_match_reference_cipher(self, generator, cipher):
        pts = random_plaintexts(5, seed=9)
        data = generator.generate(pts)
        for t in range(pts.shape[0]):
            assert bytes(data["ciphertexts"][t]) == cipher.encrypt(
                bytes(pts[t])
            )

    def test_noise_seed_determinism(self, generator):
        pts = random_plaintexts(6, seed=1)
        a = generator.generate(pts, seed=3)["voltages"]
        b = generator.generate(pts, seed=3)["voltages"]
        c = generator.generate(pts, seed=4)["voltages"]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_last_round_samples_inside_waveform(self, generator):
        indices = generator.last_round_sample_indices()
        assert indices.shape == (4,)
        assert np.all(np.diff(indices) > 0)
        assert indices[-1] < generator.num_samples

    def test_waveform_must_hold_whole_encryption(self, cipher):
        with pytest.raises(ValueError, match="whole encryption"):
            PhysicalTraceGenerator(cipher, num_samples=40)
        with pytest.raises(ValueError):
            PhysicalTraceGenerator(cipher, start_sample=-1)

    def test_voltages_droop_below_nominal(self, generator):
        pts = random_plaintexts(4, seed=5)
        voltages = generator.generate(pts)["voltages"]
        nominal = generator.pdn.params.nominal_voltage
        active = voltages[:, generator.last_round_sample_indices()]
        assert np.all(active < nominal)


class TestSensorReferencePath:
    def test_reference_sampling_bit_identical(self, alu_sensor):
        rng = np.random.default_rng(0)
        voltages = rng.uniform(0.97, 1.0, size=300)
        fast = alu_sensor.sample_bits(voltages, seed=21)
        reference = alu_sensor.sample_bits(
            voltages, seed=21, reference=True
        )
        assert np.array_equal(fast, reference)


class TestShardedPhysicalAttack:
    def test_backends_bit_identical(self, generator, alu_sensor):
        kwargs = dict(chunk_size=1000, seed=5, checkpoints=[2000, 4000])
        serial = sharded_physical_attack(
            generator, alu_sensor, 4000, max_workers=1, **kwargs
        )
        threaded = sharded_physical_attack(
            generator, alu_sensor, 4000, max_workers=4, **kwargs
        )
        assert np.array_equal(serial.correlations, threaded.correlations)

    def test_reference_path_bit_identical(self, generator, alu_sensor):
        kwargs = dict(
            chunk_size=200, seed=5, checkpoints=[400], max_workers=1
        )
        fast = sharded_physical_attack(
            generator, alu_sensor, 400, **kwargs
        )
        reference = sharded_physical_attack(
            generator, alu_sensor, 400, reference=True, **kwargs
        )
        assert np.array_equal(fast.checkpoints, reference.checkpoints)
        assert np.array_equal(fast.correlations, reference.correlations)

    def test_recovers_key_byte(self, generator, alu_sensor):
        result = sharded_physical_attack(
            generator, alu_sensor, 40_000, seed=5,
            checkpoints=[40_000],
        )
        final = np.abs(result.correlations[-1])
        rank = int(np.sum(final > final[result.correct_key]))
        assert rank == 0

    def test_validation(self, generator, alu_sensor):
        with pytest.raises(ValueError):
            sharded_physical_attack(generator, alu_sensor, 1)


class TestDeterministicNoiseSplit:
    """generate() == generate_deterministic() + add_ambient_noise().

    This split is what lets the campaign service coalesce compatible
    trace-generation requests into one batched pass and still return
    bit-identical per-request results.
    """

    def test_split_recomposes_generate_exactly(self, generator):
        plaintexts = random_plaintexts(40, seed=11)
        whole = generator.generate(plaintexts, seed=3)
        deterministic = generator.generate_deterministic(plaintexts)
        voltages = generator.add_ambient_noise(
            deterministic["voltages"], seed=3
        )
        assert np.array_equal(
            whole["ciphertexts"], deterministic["ciphertexts"]
        )
        assert np.array_equal(whole["voltages"], voltages)

    def test_deterministic_pass_is_row_independent(self, generator):
        """Concatenating requests then slicing == separate runs."""
        first = random_plaintexts(30, seed=1)
        second = random_plaintexts(50, seed=2)
        merged = generator.generate_deterministic(
            np.vstack([first, second])
        )
        alone_first = generator.generate_deterministic(first)
        alone_second = generator.generate_deterministic(second)
        assert np.array_equal(
            merged["voltages"][:30], alone_first["voltages"]
        )
        assert np.array_equal(
            merged["voltages"][30:], alone_second["voltages"]
        )
        assert np.array_equal(
            merged["ciphertexts"][:30], alone_first["ciphertexts"]
        )
        assert np.array_equal(
            merged["ciphertexts"][30:], alone_second["ciphertexts"]
        )

    def test_noise_draw_depends_only_on_seed_and_shape(self, generator):
        # The same seed over the same shape must add the same noise
        # block — what lets a coalesced batch apply each request's
        # noise to its slice and still match the standalone run.
        shape = (20, generator.num_samples)
        zero_a = generator.add_ambient_noise(np.zeros(shape), seed=9)
        zero_b = generator.add_ambient_noise(np.zeros(shape), seed=9)
        assert np.array_equal(zero_a, zero_b)
        assert not np.array_equal(
            zero_a, generator.add_ambient_noise(np.zeros(shape), seed=10)
        )

    def test_noise_is_pure_in_its_inputs(self, generator):
        base = generator.generate_deterministic(
            random_plaintexts(20, seed=5)
        )["voltages"]
        assert np.array_equal(
            generator.add_ambient_noise(base, seed=9),
            generator.add_ambient_noise(base.copy(), seed=9),
        )

    def test_zero_sigma_noise_is_identity(self, cipher):
        quiet = PhysicalTraceGenerator(cipher, noise_sigma_v=0.0)
        plaintexts = random_plaintexts(10, seed=1)
        data = quiet.generate_deterministic(plaintexts)
        assert np.array_equal(
            quiet.add_ambient_noise(data["voltages"], seed=4),
            data["voltages"],
        )
