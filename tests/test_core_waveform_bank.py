"""Tests for the vectorized waveform-bank sampling kernel.

The load-bearing property is bit-exact equivalence with the legacy
per-endpoint loop (`SensorCalibration.sample_bits_reference`) in every
regime: common query time, per-register jitter (both the padded
few-edge kernel and the deep-bank fallback), and shared capture-clock
jitter.
"""

import numpy as np
import pytest

from repro.core import BenignSensor, WaveformBank
from repro.core.calibration import EndpointWaveform
from repro.util.rng import derive_seed, make_rng


def _voltage_sweep(n, seed=11):
    rng = make_rng(derive_seed(seed, "bank-test"))
    return rng.normal(1.0, 0.025, size=n)


def _shared_jitter(n, seed=12):
    rng = make_rng(derive_seed(seed, "bank-test-shared"))
    return rng.normal(0.0, 85.0, size=n)


@pytest.fixture(scope="module")
def alu_calibration(alu_sensor):
    return alu_sensor.instances[0].calibration


@pytest.fixture(scope="module")
def c6288_calibration(c6288_sensor):
    return c6288_sensor.instances[0].calibration


class TestBankConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WaveformBank([])

    def test_shapes(self, alu_calibration):
        bank = alu_calibration.bank
        assert bank.num_bits == alu_calibration.num_bits
        assert bank.offsets.shape == (bank.num_bits + 1,)
        assert bank.flat_times_ps.shape == bank.flat_values.shape
        assert bank.interval_words.shape == (
            bank.num_intervals,
            bank.num_bits,
        )

    def test_initial_values_match_waveforms(self, alu_calibration):
        bank = alu_calibration.bank
        expected = [w.initial_value for w in alu_calibration.waveforms]
        assert bank.initial_values.tolist() == expected

    def test_bank_is_cached_on_calibration(self, alu_calibration):
        assert alu_calibration.bank is alu_calibration.bank

    def test_rejects_2d_queries(self, alu_calibration):
        with pytest.raises(ValueError):
            alu_calibration.bank.sample(np.zeros((3, 3)))


class TestEdgeTieSemantics:
    def test_query_on_edge_sees_post_edge_value(self):
        # value_at uses searchsorted side="right": a query landing
        # exactly on an edge time observes the post-edge value.  The
        # bank must reproduce that in the common-query-time kernel.
        w0 = EndpointWaveform(
            "a",
            np.array([-np.inf, 100.0, 300.0]),
            np.array([0, 1, 0], dtype=np.uint8),
        )
        w1 = EndpointWaveform(
            "b",
            np.array([-np.inf, 200.0]),
            np.array([1, 0], dtype=np.uint8),
        )
        bank = WaveformBank([w0, w1])
        out = bank.sample(np.array([99.0, 100.0, 200.0, 300.0, 301.0]))
        assert out[:, 0].tolist() == [0, 1, 1, 0, 0]
        assert out[:, 1].tolist() == [1, 1, 0, 0, 0]
        for t in (99.0, 100.0, 200.0, 300.0, 301.0):
            row = bank.sample(np.array([t]))[0]
            assert row[0] == w0.value_at(np.array([t]))[0]
            assert row[1] == w1.value_at(np.array([t]))[0]


class TestEquivalenceALU:
    """ALU endpoints have few edges → padded jitter kernel."""

    def test_zero_jitter(self, alu_calibration):
        v = _voltage_sweep(4000)
        fast = alu_calibration.sample_bits(v)
        slow = alu_calibration.sample_bits_reference(v)
        assert np.array_equal(fast, slow)

    def test_per_register_jitter_same_stream(self, alu_calibration):
        v = _voltage_sweep(4000)
        fast = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=3)
        slow = alu_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=3
        )
        assert np.array_equal(fast, slow)

    def test_shared_plus_register_jitter(self, alu_calibration):
        v = _voltage_sweep(4000)
        shared = _shared_jitter(4000)
        fast = alu_calibration.sample_bits(
            v, jitter_ps=45.0, seed=9, shared_jitter_ps=shared
        )
        slow = alu_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=9, shared_jitter_ps=shared
        )
        assert np.array_equal(fast, slow)

    def test_different_seeds_differ(self, alu_calibration):
        v = _voltage_sweep(2000)
        a = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=1)
        b = alu_calibration.sample_bits(v, jitter_ps=45.0, seed=2)
        assert not np.array_equal(a, b)


class TestEquivalenceC6288:
    """C6288 endpoints have deep waveforms → per-endpoint fallback."""

    def test_zero_jitter(self, c6288_calibration):
        v = _voltage_sweep(1500)
        fast = c6288_calibration.sample_bits(v)
        slow = c6288_calibration.sample_bits_reference(v)
        assert np.array_equal(fast, slow)

    def test_shared_plus_register_jitter(self, c6288_calibration):
        v = _voltage_sweep(1500)
        shared = _shared_jitter(1500)
        fast = c6288_calibration.sample_bits(
            v, jitter_ps=45.0, seed=5, shared_jitter_ps=shared
        )
        slow = c6288_calibration.sample_bits_reference(
            v, jitter_ps=45.0, seed=5, shared_jitter_ps=shared
        )
        assert np.array_equal(fast, slow)


class TestSharedJitterValidation:
    def test_shape_mismatch_rejected(self, alu_calibration):
        v = _voltage_sweep(100)
        with pytest.raises(ValueError):
            alu_calibration.sample_bits(
                v, shared_jitter_ps=np.zeros(99)
            )
        with pytest.raises(ValueError):
            alu_calibration.sample_bits_reference(
                v, shared_jitter_ps=np.zeros((100, 1))
            )


class TestFullSensorEquivalence:
    def test_sensor_level_bit_exact(self):
        # Through BenignSensor.sample_bits (shared jitter drawn
        # internally, per-instance seeds): force the reference loop by
        # swapping the method, compare against the bank path.
        sensor = BenignSensor.from_name("alu")
        v = _voltage_sweep(2000)
        fast = sensor.sample_bits(v, seed=21)

        try:
            for inst in sensor.instances:
                inst.calibration.sample_bits = (
                    inst.calibration.sample_bits_reference
                )
            slow = sensor.sample_bits(v, seed=21)
        finally:
            for inst in sensor.instances:
                del inst.calibration.__dict__["sample_bits"]
        assert np.array_equal(fast, slow)
