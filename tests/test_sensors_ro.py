"""Tests for ring-oscillator sensor and aggressor."""

import numpy as np
import pytest

from repro.sensors import ROSensor, build_ro_netlist


class TestRONetlist:
    def test_loop_is_cyclic(self):
        nl = build_ro_netlist(3)
        assert nl.has_cycles

    def test_without_enable(self):
        nl = build_ro_netlist(5, with_enable=False)
        assert nl.has_cycles
        assert len(nl.inputs) == 0

    def test_even_inverters_rejected(self):
        with pytest.raises(ValueError):
            build_ro_netlist(4)

    def test_single_inverter_allowed(self):
        assert build_ro_netlist(1).has_cycles

    def test_enable_gate_present(self):
        nl = build_ro_netlist(3)
        assert "enable" in nl.inputs
        assert nl.gate_driving("loop_in").type_name == "NAND"


class TestROSensor:
    @pytest.fixture(scope="class")
    def sensor(self):
        return ROSensor()

    def test_idle_count(self, sensor):
        counts = sensor.sample_scalar(np.full(200, 1.0), seed=0)
        expected = sensor.nominal_freq_hz * sensor.window_s
        assert abs(counts.mean() - expected) < 2

    def test_droop_reduces_count(self, sensor):
        idle = sensor.sample_scalar(np.full(200, 1.0), seed=0).mean()
        droop = sensor.sample_scalar(np.full(200, 0.92), seed=0).mean()
        assert droop < idle

    def test_counts_non_negative(self, sensor):
        counts = sensor.sample_scalar(np.full(50, 0.5), seed=0)
        assert counts.min() >= 0

    def test_bits_encode_count(self, sensor):
        v = np.full(20, 1.0)
        counts = sensor.sample_scalar(v, seed=9)
        bits = sensor.sample_bits(v, seed=9)
        decoded = (bits * (1 << np.arange(sensor.num_bits))).sum(axis=1)
        assert np.array_equal(decoded, counts)

    def test_register_width_sufficient(self, sensor):
        max_count = sensor.nominal_freq_hz * sensor.window_s * 2
        assert 2**sensor.num_bits > max_count

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ROSensor(nominal_freq_hz=0.0)
        with pytest.raises(ValueError):
            ROSensor(window_s=-1.0)
