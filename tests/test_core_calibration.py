"""Tests for endpoint calibration — including the fast-model/gate-level
equivalence that justifies bulk trace generation."""

import hashlib

import numpy as np
import pytest

from repro.circuits import (
    adder_input_assignment,
    build_ripple_carry_adder,
)
from repro.core import BenignSensor, calibrate_endpoints
from repro.core.calibration import EndpointWaveform
from repro.timing import annotate_delays


@pytest.fixture(scope="module")
def adder_calibration():
    adder = build_ripple_carry_adder(16)
    annotation = annotate_delays(adder, seed=2)
    reset = adder_input_assignment(0, 0, 16)
    measure = adder_input_assignment(2**16 - 1, 1, 16)
    endpoints = ["s%d" % i for i in range(16)]
    calibration = calibrate_endpoints(
        annotation, reset, measure, endpoints, sample_period_ps=2000.0
    )
    return annotation, reset, measure, calibration


class TestEndpointWaveform:
    def test_value_lookup(self):
        waveform = EndpointWaveform(
            "x",
            np.array([-np.inf, 100.0, 300.0]),
            np.array([0, 1, 0], dtype=np.uint8),
        )
        assert waveform.value_at(np.array([50.0]))[0] == 0
        assert waveform.value_at(np.array([150.0]))[0] == 1
        assert waveform.value_at(np.array([400.0]))[0] == 0
        assert waveform.initial_value == 0
        assert waveform.settled_value == 0
        assert waveform.settle_time_ps == 300.0
        assert waveform.num_transitions == 2

    def test_edge_boundary_inclusive(self):
        waveform = EndpointWaveform(
            "x", np.array([-np.inf, 100.0]), np.array([0, 1], dtype=np.uint8)
        )
        assert waveform.value_at(np.array([100.0]))[0] == 1

    def test_static_endpoint(self):
        waveform = EndpointWaveform(
            "x", np.array([-np.inf]), np.array([1], dtype=np.uint8)
        )
        assert waveform.settle_time_ps == 0.0
        assert waveform.num_transitions == 0

    def test_edges_in_window(self):
        waveform = EndpointWaveform(
            "x",
            np.array([-np.inf, 100.0, 300.0]),
            np.array([0, 1, 0], dtype=np.uint8),
        )
        assert waveform.edges_in_window(0, 200) == 1
        assert waveform.edges_in_window(0, 400) == 2
        assert waveform.edges_in_window(400, 500) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointWaveform(
                "x", np.array([0.0, -1.0]), np.array([0, 1], dtype=np.uint8)
            )
        with pytest.raises(ValueError):
            EndpointWaveform(
                "x", np.array([0.0]), np.array([0, 1], dtype=np.uint8)
            )


class TestCalibration:
    def test_all_endpoints_present(self, adder_calibration):
        _, _, _, calibration = adder_calibration
        assert calibration.num_bits == 16
        assert calibration.endpoint_nets == ["s%d" % i for i in range(16)]

    def test_voltage_window_orientation(self, adder_calibration):
        _, _, _, calibration = adder_calibration
        lo, hi = calibration.voltage_window(0.95, 1.05)
        assert lo < calibration.sample_period_ps < hi

    def test_voltage_window_validation(self, adder_calibration):
        _, _, _, calibration = adder_calibration
        with pytest.raises(ValueError):
            calibration.voltage_window(1.1, 0.9)

    def test_sample_period_validation(self, adder_calibration):
        annotation, reset, measure, _ = adder_calibration
        with pytest.raises(ValueError):
            calibrate_endpoints(annotation, reset, measure, ["s0"], 0.0)

    def test_potentially_sensitive_subset_grows_with_window(
        self, adder_calibration
    ):
        _, _, _, calibration = adder_calibration
        narrow = calibration.potentially_sensitive(0.99, 1.01)
        wide = calibration.potentially_sensitive(0.85, 1.15)
        assert wide.sum() >= narrow.sum()

    def test_sample_bits_no_jitter_deterministic(self, adder_calibration):
        _, _, _, calibration = adder_calibration
        v = np.linspace(0.9, 1.1, 20)
        a = calibration.sample_bits(v)
        b = calibration.sample_bits(v)
        assert np.array_equal(a, b)

    def test_shared_jitter_shifts_all_bits(self, adder_calibration):
        _, _, _, calibration = adder_calibration
        v = np.full(5, 1.0)
        huge_shift = np.full(5, 1e9)  # far past settling
        settled = calibration.sample_bits(v, shared_jitter_ps=huge_shift)
        # All endpoints show the settled value (sum 0: 0xFFFF+1 wraps).
        assert settled.sum() == 0


class TestFastModelMatchesGateLevel:
    """The central validity argument of the two-tier design."""

    def test_equivalence_across_voltages(self, adder_calibration):
        annotation, reset, measure, calibration = adder_calibration
        from repro.timing import TimedSimulator

        simulator = TimedSimulator(annotation)
        for voltage in (0.85, 0.92, 1.0, 1.08, 1.2):
            snapshot = simulator.run_transition(
                reset, measure, sample_time_ps=2000.0, voltage=voltage
            )
            slow = snapshot.outputs(calibration.endpoint_nets)
            fast = calibration.sample_bits(np.array([voltage]))[0]
            assert fast.tolist() == slow, voltage

    def test_equivalence_full_sensor(self):
        sensor = BenignSensor.from_name("alu", jitter_ps=0.0,
                                        shared_jitter_ps=0.0)
        voltages = np.array([0.93, 1.0, 1.05])
        fast = sensor.sample_bits(voltages)
        slow = sensor.sample_bits_gate_level(voltages)
        assert np.array_equal(fast, slow)


def calibration_digest(sensor):
    """sha256 over every instance's calibration, in sensor-bit order."""
    digest = hashlib.sha256()
    for inst in sensor.instances:
        for waveform in inst.calibration.waveforms:
            digest.update(waveform.net.encode("utf-8"))
            digest.update(waveform.edge_times_ps.tobytes())
            digest.update(waveform.values_after_edge.tobytes())
    return digest.hexdigest()


class TestCalibrationGoldens:
    """The paper sensors' gate-level calibrations, pinned to the byte.

    Any change to the event loop's tie order or float ops moves these
    digests, and with them every on-disk calibration cache entry.
    """

    def test_alu(self, alu_sensor):
        assert calibration_digest(alu_sensor) == (
            "3fbf0350c1c52bff33c6464371dda44e2d6098a713ef6b3b19be47523e0ca241"
        )

    def test_c6288x2(self, c6288_sensor):
        assert calibration_digest(c6288_sensor) == (
            "5a5848e932af2d3f0dfdd214d5b9fbf9085d9b374d8abdbb19ed9da385caf970"
        )
