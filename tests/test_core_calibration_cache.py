"""Tests for the keyed calibration cache (in-process + on-disk)."""

import numpy as np
import pytest

from repro.circuits import (
    adder_input_assignment,
    build_ripple_carry_adder,
)
from repro.core import (
    BenignSensor,
    cached_calibrate_endpoints,
    calibration_stats,
    clear_calibration_cache,
)
from repro.core import calibration_cache
from repro.timing import annotate_delays


@pytest.fixture()
def adder_case():
    adder = build_ripple_carry_adder(8)
    annotation = annotate_delays(adder, seed=2)
    reset = adder_input_assignment(0, 0, 8)
    measure = adder_input_assignment(255, 1, 8)
    endpoints = ["s%d" % i for i in range(8)]
    return annotation, reset, measure, endpoints


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate every test from the process-wide cache state.

    The disk layer is off unless a test opts in: an exported
    ``REPRO_CACHE_DIR`` would otherwise serve entries the in-process
    layer's assertions expect to be recomputed.
    """
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_calibration_cache()
    yield
    clear_calibration_cache()


@pytest.fixture()
def count_gate_level(monkeypatch):
    """Count how often the real gate-level calibrator runs."""
    calls = []
    real = calibration_cache.calibrate_endpoints

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(
        calibration_cache, "calibrate_endpoints", counting
    )
    return calls


class TestInProcessLayer:
    def test_second_call_skips_gate_level(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        first = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        second = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 1
        assert second is first
        stats = calibration_stats()
        assert stats.misses == 1 and stats.memory_hits == 1

    def test_key_depends_on_sample_period(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        other = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2500.0
        )
        assert len(count_gate_level) == 2
        assert other.sample_period_ps == 2500.0

    def test_key_depends_on_delays(self, adder_case, count_gate_level):
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        other_annotation = annotate_delays(
            build_ripple_carry_adder(8), seed=3
        )
        cached_calibrate_endpoints(
            other_annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2


class TestDiskLayer:
    def test_round_trip_across_processes(
        self, adder_case, count_gate_level, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        annotation, reset, measure, endpoints = adder_case
        first = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert list(tmp_path.glob("*.npz"))

        # Simulate a new process: in-process layer emptied.
        clear_calibration_cache()
        second = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 1
        assert calibration_stats().disk_hits == 1
        assert second.endpoint_nets == first.endpoint_nets
        voltages = np.linspace(0.9, 1.1, 50)
        assert np.array_equal(
            first.sample_bits(voltages), second.sample_bits(voltages)
        )

    def test_corrupt_file_falls_back(
        self, adder_case, count_gate_level, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        for path in tmp_path.glob("*.npz"):
            path.write_bytes(b"not a zip archive")
        clear_calibration_cache()
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2
        assert calibration_stats().disk_hits == 0


class TestDisableFlag:
    def test_env_kill_switch(
        self, adder_case, count_gate_level, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CALIBRATION_CACHE", "0")
        annotation, reset, measure, endpoints = adder_case
        a = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        b = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2
        assert a is not b
        stats = calibration_stats()
        assert stats.misses == 0 and stats.memory_hits == 0


class TestSensorIntegration:
    def test_repeated_sensor_builds_share_calibration(self):
        first = BenignSensor.from_name("alu")
        before = calibration_stats().memory_hits
        second = BenignSensor.from_name("alu")
        assert calibration_stats().memory_hits == before + 1
        assert (
            second.instances[0].calibration
            is first.instances[0].calibration
        )
        voltages = np.linspace(0.93, 1.05, 200)
        assert np.array_equal(
            first.sample_bits(voltages, seed=4),
            second.sample_bits(voltages, seed=4),
        )

    def test_different_implementation_seed_not_shared(self):
        base = BenignSensor.from_name("alu")
        other = BenignSensor.from_name("alu", implementation_seed=99)
        assert (
            other.instances[0].calibration
            is not base.instances[0].calibration
        )


class TestInvalidation:
    """A changed configuration must MISS — never return stale data."""

    def test_changed_measure_stimulus_invalidates(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        stale = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        other_measure = adder_input_assignment(170, 0, 8)
        fresh = cached_calibrate_endpoints(
            annotation, reset, other_measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2, "second config must recompute"
        assert fresh is not stale

    def test_changed_reset_stimulus_invalidates(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        other_reset = adder_input_assignment(1, 0, 8)
        cached_calibrate_endpoints(
            annotation, other_reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2

    def test_changed_endpoint_list_invalidates(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        subset = endpoints[:4]
        narrowed = cached_calibrate_endpoints(
            annotation, reset, measure, subset, 2000.0
        )
        assert len(count_gate_level) == 2
        assert narrowed.num_bits == 4, "must not return the stale 8-bit entry"

    def test_endpoint_order_is_significant(
        self, adder_case, count_gate_level
    ):
        # Bit order defines the sensor read-out word; a reordered list
        # is a different calibration, not a cache hit.
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        cached_calibrate_endpoints(
            annotation, reset, measure, list(reversed(endpoints)), 2000.0
        )
        assert len(count_gate_level) == 2

    def test_changed_context_invalidates(
        self, adder_case, count_gate_level
    ):
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0,
            context=("adder", 1),
        )
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0,
            context=("adder", 2),
        )
        assert len(count_gate_level) == 2

    def test_single_gate_delay_perturbation_invalidates(
        self, adder_case, count_gate_level
    ):
        import dataclasses

        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        perturbed_delays = dict(annotation.gate_delay_ps)
        some_net = sorted(perturbed_delays)[0]
        perturbed_delays[some_net] += 0.5
        perturbed = dataclasses.replace(
            annotation, gate_delay_ps=perturbed_delays
        )
        cached_calibrate_endpoints(
            perturbed, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2, (
            "the delay-table digest must catch a 0.5 ps change"
        )

    def test_disk_layer_does_not_serve_stale_config(
        self, adder_case, count_gate_level, monkeypatch, tmp_path
    ):
        # Persist one config, then ask for a *different* config with an
        # empty in-process layer: the disk layer must not answer.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        annotation, reset, measure, endpoints = adder_case
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        clear_calibration_cache()
        changed = cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2500.0
        )
        assert len(count_gate_level) == 2
        assert calibration_stats().disk_hits == 0
        assert changed.sample_period_ps == 2500.0
        # The original config still round-trips from disk.
        clear_calibration_cache()
        cached_calibrate_endpoints(
            annotation, reset, measure, endpoints, 2000.0
        )
        assert len(count_gate_level) == 2
        assert calibration_stats().disk_hits == 1
