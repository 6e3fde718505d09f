"""Tests for the BenignSensor."""

import numpy as np
import pytest

from repro.circuits import get_circuit_spec
from repro.core import BenignSensor


class TestConstruction:
    def test_alu_shape(self, alu_sensor):
        assert alu_sensor.num_bits == 192
        assert len(alu_sensor.instances) == 1
        assert alu_sensor.name == "alu"

    def test_c6288_shape(self, c6288_sensor):
        assert c6288_sensor.num_bits == 64
        assert len(c6288_sensor.instances) == 2

    def test_sample_period(self, alu_sensor):
        assert alu_sensor.sample_period_ps == pytest.approx(1e6 / 300.0)

    def test_from_spec_equivalent(self):
        spec = get_circuit_spec("c6288")
        sensor = BenignSensor.from_spec(spec)
        assert sensor.num_bits == 32

    def test_instances_get_distinct_placements(self, c6288_sensor):
        a, b = c6288_sensor.instances
        assert a.annotation.gate_delay_ps != b.annotation.gate_delay_ps

    def test_rejects_empty_instances(self):
        with pytest.raises(ValueError):
            BenignSensor([])

    def test_rejects_bad_overclock(self):
        with pytest.raises(ValueError):
            BenignSensor.from_name("c6288", overclock_mhz=0.0)


class TestOverclockReporting:
    def test_alu_is_heavily_overclocked(self, alu_sensor):
        assert alu_sensor.legitimate_fmax_mhz() < 150.0
        assert alu_sensor.overclock_factor() > 2.0

    def test_settle_times_exceed_period(self, alu_sensor):
        settle = alu_sensor.endpoint_settle_times_ps()
        assert settle.shape == (192,)
        # Many endpoints settle after the 3333 ps sampling period —
        # the precondition for the sensor to work at all.
        assert (settle > alu_sensor.sample_period_ps).sum() > 50


class TestSampling:
    def test_bits_shape_and_dtype(self, alu_sensor):
        v = np.full(10, 1.0)
        bits = alu_sensor.sample_bits(v, seed=0)
        assert bits.shape == (10, 192)
        assert bits.dtype == np.uint8

    def test_seeded_reproducible(self, alu_sensor):
        v = np.full(50, 1.0)
        assert np.array_equal(
            alu_sensor.sample_bits(v, seed=5),
            alu_sensor.sample_bits(v, seed=5),
        )

    def test_seed_changes_jitter(self, alu_sensor):
        v = np.full(50, 1.0)
        a = alu_sensor.sample_bits(v, seed=5)
        b = alu_sensor.sample_bits(v, seed=6)
        assert not np.array_equal(a, b)

    def test_voltage_affects_word(self, alu_sensor):
        low = alu_sensor.sample_bits(np.full(1, 0.9), seed=0)
        high = alu_sensor.sample_bits(np.full(1, 1.1), seed=0)
        assert not np.array_equal(low, high)

    def test_scalar_readout_is_hw(self, alu_sensor):
        v = np.full(5, 1.0)
        bits = alu_sensor.sample_bits(v, seed=1)
        scalar = alu_sensor.sample_scalar(v, seed=1)
        assert np.array_equal(scalar, bits.sum(axis=1))

    def test_instance_concatenation_order(self, c6288_sensor):
        v = np.full(3, 1.0)
        combined = c6288_sensor.sample_bits(v, seed=2)
        assert combined.shape == (3, 64)


class TestSharedNetlist:
    def test_seeds_share_one_netlist_and_calibrate_as_fresh_builds(self):
        """The registry builds a circuit's frozen netlist once; every
        seed's calibration and cache key match a fresh build's."""
        from repro.circuits.alu import ALU_WIDTH, build_alu
        from repro.core.calibration import calibrate_endpoints
        from repro.core.calibration_cache import calibration_cache_key
        from repro.timing.techmap import FpgaImplementation, fpga_annotate
        from repro.util.rng import derive_seed

        spec = get_circuit_spec("alu")
        seeds = (3, 4)
        sensors = [
            BenignSensor.from_spec(spec, implementation_seed=seed)
            for seed in seeds
        ]
        shared = [sensor.instances[0].annotation.netlist for sensor in sensors]
        assert shared[0] is shared[1] is get_circuit_spec("alu").build()
        for seed, sensor in zip(seeds, sensors):
            instance = sensor.instances[0]
            fresh = fpga_annotate(
                build_alu(ALU_WIDTH),
                FpgaImplementation(seed=derive_seed(seed, "alu", 0)),
            )
            arguments = (
                spec.reset_inputs,
                spec.measure_inputs,
                spec.endpoint_nets,
                sensor.sample_period_ps,
            )
            context = ("alu", derive_seed(seed, "alu", 0))
            assert calibration_cache_key(
                instance.annotation, *arguments, context
            ) == calibration_cache_key(fresh, *arguments, context)
            expected = calibrate_endpoints(fresh, *arguments)
            for got, want in zip(
                instance.calibration.waveforms, expected.waveforms
            ):
                assert got.net == want.net
                assert got.edge_times_ps.tobytes() == (
                    want.edge_times_ps.tobytes()
                )
                assert got.values_after_edge.tobytes() == (
                    want.values_after_edge.tobytes()
                )
