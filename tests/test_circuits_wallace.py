"""Tests for the Wallace-tree multiplier generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    build_c6288,
    build_wallace_multiplier,
    c6288_input_assignment,
    get_circuit_spec,
)
from repro.timing import analyze_timing, fpga_annotate


def multiply(nl, a, b, width):
    out = nl.evaluate_outputs(c6288_input_assignment(a, b, width))
    return sum(out["p%d" % i] << i for i in range(2 * width))


class TestWallaceFunction:
    def test_exhaustive_4bit(self):
        nl = build_wallace_multiplier(4)
        for a in range(16):
            for b in range(16):
                assert multiply(nl, a, b, 4) == a * b

    def test_width_two(self):
        nl = build_wallace_multiplier(2)
        for a in range(4):
            for b in range(4):
                assert multiply(nl, a, b, 2) == a * b

    def test_extremes_16bit(self):
        nl = build_wallace_multiplier(16)
        ones = 2**16 - 1
        assert multiply(nl, ones, ones, 16) == ones * ones
        assert multiply(nl, 0, ones, 16) == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_random_16bit(self, a, b):
        nl = build_wallace_multiplier(16)
        assert multiply(nl, a, b, 16) == a * b

    def test_agrees_with_c6288(self):
        wallace = build_wallace_multiplier(8)
        array = build_c6288(8)
        for a, b in ((13, 240), (255, 255), (100, 101)):
            assert multiply(wallace, a, b, 8) == multiply(array, a, b, 8)

    def test_rejects_width_one(self):
        with pytest.raises(ValueError):
            build_wallace_multiplier(1)


class TestWallaceShape:
    def test_structurally_clean(self):
        netlist = build_wallace_multiplier(8)
        assert netlist.frozen and netlist.outputs
        assert max(len(gate.inputs) for gate in netlist.gates) <= 16

    def test_shallower_than_array(self):
        wallace = max(
            build_wallace_multiplier(16).logic_depth().values()
        )
        array = max(build_c6288(16).logic_depth().values())
        assert wallace < array

    def test_faster_than_array(self):
        wallace = analyze_timing(
            fpga_annotate(build_wallace_multiplier(16))
        )
        array = analyze_timing(fpga_annotate(build_c6288(16)))
        assert wallace.max_frequency_mhz > array.max_frequency_mhz

    def test_registered_as_sensor_circuit(self):
        spec = get_circuit_spec("wallace16")
        assert spec.num_endpoints == 32
        nl = spec.build()
        out = nl.evaluate_outputs(spec.measure_inputs)
        product = sum(out["p%d" % i] << i for i in range(32))
        assert product == (2**16 - 1) ** 2
