"""Tests for the Kogge-Stone adder generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    adder_input_assignment,
    build_kogge_stone_adder,
    build_ripple_carry_adder,
)
from repro.timing import analyze_timing, fpga_annotate


def add(nl, a, b, width, cin=0):
    out = nl.evaluate_outputs(adder_input_assignment(a, b, width, cin))
    return sum(out["s%d" % i] << i for i in range(width)), out["cout"]


class TestKoggeStoneFunction:
    def test_exhaustive_4bit(self):
        nl = build_kogge_stone_adder(4)
        for a in range(16):
            for b in range(16):
                for cin in (0, 1):
                    total, cout = add(nl, a, b, 4, cin)
                    expected = a + b + cin
                    assert total == expected & 0xF
                    assert cout == expected >> 4

    def test_width_one(self):
        nl = build_kogge_stone_adder(1)
        assert add(nl, 1, 1, 1) == (0, 1)

    def test_non_power_of_two_width(self):
        nl = build_kogge_stone_adder(13)
        assert add(nl, 2**13 - 1, 1, 13) == (0, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 1),
    )
    def test_random_32bit(self, a, b, cin):
        nl = build_kogge_stone_adder(32)
        total, cout = add(nl, a, b, 32, cin)
        expected = a + b + cin
        assert total == expected & 0xFFFFFFFF
        assert cout == expected >> 32

    def test_matches_ripple_carry(self):
        ks = build_kogge_stone_adder(8)
        rc = build_ripple_carry_adder(8)
        for a, b in ((17, 240), (255, 255), (0, 0), (128, 127)):
            assert add(ks, a, b, 8) == add(rc, a, b, 8)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            build_kogge_stone_adder(0)


class TestKoggeStoneShape:
    def test_structurally_clean(self):
        netlist = build_kogge_stone_adder(16)
        assert netlist.frozen and netlist.outputs
        assert max(len(gate.inputs) for gate in netlist.gates) <= 16

    def test_logarithmic_depth(self):
        ks_depth = max(build_kogge_stone_adder(64).logic_depth().values())
        rc_depth = max(build_ripple_carry_adder(64).logic_depth().values())
        assert ks_depth < rc_depth / 4

    def test_faster_than_ripple_carry(self):
        ks = analyze_timing(fpga_annotate(build_kogge_stone_adder(64)))
        rc = analyze_timing(fpga_annotate(build_ripple_carry_adder(64)))
        assert ks.max_frequency_mhz > 1.5 * rc.max_frequency_mhz

    def test_interface_compatible(self):
        ks = build_kogge_stone_adder(8)
        rc = build_ripple_carry_adder(8)
        assert set(ks.inputs) == set(rc.inputs)
        assert set(ks.outputs) == set(rc.outputs)
