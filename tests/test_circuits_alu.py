"""Tests for the 192-bit ALU benign circuit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    ALU_WIDTH,
    OP_ADD,
    OP_AND,
    OP_OR,
    OP_XOR,
    AluStimulus,
    alu_input_assignment,
    build_alu,
)


def run_alu(nl, a, b, op, width, cin=0):
    out = nl.evaluate_outputs(alu_input_assignment(a, b, op, cin, width))
    result = sum(out["r%d" % i] << i for i in range(width))
    return result, out["cout"]


class TestAluFunction:
    @pytest.fixture(scope="class")
    def alu8(self):
        return build_alu(8)

    def test_add(self, alu8):
        result, cout = run_alu(alu8, 200, 100, OP_ADD, 8)
        assert result == (200 + 100) & 0xFF
        assert cout == 1

    def test_add_with_carry_in(self, alu8):
        result, _ = run_alu(alu8, 1, 1, OP_ADD, 8, cin=1)
        assert result == 3

    def test_and(self, alu8):
        assert run_alu(alu8, 0b1100, 0b1010, OP_AND, 8)[0] == 0b1000

    def test_or(self, alu8):
        assert run_alu(alu8, 0b1100, 0b1010, OP_OR, 8)[0] == 0b1110

    def test_xor(self, alu8):
        assert run_alu(alu8, 0b1100, 0b1010, OP_XOR, 8)[0] == 0b0110

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 255),
        st.integers(0, 255),
        st.sampled_from([OP_ADD, OP_AND, OP_OR, OP_XOR]),
    )
    def test_random_against_python(self, a, b, op):
        alu = build_alu(8)
        expected = {
            OP_ADD: (a + b) & 0xFF,
            OP_AND: a & b,
            OP_OR: a | b,
            OP_XOR: a ^ b,
        }[op]
        assert run_alu(alu, a, b, op, 8)[0] == expected

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            build_alu(1)

    def test_rejects_bad_opcode(self):
        with pytest.raises(ValueError):
            alu_input_assignment(0, 0, 7, width=8)


class TestAluShape:
    def test_default_width_matches_paper(self):
        assert ALU_WIDTH == 192

    def test_full_alu_output_count(self):
        nl = build_alu()
        result_bits = [n for n in nl.outputs if n.startswith("r")]
        assert len(result_bits) == 192

    def test_input_count(self):
        nl = build_alu(8)
        # 2 operands x 8 + op0/op1 + cin
        assert len(nl.inputs) == 19


class TestAluStimulus:
    def test_measure_pattern_is_paper_pattern(self):
        stim = AluStimulus(width=8)
        measure = stim.measure_inputs
        assert all(measure["a%d" % i] == 1 for i in range(8))
        assert measure["b0"] == 1
        assert all(measure["b%d" % i] == 0 for i in range(1, 8))
        assert measure["op0"] == 0 and measure["op1"] == 0

    def test_reset_settles_to_zero(self):
        stim = AluStimulus(width=8)
        nl = build_alu(8)
        out = nl.evaluate_outputs(stim.reset_inputs)
        assert all(out["r%d" % i] == 0 for i in range(8))

    def test_measure_settles_to_zero_with_carry_out(self):
        # A + B = 2^n: all result bits 0, carry out 1.
        stim = AluStimulus(width=8)
        nl = build_alu(8)
        out = nl.evaluate_outputs(stim.measure_inputs)
        assert all(out["r%d" % i] == 0 for i in range(8))
        assert out["cout"] == 1

    def test_endpoints_are_result_bits(self):
        stim = AluStimulus(width=4)
        assert stim.endpoint_nets == ["r0", "r1", "r2", "r3"]
