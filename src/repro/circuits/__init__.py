"""Benign circuits misused as voltage sensors.

This package contains generator functions for the two circuits the
paper evaluates — the 192-bit ripple-carry-adder ALU and the ISCAS-85
C6288 16x16 array multiplier — plus generic ripple-carry adders and a
registry (:func:`get_circuit_spec`) binding each circuit to its
sensor stimuli.
"""

from repro.circuits.adder import (
    adder_input_assignment,
    build_ripple_carry_adder,
    full_adder,
    half_adder,
)
from repro.circuits.alu import (
    ALU_WIDTH,
    OP_ADD,
    OP_AND,
    OP_OR,
    OP_XOR,
    AluStimulus,
    alu_input_assignment,
    build_alu,
)
from repro.circuits.c6288 import (
    C6288_OPERAND_WIDTH,
    C6288_OUTPUT_WIDTH,
    C6288Stimulus,
    build_c6288,
    c6288_input_assignment,
)
from repro.circuits.kogge_stone import build_kogge_stone_adder
from repro.circuits.wallace import build_wallace_multiplier
from repro.circuits.library import (
    CircuitSpec,
    available_circuits,
    get_circuit_spec,
)

__all__ = [
    "ALU_WIDTH",
    "AluStimulus",
    "C6288_OPERAND_WIDTH",
    "C6288_OUTPUT_WIDTH",
    "C6288Stimulus",
    "CircuitSpec",
    "OP_ADD",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "adder_input_assignment",
    "alu_input_assignment",
    "available_circuits",
    "build_alu",
    "build_c6288",
    "build_kogge_stone_adder",
    "build_wallace_multiplier",
    "build_ripple_carry_adder",
    "c6288_input_assignment",
    "full_adder",
    "get_circuit_spec",
    "half_adder",
]
