"""The benign 192-bit ALU used as a stealthy voltage sensor.

This mirrors the paper's first proof-of-concept circuit (Sec. IV): an
ALU whose datapath contains a 192-bit ripple-carry adder.  The ALU is a
perfectly ordinary design — it computes ADD / AND / OR / XOR selected by
a 2-bit opcode — and that ordinariness is the point: no bitstream
checker flags it, yet overclocked it doubles as a voltage sensor.

Opcode encoding (``op1 op0``): ``00`` ADD, ``01`` AND, ``10`` OR,
``11`` XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.circuits.adder import full_adder
from repro.netlist.builder import NetlistBuilder
from repro.netlist.netlist import Netlist

#: Datapath width of the paper's ALU.
ALU_WIDTH = 192

OP_ADD = 0
OP_AND = 1
OP_OR = 2
OP_XOR = 3

_OP_NAMES = {OP_ADD: "ADD", OP_AND: "AND", OP_OR: "OR", OP_XOR: "XOR"}


def build_alu(width: int = ALU_WIDTH, name: str = "") -> Netlist:
    """Build the n-bit ALU netlist.

    Primary inputs: ``a0..``, ``b0..`` (operands), ``op0``, ``op1``
    (opcode), ``cin`` (adder carry-in).
    Primary outputs: ``r0..r{n-1}`` (result, little endian) and
    ``cout`` (adder carry-out).

    The result word has exactly ``width`` bits; for ``width=192`` these
    are the 192 path endpoints censused in Fig. 7 of the paper.
    """
    if width < 2:
        raise ValueError("ALU width must be >= 2, got %d" % width)
    builder = NetlistBuilder(name or "alu%d" % width)
    a_bus = builder.input_bus("a", width)
    b_bus = builder.input_bus("b", width)
    op0 = builder.input("op0")
    op1 = builder.input("op1")
    carry = builder.input("cin")

    results: List[str] = []
    for i in range(width):
        a, b = a_bus[i], b_bus[i]
        add_sum, carry = full_adder(builder, a, b, carry, "fa%d" % i)
        and_i = builder.gate("AND", [a, b], hint="and%d" % i)
        or_i = builder.gate("OR", [a, b], hint="or%d" % i)
        xor_i = builder.gate("XOR", [a, b], hint="xor%d" % i)
        low = builder.gate("MUX", [op0, add_sum, and_i], hint="mlo%d" % i)
        high = builder.gate("MUX", [op0, or_i, xor_i], hint="mhi%d" % i)
        results.append(
            builder.gate("MUX", [op1, low, high], output="r%d" % i)
        )
    cout = builder.gate("BUF", [carry], output="cout")
    builder.mark_outputs(results + [cout])
    return builder.build()


def alu_input_assignment(
    a_value: int,
    b_value: int,
    opcode: int = OP_ADD,
    carry_in: int = 0,
    width: int = ALU_WIDTH,
) -> Dict[str, int]:
    """Input-value mapping driving a :func:`build_alu` netlist.

    >>> nl = build_alu(8)
    >>> out = nl.evaluate_outputs(alu_input_assignment(200, 56, width=8))
    >>> sum(out['r%d' % i] << i for i in range(8)), out['cout']
    (0, 1)
    """
    if opcode not in _OP_NAMES:
        raise ValueError("opcode must be 0..3, got %r" % (opcode,))
    values = {
        "op0": opcode & 1,
        "op1": (opcode >> 1) & 1,
        "cin": carry_in,
    }
    for i in range(width):
        values["a%d" % i] = (a_value >> i) & 1
        values["b%d" % i] = (b_value >> i) & 1
    return values


@dataclass(frozen=True)
class AluStimulus:
    """A reset/measure stimulus pair for the ALU sensor (Sec. III).

    The *measure* pattern ``A = 2**n - 1, B = 1`` makes the carry ripple
    through all n stages; read before settling, the sum word encodes how
    far the carry travelled, i.e. the instantaneous gate speed.  The
    *reset* pattern returns every endpoint to a known value so the next
    measurement observes fresh transitions.
    """

    width: int = ALU_WIDTH

    @property
    def reset_inputs(self) -> Dict[str, int]:
        return alu_input_assignment(0, 0, OP_ADD, 0, self.width)

    @property
    def measure_inputs(self) -> Dict[str, int]:
        return alu_input_assignment(
            (1 << self.width) - 1, 1, OP_ADD, 0, self.width
        )

    @property
    def endpoint_nets(self) -> List[str]:
        """The result-word endpoints observed as sensor bits."""
        return ["r%d" % i for i in range(self.width)]
