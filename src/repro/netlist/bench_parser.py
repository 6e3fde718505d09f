"""ISCAS-85 ``.bench`` format reader and writer.

The ISCAS-85 benchmark circuits (including C6288, the multiplier the
paper misuses as a sensor) are traditionally distributed in the
``.bench`` netlist format::

    # c17
    INPUT(1)
    INPUT(2)
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)

This module converts between that format and :class:`repro.netlist.Netlist`.
The subset implemented covers the full ISCAS-85 suite: ``INPUT``/``OUTPUT``
declarations, gate assignments with the gate types known to
:mod:`repro.netlist.gates`, comments (``#``), and blank lines.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Tuple

from repro.netlist.netlist import Netlist

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    r"^([^=\s]+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(\s*([^)]*?)\s*\)$"
)


class BenchParseError(Exception):
    """Raised on malformed ``.bench`` input, with line information."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        self.reason = reason
        super().__init__(
            "line %d: %s (in %r)" % (line_number, reason, line.strip())
        )


def _logical_lines(text: str) -> Iterable[Tuple[int, str]]:
    """Yield (line_number, stripped_content) skipping blanks/comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse_bench(
    text: str, name: str = "bench", allow_cycles: bool = False
) -> Netlist:
    """Parse ``.bench`` text into a frozen :class:`Netlist`.

    Args:
        text: file contents.
        name: name given to the resulting netlist.
        allow_cycles: accept combinational loops (needed when loading
            untrusted designs for the defense scanner — a ring
            oscillator is malformed but must still be *representable*).

    Raises:
        BenchParseError: on syntax errors.
        NetlistError: on structural errors (cycles unless allowed,
            duplicate drivers...).
    """
    netlist = Netlist(name)
    pending_outputs: List[str] = []
    for number, line in _logical_lines(text):
        decl = _DECL_RE.match(line)
        if decl:
            kind, net = decl.group(1).upper(), decl.group(2)
            if kind == "INPUT":
                netlist.add_input(net)
            else:
                pending_outputs.append(net)
            continue
        gate = _GATE_RE.match(line)
        if gate:
            output, type_name, operand_text = gate.groups()
            operands = [
                token.strip()
                for token in operand_text.split(",")
                if token.strip()
            ]
            if not operands:
                raise BenchParseError(number, line, "gate with no inputs")
            try:
                netlist.add_gate(output, type_name, operands)
            except (KeyError, ValueError) as exc:
                raise BenchParseError(number, line, str(exc)) from exc
            continue
        raise BenchParseError(number, line, "unrecognized statement")
    for net in pending_outputs:
        netlist.add_output(net)
    return netlist.freeze(allow_cycles=allow_cycles)


def parse_bench_file(
    path: str, name: str = "", allow_cycles: bool = False
) -> Netlist:
    """Parse a ``.bench`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_bench(text, name or path, allow_cycles=allow_cycles)


def write_bench(netlist: Netlist, header: str = "") -> str:
    """Serialize a netlist to ``.bench`` text.

    The output round-trips through :func:`parse_bench` to an equivalent
    netlist (same I/O, same gates, topological order preserved).
    """
    lines: List[str] = []
    if header:
        for header_line in header.splitlines():
            lines.append("# %s" % header_line)
    lines.append("# netlist: %s" % netlist.name)
    for net in netlist.inputs:
        lines.append("INPUT(%s)" % net)
    for net in netlist.outputs:
        lines.append("OUTPUT(%s)" % net)
    for gate in netlist.gates:
        lines.append(
            "%s = %s(%s)"
            % (gate.output, gate.type_name, ", ".join(gate.inputs))
        )
    return "\n".join(lines) + "\n"
