"""Gate-level netlist substrate.

Provides the netlist graph (:class:`Netlist`), the primitive gate
library, the ISCAS-85 ``.bench`` parser/writer and a construction
helper.  All circuit-shaped objects in this library
(the ALU, C6288, TDC delay line, ring oscillators) are expressed as
netlists from this package.
"""

from repro.netlist.bench_parser import (
    BenchParseError,
    parse_bench,
    parse_bench_file,
    write_bench,
)
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import (
    GATE_TYPES,
    GateType,
    controlling_value,
    evaluate_gate,
    has_controlling_value,
    resolve_gate_type,
)
from repro.netlist.netlist import Gate, Netlist, NetlistError

__all__ = [
    "BenchParseError",
    "GATE_TYPES",
    "Gate",
    "GateType",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "controlling_value",
    "evaluate_gate",
    "has_controlling_value",
    "parse_bench",
    "parse_bench_file",
    "resolve_gate_type",
    "write_bench",
]
