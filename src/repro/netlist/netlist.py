"""Combinational netlist graph with topological evaluation.

A :class:`Netlist` is a named directed acyclic graph of primitive gates
(see :mod:`repro.netlist.gates`) between primary inputs and primary
outputs.  It is the shared representation consumed by:

* the zero-delay functional evaluator (:meth:`Netlist.evaluate`),
* the static timing analyzer (:mod:`repro.timing.sta`),
* the event-driven timed simulator (:mod:`repro.timing.event_sim`),
* the defense checker (:mod:`repro.defense`), and
* the ``.bench`` serializer (:mod:`repro.netlist.bench_parser`).

Netlists are append-only while being built and then :meth:`freeze`-d,
which validates the structure and caches the topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.netlist.gates import GateType, resolve_gate_type


class NetlistError(Exception):
    """Structural problem in a netlist (cycle, dangling net, ...)."""


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = type(inputs)``.

    The output net name doubles as the gate name, matching the ISCAS-85
    ``.bench`` convention where every line defines the signal it drives.
    """

    output: str
    gate_type: GateType
    inputs: Tuple[str, ...]

    @property
    def type_name(self) -> str:
        return self.gate_type.name


class Netlist:
    """A combinational gate-level netlist.

    Args:
        name: identifier used in reports and serialized files.

    Example:
        >>> nl = Netlist("toy")
        >>> nl.add_input("a"); nl.add_input("b")
        >>> nl.add_gate("y", "XOR", ["a", "b"])
        >>> nl.add_output("y")
        >>> nl.freeze()
        >>> nl.evaluate({"a": 1, "b": 0})["y"]
        1
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("netlist name must be non-empty")
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._frozen = False
        self._topo_order: Optional[List[Gate]] = None
        self._fanout: Optional[Dict[str, List[str]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _require_mutable(self) -> None:
        if self._frozen:
            raise NetlistError("netlist %s is frozen" % self.name)

    def add_input(self, net: str) -> None:
        """Declare ``net`` as a primary input."""
        self._require_mutable()
        if net in self._gates:
            raise NetlistError("net %s already driven by a gate" % net)
        if net in self._inputs:
            raise NetlistError("duplicate primary input %s" % net)
        self._inputs.append(net)

    def add_output(self, net: str) -> None:
        """Declare ``net`` as a primary output (may also feed gates)."""
        self._require_mutable()
        if net in self._outputs:
            raise NetlistError("duplicate primary output %s" % net)
        self._outputs.append(net)

    def add_gate(
        self, output: str, type_name: str, inputs: Sequence[str]
    ) -> None:
        """Add a gate driving ``output`` from ``inputs``."""
        self._require_mutable()
        gate_type = resolve_gate_type(type_name)
        gate_type.check_arity(len(inputs))
        if output in self._gates:
            raise NetlistError("net %s already driven" % output)
        if output in self._inputs:
            raise NetlistError("net %s is a primary input" % output)
        self._gates[output] = Gate(output, gate_type, tuple(inputs))

    def freeze(self, allow_cycles: bool = False) -> "Netlist":
        """Validate structure, compute topological order, lock the netlist.

        Returns ``self`` for chaining.  Raises :class:`NetlistError` on
        combinational cycles (unless ``allow_cycles``), undriven nets,
        or outputs without drivers.

        ``allow_cycles=True`` exists for *representing* malicious
        structures such as ring oscillators so the defense scanner can
        inspect them; cyclic netlists cannot be evaluated.
        """
        if self._frozen:
            return self
        driven = set(self._inputs) | set(self._gates)
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in driven:
                    raise NetlistError(
                        "gate %s reads undriven net %s" % (gate.output, net)
                    )
        for net in self._outputs:
            if net not in driven:
                raise NetlistError("primary output %s is undriven" % net)
        if allow_cycles:
            try:
                self._topo_order = self._topological_order()
            except NetlistError:
                self._topo_order = None
        else:
            self._topo_order = self._topological_order()
        fanout: Dict[str, List[str]] = {net: [] for net in driven}
        for gate in self._gates.values():
            for net in gate.inputs:
                fanout[net].append(gate.output)
        self._fanout = fanout
        self._frozen = True
        return self

    def _topological_order(self) -> List[Gate]:
        """Kahn's algorithm over the gate graph; raises on cycles."""
        indegree: Dict[str, int] = {}
        for gate in self._gates.values():
            indegree[gate.output] = sum(
                1 for net in gate.inputs if net in self._gates
            )
        ready = [out for out, deg in indegree.items() if deg == 0]
        # Keep deterministic order: sort initial frontier once.
        ready.sort()
        order: List[Gate] = []
        consumers: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            for net in gate.inputs:
                if net in self._gates:
                    consumers.setdefault(net, []).append(gate.output)
        while ready:
            net = ready.pop()
            order.append(self._gates[net])
            for consumer in consumers.get(net, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._gates):
            remaining = sorted(set(self._gates) - {g.output for g in order})
            raise NetlistError(
                "combinational cycle involving nets: %s"
                % ", ".join(remaining[:8])
            )
        return order

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def has_cycles(self) -> bool:
        """True for a frozen netlist containing combinational loops."""
        return self._frozen and self._topo_order is None

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input net names in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output net names in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates; topological order once frozen."""
        if self._frozen and self._topo_order is not None:
            return tuple(self._topo_order)
        return tuple(self._gates.values())

    def gate_driving(self, net: str) -> Optional[Gate]:
        """The gate whose output is ``net``, or None for primary inputs."""
        return self._gates.get(net)

    def fanout_of(self, net: str) -> Tuple[str, ...]:
        """Output nets of the gates that read ``net`` (frozen only)."""
        if not self._frozen or self._fanout is None:
            raise NetlistError("fanout_of requires a frozen netlist")
        return tuple(self._fanout.get(net, ()))

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def stats(self) -> Dict[str, int]:
        """Gate-count statistics by type plus I/O counts."""
        counts: Dict[str, int] = {}
        for gate in self._gates.values():
            counts[gate.type_name] = counts.get(gate.type_name, 0) + 1
        counts["__inputs__"] = len(self._inputs)
        counts["__outputs__"] = len(self._outputs)
        counts["__gates__"] = len(self._gates)
        return counts

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def check_inputs(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """The primary-input values of an assignment, checked.

        Raises:
            NetlistError: an input has no value.
            ValueError: a value is not 0 or 1.
        """
        values: Dict[str, int] = {}
        for net in self._inputs:
            try:
                value = input_values[net]
            except KeyError:
                raise NetlistError("missing value for input %s" % net)
            if value not in (0, 1):
                raise ValueError("input %s must be 0/1, got %r" % (net, value))
            values[net] = value
        return values

    def evaluate(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Zero-delay functional evaluation.

        Args:
            input_values: value (0/1) for every primary input.

        Returns:
            values of **all** nets, including internal ones.
        """
        if not self._frozen or self._topo_order is None:
            raise NetlistError("evaluate requires a frozen netlist")
        values = self.check_inputs(input_values)
        for gate in self._topo_order:
            operands = [values[net] for net in gate.inputs]
            values[gate.output] = gate.gate_type.evaluate(operands)
        return values

    def evaluate_outputs(
        self, input_values: Mapping[str, int]
    ) -> Dict[str, int]:
        """Like :meth:`evaluate` but restricted to primary outputs."""
        values = self.evaluate(input_values)
        return {net: values[net] for net in self._outputs}

    def logic_depth(self) -> Dict[str, int]:
        """Gate-count depth of every net (inputs have depth 0)."""
        if not self._frozen or self._topo_order is None:
            raise NetlistError("logic_depth requires a frozen netlist")
        depth: Dict[str, int] = {net: 0 for net in self._inputs}
        for gate in self._topo_order:
            depth[gate.output] = 1 + max(
                (depth[net] for net in gate.inputs), default=0
            )
        return depth

    def __repr__(self) -> str:
        return "Netlist(%r, inputs=%d, outputs=%d, gates=%d)" % (
            self.name,
            len(self._inputs),
            len(self._outputs),
            len(self._gates),
        )
