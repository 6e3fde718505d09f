"""Registry of the benign circuits evaluated in the paper.

The experiment drivers select circuits by name (``"alu"`` / ``"c6288"``
/ ``"c6288x2"``); this registry bundles each circuit's netlist builder
with its reset/measure stimulus and observed endpoints, so every other
layer can stay circuit-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.circuits.alu import ALU_WIDTH, AluStimulus, build_alu
from repro.circuits.c6288 import (
    C6288_OPERAND_WIDTH,
    C6288Stimulus,
    build_c6288,
)
from repro.netlist.netlist import Netlist
from repro.util.memo import BuildOnce

#: Frozen netlists by circuit.  A netlist depends on no seed, and a
#: frozen one rejects mutation, so every instance and implementation
#: seed of a circuit shares one build.
_NETLISTS = BuildOnce()


def _built_once(
    name: str, build: Callable[[], Netlist]
) -> Callable[[], Netlist]:
    return lambda: _NETLISTS.get(name, build)  # type: ignore[return-value]


@dataclass(frozen=True)
class CircuitSpec:
    """A benign circuit plus the inputs that misuse it as a sensor.

    Attributes:
        name: registry key.
        description: one-line human description.
        build: zero-argument netlist factory; a registry spec's returns
            the circuit's one shared, frozen netlist.
        reset_inputs: input assignment for the reset cycle.
        measure_inputs: input assignment for the measure cycle.
        endpoint_nets: output nets observed as sensor bits, in the bit
            order used by all figures (index 0 = first sensor bit).
        instances: how many physical copies the experiment deploys
            (2 for the paper's C6288 setup).
    """

    name: str
    description: str
    build: Callable[[], Netlist]
    reset_inputs: Mapping[str, int]
    measure_inputs: Mapping[str, int]
    endpoint_nets: Tuple[str, ...]
    instances: int = 1

    @property
    def num_endpoints(self) -> int:
        """Total sensor bits across all instances."""
        return len(self.endpoint_nets) * self.instances


def _alu_spec() -> CircuitSpec:
    stimulus = AluStimulus(ALU_WIDTH)
    return CircuitSpec(
        name="alu",
        description="192-bit ripple-carry-adder ALU (paper Sec. IV)",
        build=_built_once("alu", lambda: build_alu(ALU_WIDTH)),
        reset_inputs=stimulus.reset_inputs,
        measure_inputs=stimulus.measure_inputs,
        endpoint_nets=tuple(stimulus.endpoint_nets),
        instances=1,
    )


def _c6288_spec(instances: int) -> CircuitSpec:
    stimulus = C6288Stimulus(C6288_OPERAND_WIDTH)
    suffix = "x%d" % instances if instances > 1 else ""
    return CircuitSpec(
        name="c6288%s" % suffix,
        description=(
            "%d x ISCAS-85 C6288 16x16 array multiplier (paper Sec. V-D)"
            % instances
        ),
        build=_built_once(
            "c6288", lambda: build_c6288(C6288_OPERAND_WIDTH)
        ),
        reset_inputs=stimulus.reset_inputs,
        measure_inputs=stimulus.measure_inputs,
        endpoint_nets=tuple(stimulus.endpoint_nets),
        instances=instances,
    )


def _wallace_spec() -> CircuitSpec:
    from repro.circuits.wallace import build_wallace_multiplier

    stimulus = C6288Stimulus(C6288_OPERAND_WIDTH)
    return CircuitSpec(
        name="wallace16",
        description=(
            "16x16 Wallace-tree multiplier (topology-study extension)"
        ),
        build=_built_once(
            "wallace16",
            lambda: build_wallace_multiplier(C6288_OPERAND_WIDTH),
        ),
        reset_inputs=stimulus.reset_inputs,
        measure_inputs=stimulus.measure_inputs,
        endpoint_nets=tuple(stimulus.endpoint_nets),
        instances=1,
    )


_REGISTRY: Dict[str, Callable[[], CircuitSpec]] = {
    "alu": _alu_spec,
    "c6288": lambda: _c6288_spec(1),
    "c6288x2": lambda: _c6288_spec(2),
    "wallace16": _wallace_spec,
}


def available_circuits() -> List[str]:
    """Names accepted by :func:`get_circuit_spec`."""
    return sorted(_REGISTRY)


def get_circuit_spec(name: str) -> CircuitSpec:
    """Look up a benign-circuit spec by registry name.

    >>> get_circuit_spec("alu").num_endpoints
    192
    >>> get_circuit_spec("c6288x2").num_endpoints
    64
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown circuit %r (available: %s)"
            % (name, ", ".join(available_circuits()))
        ) from None
    return factory()
