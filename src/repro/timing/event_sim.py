"""Event-driven timed gate-level simulation.

This is the ground-truth model of the sensing mechanism.  Given

* a netlist with annotated per-gate delays,
* a supply voltage (assumed constant within one short clock cycle),
* the circuit's settled state under the *reset* stimulus, and
* the *measure* stimulus applied at ``t = 0``,

the simulator propagates transitions with voltage-scaled transport
delays and reports each net's value at the sampling instant — exactly
what an overclocked register bank latches on the early clock edge.
Endpoints whose final transition has not arrived by the sample time
latch a *stale* value; as the supply voltage moves, the set of stale
endpoints moves with it.  That is the improvised sensor.

One event loop serves every entry point.  It pops events in
``(time, seq)`` order and records the edges of the nets asked for.  A
waveform is that history, a settle time its last edge, and a snapshot
each net's last edge strictly before the sample time: an edge exactly
at the sample time is not latched (the tie rule).  The loop stops at
the first popped event at or after the sample time; a snapshot is
``settled`` only when the queue drained first (the stop rule).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.timing.delay_model import DelayAnnotation

History = Dict[str, List[Tuple[float, int]]]


@dataclass
class TimedSnapshot:
    """Values of all nets at one sampling instant.

    Attributes:
        time_ps: sampling time relative to the input change.
        values: net name -> 0/1 value at ``time_ps``.
        settled: True when no further events were pending.
    """

    time_ps: float
    values: Dict[str, int]
    settled: bool

    def outputs(self, nets: Sequence[str]) -> List[int]:
        """Values of the given nets, in order."""
        return [self.values[net] for net in nets]


class TimedSimulator:
    """Event-driven simulator for one annotated netlist.

    The simulator is reusable: each :meth:`run_transition` call plays
    one reset→measure cycle at a given supply voltage.

    Example:
        >>> from repro.circuits import build_ripple_carry_adder
        >>> from repro.circuits import adder_input_assignment
        >>> from repro.timing import annotate_delays
        >>> nl = build_ripple_carry_adder(8)
        >>> sim = TimedSimulator(annotate_delays(nl))
        >>> snap = sim.run_transition(
        ...     adder_input_assignment(0, 0, 8),
        ...     adder_input_assignment(255, 1, 8),
        ...     sample_time_ps=1e9)  # effectively: wait until settled
        >>> [snap.values['s%d' % i] for i in range(8)] == [0] * 8
        True
    """

    def __init__(self, annotation: DelayAnnotation):
        self._annotation = annotation
        self._netlist = annotation.netlist
        if not self._netlist.frozen:
            raise ValueError("netlist must be frozen")

    def run_transition(
        self,
        initial_inputs: Mapping[str, int],
        final_inputs: Mapping[str, int],
        sample_time_ps: float,
        voltage: float = 1.0,
    ) -> TimedSnapshot:
        """Simulate one input transition and sample at ``sample_time_ps``.

        Args:
            initial_inputs: settled input assignment before ``t=0``.
            final_inputs: input assignment applied at ``t=0``.
            sample_time_ps: when the capturing registers latch.
            voltage: supply voltage during this cycle; all gate delays
                are scaled by the annotation's delay model.

        Returns:
            snapshot of all net values at the sampling instant.
        """
        history, settled = self._propagate(
            initial_inputs, final_inputs, None, voltage, sample_time_ps
        )
        # The loop stopped before any edge at or after the sample time.
        values = {net: edges[-1][1] for net, edges in history.items()}
        return TimedSnapshot(sample_time_ps, values, settled)

    def _propagate(
        self,
        initial_inputs: Mapping[str, int],
        final_inputs: Mapping[str, int],
        nets: Optional[Sequence[str]],
        voltage: float,
        stop_ps: float = math.inf,
    ) -> Tuple[History, bool]:
        """Edge history of ``nets`` (None: all), and if the queue drained."""
        netlist = self._netlist
        delay_ps = self._annotation.gate_delay_ps
        factor = self._annotation.model.delay_factor(voltage)
        values = netlist.evaluate(initial_inputs)
        final = netlist.check_inputs(final_inputs)
        names = values if nets is None else nets
        history: History = {net: [(-math.inf, values[net])] for net in names}
        counter = itertools.count()
        queue: List[Tuple[float, int, str, int]] = []
        for net, value in final.items():
            if value != values[net]:
                heapq.heappush(queue, (0.0, next(counter), net, value))
        while queue:
            time_ps, _, net, value = heapq.heappop(queue)
            if time_ps >= stop_ps:
                return history, False
            if values[net] == value:
                continue
            values[net] = value
            if net in history:
                history[net].append((time_ps, value))
            for consumer in netlist.fanout_of(net):
                gate = netlist.gate_driving(consumer)
                operands = [values[n] for n in gate.inputs]
                new_out = gate.gate_type.evaluate(operands)
                delay = delay_ps[consumer] * factor
                heapq.heappush(
                    queue, (time_ps + delay, next(counter), consumer, new_out)
                )
        return history, True


def endpoint_waveforms(
    simulator: TimedSimulator,
    initial_inputs: Mapping[str, int],
    final_inputs: Mapping[str, int],
    endpoints: Sequence[str],
    voltage: float = 1.0,
) -> History:
    """Full transition history of each endpoint for one stimulus pair.

    Returns, per endpoint, the list ``[(t0, v0), (t1, v1), ...]`` where
    ``(t, v)`` means "the endpoint changed to value v at time t"; the
    first entry is ``(-inf, initial_value)``.  Because all gate delays
    share one voltage scaling factor, the waveform at any other supply
    voltage is this waveform with time multiplied by
    ``delay_factor(v) / delay_factor(v_ref)`` — the property the fast
    calibrated sensor model in :mod:`repro.core.calibration` exploits.
    """
    return simulator._propagate(
        initial_inputs, final_inputs, endpoints, voltage
    )[0]


def endpoint_settle_times(
    simulator: TimedSimulator,
    initial_inputs: Mapping[str, int],
    final_inputs: Mapping[str, int],
    endpoints: Sequence[str],
    voltage: float = 1.0,
) -> Dict[str, float]:
    """Time of each endpoint's **last** transition for one stimulus pair.

    This is the dynamic analogue of an STA arrival time: it accounts for
    which paths the stimulus actually activates.  Endpoints that never
    toggle get settle time 0.  The calibration layer converts these
    times into latch-threshold voltages.
    """
    history = endpoint_waveforms(
        simulator, initial_inputs, final_inputs, endpoints, voltage
    )
    return {net: max(edges[-1][0], 0.0) for net, edges in history.items()}
