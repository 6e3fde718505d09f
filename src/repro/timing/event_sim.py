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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.timing.delay_model import DelayAnnotation


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

    @property
    def annotation(self) -> DelayAnnotation:
        return self._annotation

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
        snapshots = self.run_transition_multi(
            initial_inputs, final_inputs, [sample_time_ps], voltage
        )
        return snapshots[0]

    def run_transition_multi(
        self,
        initial_inputs: Mapping[str, int],
        final_inputs: Mapping[str, int],
        sample_times_ps: Sequence[float],
        voltage: float = 1.0,
    ) -> List[TimedSnapshot]:
        """Like :meth:`run_transition` for several sample times at once.

        ``sample_times_ps`` must be sorted ascending.  A single event
        propagation serves all snapshots, which the calibration sweep
        uses to trace an endpoint's settling behaviour cheaply.
        """
        if not sample_times_ps:
            raise ValueError("need at least one sample time")
        if any(
            b < a for a, b in zip(sample_times_ps, sample_times_ps[1:])
        ):
            raise ValueError("sample times must be sorted ascending")
        netlist = self._netlist
        factor = self._annotation.model.delay_factor(voltage)

        values = netlist.evaluate(initial_inputs)
        counter = itertools.count()
        queue: List[Tuple[float, int, str, int]] = []

        # Apply the new input values at t = 0.
        for net in netlist.inputs:
            new_value = final_inputs[net]
            if new_value not in (0, 1):
                raise ValueError(
                    "input %s must be 0/1, got %r" % (net, new_value)
                )
            if new_value != values[net]:
                heapq.heappush(queue, (0.0, next(counter), net, new_value))

        snapshots: List[TimedSnapshot] = []
        sample_iter = iter(sample_times_ps)
        next_sample = next(sample_iter)

        def take_snapshots_up_to(event_time: float) -> None:
            """Emit snapshots for all sample times at or before ``event_time``.

            The comparison is inclusive: a transition scheduled exactly
            at a sample time has *not* propagated through the capture
            register yet, so the latch observes the value from strictly
            before the clock edge.  (With a strict ``<`` an exact-tie
            event would be applied first and wrongly counted as
            latched.)
            """
            nonlocal next_sample
            while next_sample is not None and next_sample <= event_time:
                snapshots.append(
                    TimedSnapshot(next_sample, dict(values), settled=False)
                )
                next_sample = next(sample_iter, None)

        while queue:
            time_ps, _, net, value = heapq.heappop(queue)
            take_snapshots_up_to(time_ps)
            if next_sample is None:
                break
            if values[net] == value:
                continue
            values[net] = value
            for consumer in netlist.fanout_of(net):
                gate = netlist.gate_driving(consumer)
                operands = [values[n] for n in gate.inputs]
                new_out = gate.gate_type.evaluate(operands)
                delay = self._annotation.gate_delay_ps[consumer] * factor
                heapq.heappush(
                    queue, (time_ps + delay, next(counter), consumer, new_out)
                )

        settled = not queue
        while next_sample is not None:
            snapshots.append(
                TimedSnapshot(next_sample, dict(values), settled=settled)
            )
            next_sample = next(sample_iter, None)
        return snapshots

    def settled_outputs(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Zero-delay settled output values (convenience wrapper)."""
        return self._netlist.evaluate_outputs(inputs)


def endpoint_waveforms(
    simulator: TimedSimulator,
    initial_inputs: Mapping[str, int],
    final_inputs: Mapping[str, int],
    endpoints: Sequence[str],
    voltage: float = 1.0,
) -> Dict[str, List[Tuple[float, int]]]:
    """Full transition history of each endpoint for one stimulus pair.

    Returns, per endpoint, the list ``[(t0, v0), (t1, v1), ...]`` where
    ``(t, v)`` means "the endpoint changed to value v at time t"; the
    first entry is ``(-inf, initial_value)``.  Because all gate delays
    share one voltage scaling factor, the waveform at any other supply
    voltage is this waveform with time multiplied by
    ``delay_factor(v) / delay_factor(v_ref)`` — the property the fast
    calibrated sensor model in :mod:`repro.core.calibration` exploits.
    """
    netlist = simulator.annotation.netlist
    factor = simulator.annotation.model.delay_factor(voltage)

    values = netlist.evaluate(initial_inputs)
    history: Dict[str, List[Tuple[float, int]]] = {
        net: [(float("-inf"), values[net])] for net in endpoints
    }
    endpoint_set = set(endpoints)
    counter = itertools.count()
    queue: List[Tuple[float, int, str, int]] = []
    for net in netlist.inputs:
        if final_inputs[net] != values[net]:
            heapq.heappush(queue, (0.0, next(counter), net, final_inputs[net]))
    while queue:
        time_ps, _, net, value = heapq.heappop(queue)
        if values[net] == value:
            continue
        values[net] = value
        if net in endpoint_set:
            history[net].append((time_ps, value))
        for consumer in netlist.fanout_of(net):
            gate = netlist.gate_driving(consumer)
            operands = [values[n] for n in gate.inputs]
            new_out = gate.gate_type.evaluate(operands)
            delay = simulator.annotation.gate_delay_ps[consumer] * factor
            heapq.heappush(
                queue, (time_ps + delay, next(counter), consumer, new_out)
            )
    return history


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
    netlist = simulator.annotation.netlist
    factor = simulator.annotation.model.delay_factor(voltage)

    values = netlist.evaluate(initial_inputs)
    counter = itertools.count()
    queue: List[Tuple[float, int, str, int]] = []
    for net in netlist.inputs:
        if final_inputs[net] != values[net]:
            heapq.heappush(queue, (0.0, next(counter), net, final_inputs[net]))

    last_change: Dict[str, float] = {net: 0.0 for net in endpoints}
    endpoint_set = set(endpoints)
    while queue:
        time_ps, _, net, value = heapq.heappop(queue)
        if values[net] == value:
            continue
        values[net] = value
        if net in endpoint_set:
            last_change[net] = time_ps
        for consumer in netlist.fanout_of(net):
            gate = netlist.gate_driving(consumer)
            operands = [values[n] for n in gate.inputs]
            new_out = gate.gate_type.evaluate(operands)
            delay = simulator.annotation.gate_delay_ps[consumer] * factor
            heapq.heappush(
                queue, (time_ps + delay, next(counter), consumer, new_out)
            )
    return last_change
