"""Property-based tests of timing invariants on random circuits.

These are the load-bearing correctness arguments of the simulation
substrate, checked on hypothesis-generated random DAG netlists rather
than the two paper circuits:

* the event-driven simulator settles to the zero-delay evaluation;
* no endpoint settles later than its STA arrival bound;
* recorded waveforms are consistent (parity, initial/final values);
* a snapshot stopped at its sample time reads the unstopped waveform;
* the calibrated fast model agrees with the gate-level simulator;
* ``.bench`` serialization round-trips functionally.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import Netlist, parse_bench, write_bench
from repro.timing import (
    TimedSimulator,
    analyze_timing,
    annotate_delays,
    endpoint_settle_times,
    endpoint_waveforms,
)
from repro.core.calibration import calibrate_endpoints

_GATE_TYPES = ["AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF"]


@st.composite
def random_netlist(draw):
    """A random acyclic netlist with 2-5 inputs and 3-25 gates."""
    num_inputs = draw(st.integers(2, 5))
    num_gates = draw(st.integers(3, 25))
    netlist = Netlist("random")
    nets = []
    for i in range(num_inputs):
        name = "i%d" % i
        netlist.add_input(name)
        nets.append(name)
    for g in range(num_gates):
        gate_type = draw(st.sampled_from(_GATE_TYPES))
        if gate_type in ("NOT", "BUF"):
            operands = [nets[draw(st.integers(0, len(nets) - 1))]]
        else:
            fanin = draw(st.integers(2, min(4, len(nets))))
            indices = draw(
                st.lists(
                    st.integers(0, len(nets) - 1),
                    min_size=fanin,
                    max_size=fanin,
                )
            )
            operands = [nets[i] for i in indices]
        name = "g%d" % g
        netlist.add_gate(name, gate_type, operands)
        nets.append(name)
    # Observe the last few gates as outputs.
    outputs = nets[-min(4, num_gates):]
    for net in outputs:
        netlist.add_output(net)
    return netlist.freeze()


@st.composite
def netlist_with_vectors(draw):
    netlist = draw(random_netlist())
    before = {
        net: draw(st.integers(0, 1)) for net in netlist.inputs
    }
    after = {net: draw(st.integers(0, 1)) for net in netlist.inputs}
    return netlist, before, after


class TestEventSimProperties:
    @settings(max_examples=60, deadline=None)
    @given(netlist_with_vectors())
    def test_settles_to_zero_delay_evaluation(self, case):
        netlist, before, after = case
        annotation = annotate_delays(netlist, seed=1)
        simulator = TimedSimulator(annotation)
        snapshot = simulator.run_transition(before, after, 1e12)
        expected = netlist.evaluate(after)
        for net in netlist.outputs:
            assert snapshot.values[net] == expected[net]

    @settings(max_examples=60, deadline=None)
    @given(netlist_with_vectors())
    def test_settle_times_bounded_by_sta(self, case):
        netlist, before, after = case
        annotation = annotate_delays(netlist, seed=2)
        report = analyze_timing(annotation)
        simulator = TimedSimulator(annotation)
        settle = endpoint_settle_times(
            simulator, before, after, netlist.outputs
        )
        for net in netlist.outputs:
            assert settle[net] <= report.arrival_ps[net] + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(netlist_with_vectors())
    def test_waveform_consistency(self, case):
        netlist, before, after = case
        annotation = annotate_delays(netlist, seed=3)
        simulator = TimedSimulator(annotation)
        history = endpoint_waveforms(
            simulator, before, after, netlist.outputs
        )
        initial = netlist.evaluate(before)
        final = netlist.evaluate(after)
        for net in netlist.outputs:
            events = history[net]
            values = [v for _, v in events]
            # Starts at the settled pre-transition value...
            assert values[0] == initial[net]
            # ...ends at the settled post-transition value...
            assert values[-1] == final[net]
            # ...every event is a genuine change...
            assert all(a != b for a, b in zip(values, values[1:]))
            # ...and times are strictly increasing after the sentinel.
            times = [t for t, _ in events[1:]]
            assert all(a < b or a == b for a, b in zip(times, times[1:]))

    @settings(max_examples=60, deadline=None)
    @given(netlist_with_vectors(), st.data())
    def test_stopped_snapshot_reads_unstopped_waveform(self, case, data):
        # The snapshot loop stops at the sample time; what it latches
        # must equal the full waveform's last edge strictly before it,
        # including at sample times that tie an edge exactly.
        netlist, before, after = case
        annotation = annotate_delays(netlist, seed=5)
        simulator = TimedSimulator(annotation)
        nets = list(netlist.evaluate(before))
        history = endpoint_waveforms(simulator, before, after, nets)
        edges = sorted({t for events in history.values() for t, _ in events})
        sample_time = data.draw(
            st.one_of(
                st.sampled_from(edges[1:] or [0.0]),
                st.floats(-1.0, max(edges[-1], 0.0) + 100.0),
            )
        )
        snapshot = simulator.run_transition(before, after, sample_time)
        for net in nets:
            latched = [v for t, v in history[net] if t < sample_time][-1]
            assert snapshot.values[net] == latched
            if snapshot.settled:
                assert history[net][-1][0] < sample_time

    @settings(max_examples=40, deadline=None)
    @given(netlist_with_vectors(), st.floats(0.8, 1.2))
    def test_fast_model_matches_gate_level(self, case, voltage):
        netlist, before, after = case
        annotation = annotate_delays(netlist, seed=4)
        sample_period = 300.0
        calibration = calibrate_endpoints(
            annotation, before, after, list(netlist.outputs), sample_period
        )
        simulator = TimedSimulator(annotation)
        snapshot = simulator.run_transition(
            before, after, sample_period, voltage=voltage
        )
        fast = calibration.sample_bits(np.array([voltage]))[0]
        slow = snapshot.outputs(list(netlist.outputs))
        assert fast.tolist() == slow


class TestBenchRoundtripProperty:
    @settings(max_examples=40, deadline=None)
    @given(netlist_with_vectors())
    def test_functional_roundtrip(self, case):
        netlist, before, _ = case
        reparsed = parse_bench(write_bench(netlist), "rt")
        assert reparsed.evaluate_outputs(before) == (
            netlist.evaluate_outputs(before)
        )
