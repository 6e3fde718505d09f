"""Tests for the event-driven timed simulator."""

import pytest

from repro.circuits import (
    adder_input_assignment,
    build_ripple_carry_adder,
)
from repro.netlist import Netlist, NetlistError
from repro.timing import (
    DelayAnnotation,
    DelayModel,
    TimedSimulator,
    annotate_delays,
    endpoint_settle_times,
    endpoint_waveforms,
)


def chain(depth):
    nl = Netlist("chain")
    nl.add_input("a")
    prev = "a"
    for i in range(depth):
        nl.add_gate("n%d" % i, "BUF", [prev])
        prev = "n%d" % i
    nl.add_output(prev)
    return nl.freeze()


def unit_ann(nl, delay=100.0):
    return DelayAnnotation(
        nl, {g.output: delay for g in nl.gates}, DelayModel()
    )


class TestRunTransition:
    def test_signal_propagates_with_delay(self):
        nl = chain(4)  # 400 ps total
        sim = TimedSimulator(unit_ann(nl))
        # Sample mid-flight: transition launched at t=0 reaches n1 at
        # 200 ps, n3 at 400 ps.
        snap = sim.run_transition({"a": 0}, {"a": 1}, 250.0)
        assert snap.values["n0"] == 1
        assert snap.values["n1"] == 1
        assert snap.values["n2"] == 0
        assert snap.values["n3"] == 0
        assert not snap.settled

    def test_full_settling(self):
        nl = chain(4)
        sim = TimedSimulator(unit_ann(nl))
        snap = sim.run_transition({"a": 0}, {"a": 1}, 1e6)
        assert snap.values["n3"] == 1
        assert snap.settled

    def test_no_change_no_events(self):
        nl = chain(2)
        sim = TimedSimulator(unit_ann(nl))
        snap = sim.run_transition({"a": 1}, {"a": 1}, 10.0)
        assert snap.settled
        assert snap.values["n1"] == 1

    def test_voltage_slows_propagation(self):
        nl = chain(4)
        sim = TimedSimulator(unit_ann(nl))
        nominal = sim.run_transition({"a": 0}, {"a": 1}, 350.0, voltage=1.0)
        drooped = sim.run_transition({"a": 0}, {"a": 1}, 350.0, voltage=0.85)
        # At nominal, the edge passed n2 (300 ps); under droop it did not.
        assert nominal.values["n2"] == 1
        assert drooped.values["n2"] == 0

    def test_multi_sample_snapshots(self):
        nl = chain(3)
        sim = TimedSimulator(unit_ann(nl))
        snaps = [
            sim.run_transition({"a": 0}, {"a": 1}, t)
            for t in [50.0, 150.0, 250.0, 1000.0]
        ]
        assert [s.values["n0"] for s in snaps] == [0, 1, 1, 1]
        assert [s.values["n2"] for s in snaps] == [0, 0, 0, 1]
        assert snaps[-1].settled

    def test_non_binary_input_rejected(self):
        nl = chain(1)
        sim = TimedSimulator(unit_ann(nl))
        with pytest.raises(ValueError):
            sim.run_transition({"a": 0}, {"a": 5}, 10.0)

    def test_outputs_helper(self):
        nl = chain(2)
        sim = TimedSimulator(unit_ann(nl))
        snap = sim.run_transition({"a": 0}, {"a": 1}, 1e6)
        assert snap.outputs(["n1"]) == [1]


class TestAdderCarryPropagation:
    """The paper's core mechanism: the carry frontier at the sample."""

    @pytest.fixture(scope="class")
    def sim(self):
        adder = build_ripple_carry_adder(16)
        return TimedSimulator(annotate_delays(adder, seed=1))

    def test_early_sample_catches_stale_ones(self, sim):
        reset = adder_input_assignment(0, 0, 16)
        measure = adder_input_assignment(2**16 - 1, 1, 16)
        early = sim.run_transition(reset, measure, 1500.0)
        late = sim.run_transition(reset, measure, 1e6)
        early_word = [early.values["s%d" % i] for i in range(16)]
        late_word = [late.values["s%d" % i] for i in range(16)]
        assert late_word == [0] * 16      # settled: 0xFFFF + 1 wraps to 0
        assert sum(early_word) > 0        # carry had not fully propagated

    def test_frontier_moves_with_voltage(self, sim):
        reset = adder_input_assignment(0, 0, 16)
        measure = adder_input_assignment(2**16 - 1, 1, 16)
        fast = sim.run_transition(reset, measure, 2000.0, voltage=1.1)
        slow = sim.run_transition(reset, measure, 2000.0, voltage=0.9)
        fast_hw = sum(fast.values["s%d" % i] for i in range(16))
        slow_hw = sum(slow.values["s%d" % i] for i in range(16))
        # Higher voltage -> carry travels farther -> fewer stale 1s.
        assert fast_hw <= slow_hw


class TestSettleTimes:
    def test_chain_settle_times(self):
        nl = chain(3)
        sim = TimedSimulator(unit_ann(nl))
        settle = endpoint_settle_times(
            sim, {"a": 0}, {"a": 1}, ["n0", "n2"]
        )
        assert settle["n0"] == pytest.approx(100.0)
        assert settle["n2"] == pytest.approx(300.0)

    def test_static_endpoint_has_zero_settle(self):
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_input("b")
        nl.add_gate("y", "AND", ["a", "b"])
        nl.add_output("y")
        nl.freeze()
        sim = TimedSimulator(unit_ann(nl))
        # b stays 0, so y never changes.
        settle = endpoint_settle_times(
            sim, {"a": 0, "b": 0}, {"a": 1, "b": 0}, ["y"]
        )
        assert settle["y"] == 0.0


class TestEndpointWaveforms:
    def test_waveform_records_all_edges(self):
        nl = chain(2)
        sim = TimedSimulator(unit_ann(nl))
        history = endpoint_waveforms(sim, {"a": 0}, {"a": 1}, ["n1"])
        events = history["n1"]
        assert events[0] == (float("-inf"), 0)
        assert events[1] == (pytest.approx(200.0), 1)

    def test_glitching_endpoint_has_multiple_edges(self):
        # y = XOR(a, delayed(a)) glitches 0->1->0 when a toggles.
        nl = Netlist("t")
        nl.add_input("a")
        nl.add_gate("d", "BUF", ["a"])
        nl.add_gate("y", "XOR", ["a", "d"])
        nl.add_output("y")
        nl.freeze()
        ann = DelayAnnotation(
            nl, {"d": 300.0, "y": 50.0}, DelayModel()
        )
        sim = TimedSimulator(ann)
        history = endpoint_waveforms(sim, {"a": 0}, {"a": 1}, ["y"])
        values = [v for _, v in history["y"]]
        assert values == [0, 1, 0]


class TestSampleTimeTieBreak:
    """A transition at exactly the sample time must not be latched.

    The capture register latches the value from strictly before the
    clock edge; an event scheduled at the sampling instant has not
    propagated through the register yet.
    """

    def test_exact_tie_keeps_pre_edge_value(self):
        nl = chain(2)  # n0 flips at 100 ps, n1 at 200 ps
        sim = TimedSimulator(unit_ann(nl))
        snap = sim.run_transition({"a": 0}, {"a": 1}, 100.0)
        assert snap.values["n0"] == 0
        assert snap.values["n1"] == 0

    def test_tie_vs_just_after(self):
        nl = chain(2)
        sim = TimedSimulator(unit_ann(nl))
        snapshots = [
            sim.run_transition({"a": 0}, {"a": 1}, t)
            for t in [100.0, 100.0 + 1e-6, 200.0]
        ]
        assert snapshots[0].values["n0"] == 0  # exact tie: stale
        assert snapshots[1].values["n0"] == 1  # just after: fresh
        assert snapshots[2].values["n1"] == 0  # tie again at 200 ps

    def test_tie_consistent_with_calibrated_model(self):
        # The calibrated sensor derives voltages from nominal times via
        # a continuous map, so exact ties are measure-zero there; this
        # pins the gate-level convention the simulator itself uses.
        nl = chain(3)
        sim = TimedSimulator(unit_ann(nl))
        snapshots = [
            sim.run_transition({"a": 0}, {"a": 1}, t)
            for t in [100.0, 200.0, 300.0]
        ]
        assert [s.values["n2"] for s in snapshots] == [0, 0, 0]
        settled = sim.run_transition({"a": 0}, {"a": 1}, 300.0 + 1e-6)
        assert settled.values["n2"] == 1


def _and_gate():
    nl = Netlist("t")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("y", "AND", ["a", "b"])
    nl.add_output("y")
    return nl.freeze()


_ENTRY_POINTS = {
    "run_transition": lambda sim, before, after: sim.run_transition(
        before, after, 1e6
    ),
    "endpoint_waveforms": lambda sim, before, after: endpoint_waveforms(
        sim, before, after, ["y"]
    ),
    "endpoint_settle_times": lambda sim, before, after: endpoint_settle_times(
        sim, before, after, ["y"]
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("stimulus", ["initial", "final"])
@pytest.mark.parametrize(
    "bad, error",
    [({"a": 5, "b": 1}, ValueError), ({"b": 1}, NetlistError)],
    ids=["non_binary", "missing"],
)
def test_stimulus_checked(entry, stimulus, bad, error):
    """Every entry point checks both stimuli as ``Netlist.evaluate`` does."""
    good = {"a": 0, "b": 1}
    pair = (bad, good) if stimulus == "initial" else (good, bad)
    sim = TimedSimulator(unit_ann(_and_gate()))
    with pytest.raises(error, match="input a"):
        _ENTRY_POINTS[entry](sim, *pair)
