"""Tests for ATPG-style stimuli search."""

import pytest

from repro.circuits import (
    AluStimulus,
    adder_input_assignment,
    build_alu,
    build_ripple_carry_adder,
)
from repro.core import (
    MaxEndpointDelay,
    WindowCoverage,
    find_activation_stimulus,
    stimulus_quality,
)
from repro.timing import annotate_delays


@pytest.fixture(scope="module")
def adder_annotation():
    return annotate_delays(build_ripple_carry_adder(8), seed=0)


class TestObjectives:
    def test_max_endpoint_delay(self):
        objective = MaxEndpointDelay("s3")
        assert objective.score({"s3": 450.0, "s4": 900.0}) == 450.0

    def test_window_coverage(self):
        objective = WindowCoverage(100.0, 200.0)
        assert objective.score({"a": 150.0, "b": 50.0, "c": 200.0}) == 2.0


class TestFindActivationStimulus:
    def test_finds_deep_activation_of_top_sum_bit(self, adder_annotation):
        endpoints = ["s%d" % i for i in range(8)]
        best = find_activation_stimulus(
            adder_annotation,
            endpoints,
            MaxEndpointDelay("s7"),
            attempts=24,
            refine_steps=48,
            seed=0,
        )
        # A random+greedy search must find a pattern that keeps s7
        # switching late: at least half the full carry chain depth.
        full_chain = stimulus_quality(
            adder_annotation,
            adder_input_assignment(0, 0, 8),
            adder_input_assignment(255, 1, 8),
            endpoints,
            0.0,
            1e9,
        )["max_settle_ps"]
        assert best.score >= 0.5 * full_chain

    def test_golden_search_result(self, adder_annotation):
        # Pins the settle times the search scores with, to the last bit.
        best = find_activation_stimulus(
            adder_annotation,
            ["s%d" % i for i in range(8)],
            MaxEndpointDelay("s7"),
            attempts=24,
            refine_steps=48,
            seed=0,
        )
        inputs = adder_annotation.netlist.inputs
        assert best.score == 2218.6605264590125
        assert "".join(str(best.reset_inputs[n]) for n in inputs) == (
            "01000001000111110"
        )
        assert "".join(str(best.measure_inputs[n]) for n in inputs) == (
            "00100000110111111"
        )

    def test_refinement_never_worsens(self, adder_annotation):
        endpoints = ["s%d" % i for i in range(8)]
        rough = find_activation_stimulus(
            adder_annotation, endpoints, MaxEndpointDelay("s7"),
            attempts=8, refine_steps=0, seed=1,
        )
        refined = find_activation_stimulus(
            adder_annotation, endpoints, MaxEndpointDelay("s7"),
            attempts=8, refine_steps=64, seed=1,
        )
        assert refined.score >= rough.score

    def test_attempts_validation(self, adder_annotation):
        with pytest.raises(ValueError):
            find_activation_stimulus(
                adder_annotation, ["s0"], MaxEndpointDelay("s0"), attempts=0
            )

    def test_candidate_carries_settle_times(self, adder_annotation):
        best = find_activation_stimulus(
            adder_annotation, ["s0", "s1"], MaxEndpointDelay("s1"),
            attempts=4, refine_steps=4, seed=2,
        )
        assert set(best.settle_times_ps) == {"s0", "s1"}


class TestStimulusQuality:
    def test_paper_stimulus_activates_all_alu_endpoints(self):
        alu = build_alu(16)
        annotation = annotate_delays(alu, seed=0)
        stimulus = AluStimulus(width=16)
        quality = stimulus_quality(
            annotation,
            stimulus.reset_inputs,
            stimulus.measure_inputs,
            stimulus.endpoint_nets,
            0.0,
            1e9,
        )
        assert quality["toggling"] == 16.0
        assert quality["max_settle_ps"] > 0
