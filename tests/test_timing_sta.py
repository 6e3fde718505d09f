"""Tests for static timing analysis."""

import pytest

from repro.circuits import build_ripple_carry_adder
from repro.netlist import Netlist
from repro.timing import (
    DelayAnnotation,
    DelayModel,
    analyze_timing,
    annotate_delays,
)


def chain_netlist(depth):
    nl = Netlist("chain%d" % depth)
    nl.add_input("a")
    prev = "a"
    for i in range(depth):
        nl.add_gate("n%d" % i, "NOT", [prev])
        prev = "n%d" % i
    nl.add_output(prev)
    return nl.freeze()


def unit_annotation(nl):
    """Every gate gets exactly 100 ps."""
    return DelayAnnotation(
        nl, {g.output: 100.0 for g in nl.gates}, DelayModel()
    )


class TestAnalyzeTiming:
    def test_chain_arrival_times(self):
        nl = chain_netlist(5)
        report = analyze_timing(unit_annotation(nl))
        assert report.critical_delay_ps == pytest.approx(500.0)
        assert report.arrival_ps["n2"] == pytest.approx(300.0)

    def test_critical_path_nets(self):
        nl = chain_netlist(3)
        report = analyze_timing(unit_annotation(nl))
        assert report.critical_path.nets == ("a", "n0", "n1", "n2")
        assert report.critical_path.startpoint == "a"
        assert report.critical_path.depth == 3

    def test_max_frequency(self):
        nl = chain_netlist(10)  # 1 ns critical path
        report = analyze_timing(unit_annotation(nl))
        assert report.max_frequency_mhz == pytest.approx(1000.0)

    def test_adder_critical_path_is_carry_chain(self):
        adder = build_ripple_carry_adder(16)
        report = analyze_timing(annotate_delays(adder, seed=0))
        # The worst endpoint must be at the top of the carry chain.
        assert report.critical_path.endpoint in ("s15", "cout")

    def test_arrival_monotone_along_carry_chain(self):
        adder = build_ripple_carry_adder(16)
        report = analyze_timing(annotate_delays(adder, seed=0))
        arrivals = [report.endpoint_arrivals["s%d" % i] for i in range(16)]
        # Not strictly monotone because of routing scatter, but the top
        # bits must be much later than the bottom bits.
        assert arrivals[15] > arrivals[0]
        assert arrivals[15] > arrivals[4]


class TestSlack:
    def test_slack_and_failing_endpoints(self):
        nl = chain_netlist(5)  # 500 ps path
        report = analyze_timing(unit_annotation(nl), clock_period_ps=400.0)
        assert report.slack_ps("n4") == pytest.approx(-100.0)
        assert report.failing_endpoints() == ["n4"]

    def test_all_pass_at_slow_clock(self):
        nl = chain_netlist(5)
        report = analyze_timing(unit_annotation(nl), clock_period_ps=600.0)
        assert report.failing_endpoints() == []

    def test_slack_requires_period(self):
        nl = chain_netlist(2)
        report = analyze_timing(unit_annotation(nl))
        with pytest.raises(ValueError):
            report.slack_ps("n1")
        with pytest.raises(ValueError):
            report.failing_endpoints()
