"""Cross-module integration tests: the paper's storyline end to end."""

import pytest

from repro.core import REDUCTION_HW, REDUCTION_SINGLE_BIT
from repro.defense import (
    BitstreamChecker,
    TimingConstraints,
    strict_timing_check,
)
from repro.sensors import build_ro_netlist, build_tdc_netlist


class TestFullAttackPipeline:
    """Characterize -> collect -> reduce -> CPA, with the real sensor."""

    def test_benign_sensor_key_recovery(self, alu_campaign):
        """The headline result at reduced scale: the ALU sensor's
        correlation for the correct key must dominate clearly even
        before full disclosure."""
        result = alu_campaign.attack(60_000, reduction=REDUCTION_HW)
        ranks = result.key_ranks()
        # By 60k traces the correct key must be in the top ranks and
        # improving (full disclosure needs ~150k+ at paper scale).
        assert ranks[-1] < 8

    def test_single_bit_carries_signal(self, alu_campaign):
        result = alu_campaign.attack(
            60_000, reduction=REDUCTION_SINGLE_BIT
        )
        assert result.key_ranks()[-1] < 32

    def test_sensor_hierarchy(self, alu_campaign):
        """TDC needs orders of magnitude fewer traces than the benign
        sensor — the paper's central quantitative comparison."""
        tdc = alu_campaign.attack_with_tdc(20_000)
        assert tdc.disclosed
        assert tdc.measurements_to_disclosure() < 5_000


class TestStealthinessStory:
    """The reason the attack matters: checkers catch the old sensors
    but not the new one."""

    def test_checker_verdicts(self, alu_sensor, c6288_sensor):
        checker = BitstreamChecker()
        assert not checker.scan(build_ro_netlist()).accepted
        assert not checker.scan(build_tdc_netlist()).accepted
        for sensor in (alu_sensor, c6288_sensor):
            for instance in sensor.instances:
                report = checker.scan(instance.annotation.netlist)
                assert report.accepted, report.summary()

    def test_only_timing_check_catches_it(self, alu_sensor):
        instance = alu_sensor.instances[0]
        report = strict_timing_check(instance.annotation, 300.0)
        assert not report.accepted

    def test_false_paths_reopen_the_hole(self, alu_sensor):
        instance = alu_sensor.instances[0]
        rejected = strict_timing_check(instance.annotation, 300.0)
        evaded = strict_timing_check(
            instance.annotation,
            300.0,
            constraints=TimingConstraints.exempting(
                rejected.failing_endpoints
            ),
        )
        assert evaded.accepted


class TestCalibrationConsistency:
    def test_census_stable_across_recharacterization(self, alu_campaign):
        """Re-running characterization with the same campaign seed must
        reproduce the census exactly (the pipeline is deterministic)."""
        first = alu_campaign.characterization.census.summary()
        second = alu_campaign.characterize().census.summary()
        assert first == second
