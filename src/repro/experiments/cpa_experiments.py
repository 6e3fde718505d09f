"""CPA key-recovery experiments (paper Sec. V-B/C/D, Figs. 9-13/17/18).

Each driver runs one figure's attack and returns a
:class:`CPAExperimentOutcome` carrying the correlation-progress data
(the paper's subfigure (b)), the final per-candidate correlations
(subfigure (a)) and the measurements-to-disclosure headline number.

Benign-sensor figures (10/12/13/17/18) run through the sharded
campaign driver (:func:`repro.experiments.parallel.sharded_attack`),
honouring ``config.max_workers``; the result is bit-identical to the
serial :meth:`AttackCampaign.attack` path.  The TDC/RO baselines keep
the serial path — their sensors draw a single whole-campaign noise
stream that is not partitionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.attacks.cpa import CPAResult
from repro.attacks.metrics import summarize
from repro.core.attack import REDUCTION_HW, REDUCTION_SINGLE_BIT
from repro.experiments.parallel import sharded_attack
from repro.experiments.setup import ExperimentSetup


@dataclass
class CPAExperimentOutcome:
    """Result record of one CPA figure.

    Attributes:
        figure: figure identifier (``"fig10"``...).
        label: human-readable description of the sensor configuration.
        result: the full CPA result (progress + final correlations).
        sensor_bit: endpoint/tap index for single-bit experiments.
    """

    figure: str
    label: str
    result: CPAResult
    sensor_bit: Optional[int] = None

    @property
    def mtd(self) -> Optional[int]:
        return self.result.measurements_to_disclosure()

    @property
    def disclosed(self) -> bool:
        return self.result.disclosed

    def summary_row(self) -> Dict[str, object]:
        """One row for the EXPERIMENTS.md table."""
        summary = summarize(self.figure, self.result)
        return {
            "figure": self.figure,
            "label": self.label,
            "num_traces": summary.num_traces,
            "disclosed": summary.disclosed,
            "mtd": summary.mtd,
            "final_margin": round(summary.final_margin, 4),
            "sensor_bit": self.sensor_bit,
        }


def fig09_cpa_tdc(setup: ExperimentSetup) -> CPAExperimentOutcome:
    """Fig. 9: CPA with the full TDC readout."""
    result = setup.campaign("alu").attack_with_tdc(
        setup.config.num_traces,
        tdc=setup.tdc,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
    )
    return CPAExperimentOutcome("fig09", "TDC, decoded readout", result)


def fig10_cpa_alu(setup: ExperimentSetup) -> CPAExperimentOutcome:
    """Fig. 10: CPA with the ALU Hamming-weight sensor."""
    result = sharded_attack(
        setup.campaign("alu"),
        setup.config.num_traces,
        reduction=REDUCTION_HW,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
        max_workers=setup.config.max_workers,
    )
    return CPAExperimentOutcome(
        "fig10", "ALU @300 MHz, HW of sensitive bits", result
    )


def fig11_cpa_tdc_single(
    setup: ExperimentSetup, bit: int = 32
) -> CPAExperimentOutcome:
    """Fig. 11: CPA with a single TDC tap register (bit 32)."""
    result = setup.campaign("alu").attack_with_tdc(
        setup.config.num_traces,
        tdc=setup.tdc,
        bit=bit,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
    )
    return CPAExperimentOutcome(
        "fig11", "TDC, single tap bit %d" % bit, result, sensor_bit=bit
    )


def fig12_cpa_alu_best_bit(setup: ExperimentSetup) -> CPAExperimentOutcome:
    """Fig. 12: CPA with the ALU's best single endpoint.

    The paper's implementation run lands on bit 21; the equivalent
    endpoint of this implementation run is selected by the same offline
    analysis (trial CPA over the top-ranked candidates).
    """
    bit = setup.single_bit_ranking("alu")[0]
    result = sharded_attack(
        setup.campaign("alu"),
        setup.config.num_traces,
        reduction=REDUCTION_SINGLE_BIT,
        bit=bit,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
        max_workers=setup.config.max_workers,
    )
    return CPAExperimentOutcome(
        "fig12", "ALU, single endpoint (paper: bit 21)", result,
        sensor_bit=bit,
    )


def fig13_cpa_alu_alternate_bit(
    setup: ExperimentSetup,
) -> CPAExperimentOutcome:
    """Fig. 13: CPA with an alternate ALU endpoint (paper: bit 6)."""
    bit = setup.single_bit_ranking("alu")[1]
    result = sharded_attack(
        setup.campaign("alu"),
        setup.config.num_traces,
        reduction=REDUCTION_SINGLE_BIT,
        bit=bit,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
        max_workers=setup.config.max_workers,
    )
    return CPAExperimentOutcome(
        "fig13", "ALU, alternate endpoint (paper: bit 6)", result,
        sensor_bit=bit,
    )


def fig17_cpa_c6288(setup: ExperimentSetup) -> CPAExperimentOutcome:
    """Fig. 17: CPA with the 2x C6288 Hamming-weight sensor."""
    result = sharded_attack(
        setup.campaign("c6288x2"),
        setup.config.num_traces,
        reduction=REDUCTION_HW,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
        max_workers=setup.config.max_workers,
    )
    return CPAExperimentOutcome(
        "fig17", "2x C6288 @300 MHz, HW of 64-bit word", result
    )


def fig18_cpa_c6288_best_bit(
    setup: ExperimentSetup,
) -> CPAExperimentOutcome:
    """Fig. 18: CPA with the C6288's best single endpoint (paper: 28)."""
    bit = setup.single_bit_ranking("c6288x2")[0]
    result = sharded_attack(
        setup.campaign("c6288x2"),
        setup.config.num_traces,
        reduction=REDUCTION_SINGLE_BIT,
        bit=bit,
        target_byte=setup.config.target_byte,
        target_bit=setup.config.target_bit,
        max_workers=setup.config.max_workers,
    )
    return CPAExperimentOutcome(
        "fig18", "C6288, single endpoint (paper: bit 28)", result,
        sensor_bit=bit,
    )


#: Figure id -> driver, for generic runners.
CPA_FIGURES: Dict[str, Callable[[ExperimentSetup], CPAExperimentOutcome]] = {
    "fig09": fig09_cpa_tdc,
    "fig10": fig10_cpa_alu,
    "fig11": fig11_cpa_tdc_single,
    "fig12": fig12_cpa_alu_best_bit,
    "fig13": fig13_cpa_alu_alternate_bit,
    "fig17": fig17_cpa_c6288,
    "fig18": fig18_cpa_c6288_best_bit,
}
