"""Experiment configuration and the paper's expected results.

One :class:`ExperimentConfig` parameterizes every figure driver, so a
bench, an example, and a test all run the same experiment at different
scales.  ``PAPER_EXPECTED`` records the numbers the paper reports per
figure; EXPERIMENTS.md pairs them with our measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: AES key used across experiments (arbitrary but fixed).
DEFAULT_KEY = bytes(range(16))


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of all figure experiments.

    Attributes:
        seed: root seed; every stochastic component derives from it.
        key: the victim's AES-128 key.
        num_traces: CPA campaign length (paper: 500k).
        characterization_samples: capture length for Figs. 5-8/14-16.
        target_byte / target_bit: CPA target (paper: 1st bit of the 4th
            byte of the last round key).
        overclock_mhz: benign-circuit clock (paper: 300 MHz).
        max_workers: worker count for the sharded campaign driver
            (None: a machine-dependent default; 1: force serial).
            Results are identical either way — sharding only changes
            wall-clock.
    """

    seed: int = 1
    key: bytes = DEFAULT_KEY
    num_traces: int = 500_000
    characterization_samples: int = 1200
    target_byte: int = 3
    target_bit: int = 0
    overclock_mhz: float = 300.0
    max_workers: Optional[int] = None

    def scaled(self, fraction: float) -> "ExperimentConfig":
        """A cheaper copy with ``num_traces`` scaled by ``fraction``.

        Used by tests and quick examples; the figure benches run the
        full budget.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        return ExperimentConfig(
            seed=self.seed,
            key=self.key,
            num_traces=max(1000, int(self.num_traces * fraction)),
            characterization_samples=self.characterization_samples,
            target_byte=self.target_byte,
            target_bit=self.target_bit,
            overclock_mhz=self.overclock_mhz,
            max_workers=self.max_workers,
        )


#: The paper's reported outcome per figure (see EXPERIMENTS.md).
PAPER_EXPECTED: Dict[str, str] = {
    "fig03": "ALU floorplan: logic scattered, sensitive endpoints marked",
    "fig04": "C6288 floorplan: logic scattered, sensitive endpoints marked",
    "fig05": "raw ALU bits look random once 8000 ROs enable",
    "fig06": "TDC droop ~30->10 with overshoot; ALU HW tracks same shape",
    "fig07": "ALU census: 79 RO-sensitive, 40 AES (39 subset), 112 unaffected",
    "fig08": "per-bit variance; ALU bit 21 highest",
    "fig09": "CPA via TDC (all bits): few hundred traces",
    "fig10": "CPA via ALU Hamming weight: ~150k traces",
    "fig11": "CPA via single TDC bit 32: few hundred traces",
    "fig12": "CPA via single ALU bit 21: ~200k traces",
    "fig13": "CPA via alternate ALU bit 6: ~150k traces",
    "fig14": "raw C6288 bits toggle under ROs; 49 of 64 sensitive",
    "fig15": "C6288 census: 49 RO, 32 AES (all subset), 15 unaffected",
    "fig16": "per-bit variance; C6288 bit 28 among the best",
    "fig17": "CPA via C6288 Hamming weight (2 instances): ~200k traces",
    "fig18": "CPA via single C6288 bit 28: ~100k traces",
}
