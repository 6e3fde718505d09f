"""Campaign statistics: MTD spread and success rate over repeated runs.

A single attack run reports one measurements-to-disclosure number; a
responsible evaluation asks how that number varies over independent
campaigns (fresh plaintexts, noise, jitter).  This module repeats an
attack across campaign seeds and aggregates guessing entropy, success
rate, and the MTD distribution — the statistics behind statements like
"revealed after *about* 150k traces".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.aes.aes128 import AES128
from repro.attacks.metrics import guessing_entropy, success_rate
from repro.core.attack import REDUCTION_HW, AttackCampaign
from repro.core.endpoint_sensor import BenignSensor
from repro.util.rng import derive_seed


@dataclass
class CampaignStatistics:
    """Aggregate outcome of repeated attack campaigns.

    Attributes:
        mtds: per-run measurements-to-disclosure (None = not disclosed).
        final_ranks: per-run final rank of the correct key byte.
        num_traces: trace budget of each run.
    """

    mtds: List[Optional[int]]
    final_ranks: List[int]
    num_traces: int

    @property
    def num_runs(self) -> int:
        return len(self.mtds)

    @property
    def success_rate(self) -> float:
        """Fraction of runs ending at rank 0."""
        return success_rate(self.final_ranks)

    @property
    def guessing_entropy(self) -> float:
        """Mean final rank of the correct key byte."""
        return guessing_entropy(self.final_ranks)

    def mtd_quantiles(self) -> Optional[tuple]:
        """(min, median, max) MTD over the disclosing runs."""
        disclosed = [m for m in self.mtds if m is not None]
        if not disclosed:
            return None
        arr = np.asarray(disclosed, dtype=float)
        return (
            int(arr.min()),
            int(np.median(arr)),
            int(arr.max()),
        )

    def summary(self) -> str:
        quantiles = self.mtd_quantiles()
        spread = (
            "MTD min/med/max = %d / %d / %d" % quantiles
            if quantiles
            else "no run disclosed"
        )
        return (
            "%d runs x %d traces: success rate %.0f%%, "
            "guessing entropy %.1f, %s"
            % (
                self.num_runs,
                self.num_traces,
                100 * self.success_rate,
                self.guessing_entropy,
                spread,
            )
        )


def repeat_attack(
    circuit: str,
    key: bytes,
    num_traces: int,
    num_runs: int = 5,
    reduction: str = REDUCTION_HW,
    root_seed: int = 0,
) -> CampaignStatistics:
    """Run the same attack over ``num_runs`` independent campaigns.

    The sensor (one implementation run) is shared — the hardware does
    not change between campaigns — while plaintexts, victim noise and
    capture jitter are redrawn per run via derived seeds.

    Args:
        circuit: benign-circuit registry name.
        key: victim AES-128 key.
        num_traces: traces per campaign.
        num_runs: independent campaigns.
        reduction: sensor-word reduction mode.
        root_seed: root of the per-run seed derivation.
    """
    if num_runs < 1:
        raise ValueError("need at least one run")
    sensor = BenignSensor.from_name(
        circuit, implementation_seed=root_seed
    )
    cipher = AES128(key)
    mtds: List[Optional[int]] = []
    ranks: List[int] = []
    for run in range(num_runs):
        campaign = AttackCampaign(
            sensor, cipher, seed=derive_seed(root_seed, "repeat", run)
        )
        campaign.characterize()
        result = campaign.attack(num_traces, reduction=reduction)
        mtds.append(result.measurements_to_disclosure())
        ranks.append(int(result.key_ranks()[-1]))
    return CampaignStatistics(
        mtds=mtds, final_ranks=ranks, num_traces=num_traces
    )
