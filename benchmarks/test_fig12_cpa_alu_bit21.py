"""Fig. 12: CPA with a single ALU path endpoint (the paper's bit 21).

Paper: the correct key is revealed after about 200k traces — "even a
single critical path can lead to a security breach".  The endpoint
index is implementation-run specific; the driver selects this run's
top-ranked endpoint exactly as the paper selects its highest-variance
bit.
"""

from dataclasses import replace

import numpy as np
from conftest import run_once

from repro.experiments import (
    ExperimentSetup,
    describe_mtd,
    fig10_cpa_alu,
    fig12_cpa_alu_best_bit,
)

#: Root seeds the ordering is judged over: the default seed (1) and the
#: six after it.
ORDERING_SEEDS = tuple(range(1, 8))


def test_fig12_cpa_alu_single_bit(benchmark, setup):
    outcome = run_once(benchmark, fig12_cpa_alu_best_bit, setup)
    print(
        "\nfig12 ALU endpoint %d: %s (paper: bit 21, ~200k)"
        % (outcome.sensor_bit, describe_mtd(outcome.mtd))
    )
    assert outcome.disclosed
    assert outcome.mtd is not None
    assert 10_000 <= outcome.mtd <= 500_000


def _mtd(outcome) -> float:
    # A campaign that never discloses ranks after every one that does.
    return float("inf") if outcome.mtd is None else float(outcome.mtd)


def mtds_over_seeds(setup):
    """(single-endpoint MTDs, Hamming-weight MTDs), one per root seed."""
    single, combined = [], []
    for seed in ORDERING_SEEDS:
        run = (
            setup
            if seed == setup.config.seed
            else ExperimentSetup(replace(setup.config, seed=seed))
        )
        single.append(_mtd(fig12_cpa_alu_best_bit(run)))
        combined.append(_mtd(fig10_cpa_alu(run)))
    return single, combined


def test_fig12_single_bit_not_better_than_hw(benchmark, setup):
    """Paper ordering: the single endpoint needs somewhat more traces
    than the combined Hamming weight (200k vs 150k).

    One campaign is one draw of the noise, and at this model's noise
    floor the two MTDs move by more between draws than they differ
    (the default seed alone gives 35k for the endpoint and 66k for the
    word), so the ordering compares medians over ``ORDERING_SEEDS``.
    """
    single, combined = run_once(benchmark, mtds_over_seeds, setup)
    print(
        "\nfig12 vs fig10 MTD over seeds %s: single %s, HW %s"
        % (list(ORDERING_SEEDS), single, combined)
    )
    assert np.median(single) >= np.median(combined)
