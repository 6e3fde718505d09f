"""Ablation: sensor resolution versus number of combined endpoints.

Sec. V-D attributes the ALU-vs-C6288 gap to output-bit count ("the
adder has a higher resolution. The resolution can be increased by
adding more instances...").  This bench measures the correct-key
correlation as a function of how many top endpoints the Hamming-weight
reduction combines.
"""

import numpy as np
from conftest import run_once

from repro.attacks import BYTE_VALUES, run_cpa, single_bit_hypothesis
from repro.core.postprocess import bits_of_interest
from repro.util.rng import derive_seed

TRACES = 120_000
BIT_COUNTS = (1, 4, 16, 64)


def sweep(setup):
    campaign = setup.campaign("alu")
    characterization = setup.characterization("alu")
    ranked = bits_of_interest(
        characterization.ro_bits,
        mask=characterization.census.ro_sensitive,
    )
    data = campaign.collect_reduced_traces(TRACES)  # for cts/voltages
    table = single_bit_hypothesis(BYTE_VALUES)
    correct = campaign.cipher.last_round_key[3]

    corr_by_count = {}
    for count in BIT_COUNTS:
        subset = ranked[: min(count, ranked.size)]
        leakage = np.zeros(TRACES)
        chunk = 50_000
        for start in range(0, TRACES, chunk):
            end = min(start + chunk, TRACES)
            bits = campaign.sensor.sample_bits(
                data["voltages"][start:end],
                seed=derive_seed(campaign.seed, "campaign-jitter", start),
            )
            leakage[start:end] = bits[:, subset].sum(axis=1)
        result = run_cpa(
            leakage,
            data["ciphertexts"][:, 3],
            table,
            checkpoints=[TRACES],
            correct_key=correct,
        )
        corr_by_count[count] = float(
            np.abs(result.correlations[-1][correct])
        )
    return corr_by_count


def test_abl_resolution(benchmark, setup):
    corr_by_count = run_once(benchmark, sweep, setup)
    print("\n|corr(correct key)| vs combined bits: %s" % {
        k: round(v, 4) for k, v in corr_by_count.items()
    })
    # Combining more endpoints must not hurt substantially, and the
    # full set must beat a mediocre single bit.
    assert corr_by_count[64] > 0
    assert corr_by_count[64] >= 0.8 * corr_by_count[1]
    assert corr_by_count[16] >= 0.5 * corr_by_count[64]
