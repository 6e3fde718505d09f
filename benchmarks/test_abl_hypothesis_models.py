"""Ablation: hypothesis-model comparison on identical traces.

The paper uses a single-bit mask model "such as in [2]".  This bench
runs the classical alternatives — Hamming weight of the pre-SBox byte
and the register-transition Hamming distance — on the *same* TDC trace
set and compares the final correlation of the correct key.
"""

import numpy as np
from conftest import run_once

from repro.aes.leakage import SHIFT_ROWS_SOURCE, random_ciphertexts
from repro.attacks import (
    BYTE_VALUES,
    hamming_distance_hypothesis,
    hamming_weight_hypothesis,
    run_cpa,
    single_bit_hypothesis,
)
from repro.util.rng import derive_seed

TRACES = 60_000


def evaluate(setup):
    campaign = setup.campaign("alu")
    ciphertexts = random_ciphertexts(
        TRACES, seed=derive_seed(campaign.seed, "campaign-ct")
    )
    voltages = campaign.leakage.voltages(
        ciphertexts,
        setup.cipher.last_round_key,
        seed=derive_seed(campaign.seed, "campaign-noise"),
    )
    leakage = setup.tdc.sample_scalar(
        voltages, seed=derive_seed(campaign.seed, "tdc")
    ).astype(np.float64)

    target_byte = setup.config.target_byte
    correct = setup.cipher.last_round_key[target_byte]
    source_cell = int(SHIFT_ROWS_SOURCE[target_byte])

    target = ciphertexts[:, target_byte]
    # The Hamming-distance model reads two bytes, so its value is
    # ``written * 256 + target``: a 65,536-row table.
    written = ciphertexts[:, source_cell].astype(np.int64)
    models = {
        "single_bit": (target, single_bit_hypothesis(BYTE_VALUES)),
        "hamming_weight": (target, hamming_weight_hypothesis(BYTE_VALUES)),
        "hamming_distance": (
            written * 256 + target,
            hamming_distance_hypothesis(
                np.repeat(BYTE_VALUES, 256), np.tile(BYTE_VALUES, 256)
            ),
        ),
    }
    outcome = {}
    for name, (values, table) in models.items():
        # Only the final row is read, so one checkpoint suffices.
        result = run_cpa(
            leakage, values, table, checkpoints=[TRACES],
            correct_key=correct,
        )
        outcome[name] = (
            result.disclosed,
            float(result.final_correlations[correct]),
        )
    return outcome


def test_abl_hypothesis_models(benchmark, setup):
    outcome = run_once(benchmark, evaluate, setup)
    print("\nmodel comparison on identical TDC traces:")
    for name, (disclosed, corr) in outcome.items():
        print("  %-17s disclosed=%s |corr|=%.4f" % (name, disclosed, corr))
    # The single-bit model (the paper's choice) must work.
    assert outcome["single_bit"][0]
    # The multi-bit HW model aggregates 8 informative bits: at least as
    # strong as a single bit on value-leakage-dominated traces.
    assert outcome["hamming_weight"][1] >= 0.8 * outcome["single_bit"][1]
