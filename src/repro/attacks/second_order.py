"""Second-order CPA against first-order masked implementations.

First-order boolean masking (``repro.aes.masking``) removes the
*mean* dependence of the leakage on the secret: ``E[L | s]`` is
constant.  It does not remove the *variance* dependence: when both the
masked share ``HW(s XOR m)`` and the mask share ``HW(m)`` contribute to
the same sample, the spread of their sum varies with ``s`` — bits of
``s`` that are 0 let the two shares' contributions correlate, bits that
are 1 anti-correlate.

The classical second-order attack (Chari et al. 1999; Prouff/Rivain/
Bevan's analysis) therefore preprocesses traces with the *centered
square* ``(L - mean(L))**2`` and correlates against a Hamming-weight
hypothesis.  The quadratic combining squares the noise too, so the
trace cost grows roughly with ``(sigma/signal)**4`` — masking does not
make the attack impossible, only much more expensive, and that is
measurable here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.cpa import CPAResult, run_cpa
from repro.attacks.models import BYTE_VALUES, hamming_weight_hypothesis


def centered_square(leakage: np.ndarray) -> np.ndarray:
    """Second-order preprocessing: ``(L - mean(L))**2``.

    For a sum of two share leakages, this statistic's expectation over
    the uniform mask is an affine function of the Hamming weight of the
    unmasked intermediate.
    """
    x = np.asarray(leakage, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("leakage must be 1-D")
    return (x - x.mean()) ** 2


def run_second_order_cpa(
    leakage: np.ndarray,
    ct_bytes: np.ndarray,
    correct_key: Optional[int] = None,
    checkpoints: Optional[Sequence[int]] = None,
) -> CPAResult:
    """Second-order CPA on a masked victim's traces.

    Args:
        leakage: (N,) raw leakage samples (containing both shares'
            contributions, as a single-sample masked core produces).
        ct_bytes: (N,) ciphertext bytes at the target position.
        correct_key: true key byte for metrics.
        checkpoints: progress checkpoints.

    Returns:
        a :class:`CPAResult` over the 256 key candidates.
    """
    return run_cpa(
        centered_square(leakage),
        ct_bytes,
        hamming_weight_hypothesis(BYTE_VALUES),
        checkpoints=checkpoints,
        correct_key=correct_key,
    )
