"""Key-recovery attack engines and metrics.

:func:`run_cpa` is the workhorse (textbook CPA with progress tracking,
as in all of the paper's Figs. 9–13 and 17–18);
:mod:`repro.attacks.models` defines the hypothesis models, and
:mod:`repro.attacks.metrics` the campaign-level quality metrics.
"""

from repro.attacks.cpa import (
    CPAResult,
    InexactStateError,
    NonFiniteValuesError,
    StreamingCPA,
    default_checkpoints,
    run_cpa,
)
from repro.attacks.full_key import (
    FullKeyResult,
    column_of_key_byte,
    recover_last_round_key,
)
from repro.attacks.second_order import (
    centered_square,
    run_second_order_cpa,
)
from repro.attacks.metrics import (
    AttackSummary,
    guessing_entropy,
    success_rate,
    summarize,
)
from repro.attacks.models import (
    BYTE_VALUES,
    DEFAULT_TARGET_BIT,
    DEFAULT_TARGET_BYTE,
    hamming_distance_hypothesis,
    hamming_weight_hypothesis,
    inverse_sbox_intermediate,
    single_bit_hypothesis,
)

__all__ = [
    "AttackSummary",
    "BYTE_VALUES",
    "CPAResult",
    "DEFAULT_TARGET_BIT",
    "DEFAULT_TARGET_BYTE",
    "FullKeyResult",
    "InexactStateError",
    "NonFiniteValuesError",
    "column_of_key_byte",
    "recover_last_round_key",
    "centered_square",
    "run_second_order_cpa",
    "StreamingCPA",
    "default_checkpoints",
    "guessing_entropy",
    "hamming_distance_hypothesis",
    "hamming_weight_hypothesis",
    "inverse_sbox_intermediate",
    "run_cpa",
    "single_bit_hypothesis",
    "success_rate",
    "summarize",
]
