"""The AES-128 victim: cipher, datapath activity model, leakage model.

:class:`AES128` is the bit-exact reference cipher; :mod:`repro.aes.datapath`
models the paper's 32-bit-datapath core (4 parallel SBoxes, 100 MHz);
:mod:`repro.aes.leakage` provides the vectorized last-round
Hamming-distance leakage used by bulk CPA trace generation.
"""

from repro.aes.aes128 import (
    INV_SBOX,
    invert_key_schedule,
    SBOX,
    AES128,
    add_round_key,
    expand_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    sub_bytes,
)
from repro.aes.batch import (
    GMUL2_TABLE,
    GMUL3_TABLE,
    POPCOUNT8_TABLE,
    BatchedAES128,
    cycle_hd_from_states,
    encryption_cycle_hd_batch,
)
from repro.aes.datapath import (
    DatapathSchedule,
    column_hd,
    encryption_cycle_hd,
)
from repro.aes.masking import MaskedLeakageModel
from repro.aes.leakage import (
    INV_SBOX_TABLE,
    SBOX_TABLE,
    SHIFT_ROWS_SOURCE,
    LeakageModel,
    destination_of_source,
    last_round_activity,
    last_round_byte_hd,
    random_ciphertexts,
    state_before_final_sbox,
    verify_fast_path,
)

__all__ = [
    "AES128",
    "BatchedAES128",
    "DatapathSchedule",
    "GMUL2_TABLE",
    "GMUL3_TABLE",
    "POPCOUNT8_TABLE",
    "cycle_hd_from_states",
    "encryption_cycle_hd_batch",
    "INV_SBOX",
    "INV_SBOX_TABLE",
    "LeakageModel",
    "MaskedLeakageModel",
    "SBOX",
    "SBOX_TABLE",
    "add_round_key",
    "column_hd",
    "encryption_cycle_hd",
    "expand_key",
    "inv_mix_columns",
    "inv_shift_rows",
    "inv_sub_bytes",
    "invert_key_schedule",
    "destination_of_source",
    "last_round_activity",
    "last_round_byte_hd",
    "SHIFT_ROWS_SOURCE",
    "mix_columns",
    "random_ciphertexts",
    "shift_rows",
    "state_before_final_sbox",
    "sub_bytes",
    "verify_fast_path",
]
