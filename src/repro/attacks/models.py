"""Leakage hypothesis models for key-recovery attacks.

The paper performs "textbook CPA using a single bit mask model before
the final SBox computation" (Sec. IV): for a guessed last-round key
byte ``k``, the predicted leakage of a trace with ciphertext byte ``c``
is one bit of ``InvSBox(c XOR k)`` — the state byte entering the final
SubBytes.  Additional classical models (Hamming weight/distance of the
same intermediate) are provided for the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.aes.leakage import INV_SBOX_TABLE, _POPCOUNT8
from repro.attacks.cpa import _validate_values

#: Paper's target: the 4th byte (index 3) of the last round key.
DEFAULT_TARGET_BYTE = 3
#: Paper's target: the 1st bit (index 0) of the state byte.
DEFAULT_TARGET_BIT = 0
#: Every byte value in order: ``single_bit_hypothesis(BYTE_VALUES)`` is
#: the table of :class:`repro.attacks.cpa.StreamingCPA`.
BYTE_VALUES = np.arange(256, dtype=np.uint8)


def _validate_ct_bytes(ct_bytes: np.ndarray) -> np.ndarray:
    """Ciphertext bytes as a 1-D uint8 array (non-bytes raise)."""
    arr = np.asarray(ct_bytes)
    if arr.ndim != 1:
        raise ValueError("ct_bytes must be 1-D (one byte per trace)")
    return _validate_values(arr, 256).astype(np.uint8, copy=False)


def inverse_sbox_intermediate(ct_bytes: np.ndarray) -> np.ndarray:
    """``InvSBox(c XOR k)`` for all 256 key guesses.

    Args:
        ct_bytes: (N,) ciphertext bytes at the target position.

    Returns:
        uint8 array (N, 256): the hypothetical state byte before the
        final SBox, per trace and key candidate.
    """
    arr = _validate_ct_bytes(ct_bytes)
    guesses = np.arange(256, dtype=np.uint8)
    xored = arr[:, None] ^ guesses[None, :]
    return INV_SBOX_TABLE[xored]


def single_bit_hypothesis(
    ct_bytes: np.ndarray, bit: int = DEFAULT_TARGET_BIT
) -> np.ndarray:
    """The paper's single-bit mask model.

    Returns an (N, 256) {0,1} matrix: bit ``bit`` of the state byte
    before the final SBox for each key candidate.
    """
    if not 0 <= bit < 8:
        raise ValueError("bit must be 0..7, got %d" % bit)
    intermediate = inverse_sbox_intermediate(ct_bytes)
    return ((intermediate >> bit) & 1).astype(np.int8)


def hamming_weight_hypothesis(ct_bytes: np.ndarray) -> np.ndarray:
    """Hamming weight of the state byte before the final SBox."""
    return _POPCOUNT8[inverse_sbox_intermediate(ct_bytes)].astype(np.int8)


def hamming_distance_hypothesis(
    ct_bytes_written: np.ndarray, ct_bytes_target: np.ndarray
) -> np.ndarray:
    """HD between the pre-SBox byte and the ciphertext byte written
    over its register cell (full last-round register model).

    Args:
        ct_bytes_written: (N,) ciphertext byte at the *destination*
            (post-ShiftRows) position of the target cell.
        ct_bytes_target: (N,) ciphertext byte at the target position
            used for the key guess.
    """
    intermediate = inverse_sbox_intermediate(ct_bytes_target)
    written = _validate_ct_bytes(ct_bytes_written)
    return _POPCOUNT8[intermediate ^ written[:, None]].astype(np.int8)
