"""Leakage hypothesis models for key-recovery attacks.

The paper performs "textbook CPA using a single bit mask model before
the final SBox computation" (Sec. IV): for a guessed last-round key
byte ``k``, the predicted leakage of a trace with ciphertext byte ``c``
is one bit of ``InvSBox(c XOR k)`` — the state byte entering the final
SubBytes.  Additional classical models (Hamming weight/distance of the
same intermediate) are provided for the ablation benches.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.aes.leakage import INV_SBOX_TABLE, _POPCOUNT8
from repro.util import kernels

#: Paper's target: the 4th byte (index 3) of the last round key.
DEFAULT_TARGET_BYTE = 3
#: Paper's target: the 1st bit (index 0) of the state byte.
DEFAULT_TARGET_BIT = 0
#: Every byte value in order: ``single_bit_hypothesis(BYTE_VALUES)`` is
#: the by-value table of :meth:`repro.attacks.cpa.StreamingCPA.update`.
BYTE_VALUES = np.arange(256, dtype=np.uint8)


def _validate_ct_bytes(ct_bytes: np.ndarray) -> np.ndarray:
    """Ciphertext bytes as a 1-D uint8 array.

    Values that are not integers in 0..255 raise instead of being cast:
    ``astype(np.uint8)`` would silently attack the hypotheses of 0 for
    256, 255 for -1 and 3 for 3.7.
    """
    arr = np.asarray(ct_bytes)
    if arr.ndim != 1:
        raise ValueError("ct_bytes must be 1-D (one byte per trace)")
    if arr.dtype == np.uint8:
        return arr
    if arr.dtype.kind not in "iuf":
        raise ValueError(
            "ct_bytes must be integers in 0..255, got dtype %s" % arr.dtype
        )
    bad = ~((arr >= 0) & (arr <= 255))
    if arr.dtype.kind == "f":
        bad |= arr != np.floor(arr)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ValueError(
            "ciphertext byte %r at index %d is not an integer in 0..255"
            % (arr[index].item(), index)
        )
    return arr.astype(np.uint8)


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


def _single_bit_numpy(ct_bytes: np.ndarray, bit: int) -> np.ndarray:
    intermediate = inverse_sbox_intermediate(ct_bytes)
    return ((intermediate >> bit) & 1).astype(np.int8)


def _hamming_weight_numpy(ct_bytes: np.ndarray) -> np.ndarray:
    return _POPCOUNT8[inverse_sbox_intermediate(ct_bytes)].astype(np.int8)


# The hypothesis blocks ride on the AES kernel (same tables, same
# uint8 arithmetic); the native ops fuse the InvSBox lookup with the
# bit/HW extraction instead of materializing the (N, 256) intermediate.


def single_bit_hypothesis(
    ct_bytes: np.ndarray, bit: int = DEFAULT_TARGET_BIT
) -> np.ndarray:
    """The paper's single-bit mask model.

    Returns an (N, 256) {0,1} matrix: bit ``bit`` of the state byte
    before the final SBox for each key candidate.
    """
    if not 0 <= bit < 8:
        raise ValueError("bit must be 0..7, got %d" % bit)
    arr = _validate_ct_bytes(ct_bytes)
    op = (
        kernels.native_op("aes", "single_bit_hypothesis")
        or _single_bit_numpy
    )
    return op(arr, bit)


def hamming_weight_hypothesis(ct_bytes: np.ndarray) -> np.ndarray:
    """Hamming weight of the state byte before the final SBox."""
    arr = _validate_ct_bytes(ct_bytes)
    op = (
        kernels.native_op("aes", "hamming_weight_hypothesis")
        or _hamming_weight_numpy
    )
    return op(arr)


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


#: Registry used by benches to sweep hypothesis models.
HYPOTHESIS_MODELS: Dict[str, Callable[..., np.ndarray]] = {
    "single_bit": single_bit_hypothesis,
    "hamming_weight": hamming_weight_hypothesis,
}
