"""Vectorized last-round leakage model of the AES victim.

CPA campaigns need 10^5–10^6 traces; re-running the pure-Python cipher
per trace would dominate runtime.  This module exploits two facts:

* for uniformly random plaintexts the ciphertexts are uniformly random
  16-byte blocks, and
* the last AES round has no MixColumns, so the state *before* the final
  SubBytes is recoverable from the ciphertext and the last round key
  alone: ``s9 = InvSBox(InvShiftRows(ct XOR k10))``.

Bulk generation therefore draws ciphertexts directly and computes the
round-10 register transition Hamming distance — the victim's
secret-correlated switching activity — entirely in numpy.  The full
cipher in :mod:`repro.aes.aes128` remains the ground truth; the test
suite checks this fast path against it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.aes.aes128 import INV_SBOX, SBOX, AES128
from repro.util.rng import make_rng

#: numpy lookup tables.
SBOX_TABLE = np.array(SBOX, dtype=np.uint8)
INV_SBOX_TABLE = np.array(INV_SBOX, dtype=np.uint8)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

def _build_shift_rows_source() -> np.ndarray:
    """For column-major byte index i, the pre-ShiftRows index that ends
    up at position i after ShiftRows."""
    source = np.zeros(16, dtype=np.int64)
    for col in range(4):
        for row in range(4):
            source[row + 4 * col] = row + 4 * ((col + row) % 4)
    return source


SHIFT_ROWS_SOURCE = _build_shift_rows_source()


def state_before_final_sbox(
    ciphertexts: np.ndarray, last_round_key: bytes
) -> np.ndarray:
    """Recover the round-9 state from ciphertexts (vectorized).

    Args:
        ciphertexts: uint8 array of shape (N, 16).
        last_round_key: 16-byte round-10 key.

    Returns:
        uint8 array (N, 16): the state before the final SubBytes, in
        standard column-major byte order.
    """
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    if ct.ndim != 2 or ct.shape[1] != 16:
        raise ValueError("ciphertexts must have shape (N, 16)")
    key = np.frombuffer(bytes(last_round_key), dtype=np.uint8)
    if key.shape[0] != 16:
        raise ValueError("last round key must be 16 bytes")
    after_shift = ct ^ key  # undo AddRoundKey
    # Undo ShiftRows: byte i of the shifted state came from
    # SHIFT_ROWS_SOURCE[i]; write it back to its source position.
    before_shift = np.empty_like(after_shift)
    before_shift[:, SHIFT_ROWS_SOURCE] = after_shift
    return INV_SBOX_TABLE[before_shift]


def last_round_byte_hd(
    ciphertexts: np.ndarray, last_round_key: bytes
) -> np.ndarray:
    """Per-byte Hamming distance of the round-10 register transition.

    The state register is overwritten in place: cell ``i`` holds
    ``s9[i]`` and, after the final round, the ciphertext byte ``ct[i]``
    (its own content is SubBytes'd and *shifted away* to another cell,
    while a different cell's result is shifted in).

    Returns:
        int array (N, 16) of per-cell Hamming distances.
    """
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    s9 = state_before_final_sbox(ct, last_round_key)
    return _POPCOUNT8[s9 ^ ct].astype(np.int64)


def destination_of_source() -> np.ndarray:
    """Post-ShiftRows destination index for each byte position.

    ``destination_of_source()[s]`` is the position the content of state
    cell ``s`` occupies after ShiftRows; equivalently, guessing key
    byte ``j`` of the last round key targets the pre-SBox state byte at
    position ``SHIFT_ROWS_SOURCE[j]``.
    """
    destination = np.empty(16, dtype=np.int64)
    for d in range(16):
        destination[SHIFT_ROWS_SOURCE[d]] = d
    return destination


def _column_byte_indices(column: Optional[int]) -> slice:
    """Byte range of one state column (None = all 16 bytes)."""
    if column is None:
        return slice(0, 16)
    if not 0 <= column < 4:
        raise ValueError("column must be 0..3 or None, got %r" % (column,))
    return slice(4 * column, 4 * column + 4)


def last_round_activity(
    ciphertexts: np.ndarray,
    last_round_key: bytes,
    value_weight: float = 1.0,
    transition_weight: float = 0.5,
    column: Optional[int] = 3,
) -> np.ndarray:
    """Last-round switching activity (bit-equivalents) per trace.

    ``value_weight`` scales the combinational (Hamming-weight) leakage
    of the state entering the final SBoxes; ``transition_weight`` the
    register-overwrite (Hamming-distance) leakage.  Both components are
    present in CMOS; their ratio is a property of the implementation.

    ``column`` restricts the activity to one 32-bit state column: the
    paper's victim has a 32-bit datapath, so at the sensor sample
    aligned with a given cycle of round 10 only the four bytes of that
    column are being substituted and written back.  Guessing key byte 3
    (the paper's target) predicts the pre-SBox state cell 15 — its
    ShiftRows source — which lives in column 3, the default here.
    Pass ``None`` to model a full-width (128-bit datapath) victim.
    """
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    s9 = state_before_final_sbox(ct, last_round_key)
    span = _column_byte_indices(column)
    total = np.zeros(ct.shape[0])
    if value_weight:
        total = total + value_weight * _POPCOUNT8[s9[:, span]].astype(
            np.int64
        ).sum(axis=1)
    if transition_weight:
        total = total + transition_weight * _POPCOUNT8[
            s9[:, span] ^ ct[:, span]
        ].astype(np.int64).sum(axis=1)
    return total


@dataclass
class LeakageModel:
    """Converts victim activity into supply-voltage disturbance.

    The single-sample model used by CPA campaigns: at the sensor sample
    aligned with the last AES round, the supply voltage is::

        v = v_idle - droop_per_bit * activity + N(0, noise_sigma)

    where ``activity`` combines the combinational value leakage and the
    register-transition leakage of the processed state column
    (:func:`last_round_activity`).

    Attributes:
        droop_per_bit_v: voltage droop per switching bit-equivalent
            (per-bit switching current times local PDN impedance).
        noise_sigma_v: ambient supply noise at the sampling instant.
        v_idle: idle supply voltage.
        value_weight: weight of the combinational (HW) component.
        transition_weight: weight of the register (HD) component.
        column: the 32-bit datapath column active at the sample
            (3 covers cell 15, the pre-SBox cell targeted when guessing
            key byte 3); None = full state.
    """

    droop_per_bit_v: float = 5.0e-4
    noise_sigma_v: float = 8.0e-4
    v_idle: float = 1.0
    value_weight: float = 1.0
    transition_weight: float = 0.5
    column: Optional[int] = 3

    def activity(
        self, ciphertexts: np.ndarray, last_round_key: bytes
    ) -> np.ndarray:
        """Last-round switching activity per trace (bit-equivalents)."""
        return last_round_activity(
            ciphertexts,
            last_round_key,
            value_weight=self.value_weight,
            transition_weight=self.transition_weight,
            column=self.column,
        )

    def voltages(
        self,
        ciphertexts: np.ndarray,
        last_round_key: bytes,
        seed: int = 0,
    ) -> np.ndarray:
        """Supply voltage at the last-round sample for each trace."""
        activity = self.activity(ciphertexts, last_round_key)
        rng = make_rng(seed, "leakage-noise")
        noise = rng.normal(0.0, self.noise_sigma_v, size=activity.shape[0])
        return self.v_idle - self.droop_per_bit_v * activity + noise

    def column_voltages(
        self,
        ciphertexts: np.ndarray,
        last_round_key: bytes,
        seed: int = 0,
    ) -> np.ndarray:
        """Supply voltage at each of the four last-round cycles.

        The 32-bit datapath processes one state column per cycle, so a
        150 MHz sensor sees four distinct last-round samples per
        encryption, each reflecting one column's switching activity.
        Attacking all 16 key bytes (see :mod:`repro.attacks.full_key`)
        uses the sample aligned with each byte's source column.

        Returns:
            float array (N, 4): voltage per trace and column cycle.
        """
        ct = np.asarray(ciphertexts, dtype=np.uint8)
        rng = make_rng(seed, "leakage-noise-columns")
        voltages = np.empty((ct.shape[0], 4))
        for column in range(4):
            activity = last_round_activity(
                ct,
                last_round_key,
                value_weight=self.value_weight,
                transition_weight=self.transition_weight,
                column=column,
            )
            noise = rng.normal(0.0, self.noise_sigma_v, size=ct.shape[0])
            voltages[:, column] = (
                self.v_idle - self.droop_per_bit_v * activity + noise
            )
        return voltages


def random_ciphertexts(
    num_traces: int, seed: int = 0
) -> np.ndarray:
    """Uniformly random ciphertext blocks (N, 16) — the bulk-generation
    stand-in for encrypting uniformly random plaintexts."""
    rng = make_rng(seed, "ciphertexts")
    return rng.integers(0, 256, size=(num_traces, 16), dtype=np.uint8)


def verify_fast_path(cipher: AES128, plaintext: bytes) -> bool:
    """Check the vectorized s9 recovery against the reference cipher.

    Used by tests and as a self-check hook: encrypts ``plaintext`` with
    the slow cipher and confirms :func:`state_before_final_sbox`
    reproduces the true round-9 post-round state.
    """
    states = cipher.round_states(plaintext)
    ciphertext = np.frombuffer(
        bytes(states[-1]), dtype=np.uint8
    ).reshape(1, 16)
    recovered = state_before_final_sbox(ciphertext, cipher.last_round_key)
    return recovered[0].tolist() == states[10]
