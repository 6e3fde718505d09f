"""Table-driven batched AES-128: whole campaigns of encryptions in numpy.

The reference cipher in :mod:`repro.aes.aes128` processes one 16-byte
block at a time through per-byte list comprehensions — fine as ground
truth, far too slow to feed 10^5-trace campaigns through the physical
datapath/PDN pipeline.  This module evaluates N encryptions at once on
``uint8`` state arrays of shape ``(N, 16)``:

* SubBytes is a single fancy-indexed S-box lookup;
* ShiftRows is a column gather through
  :data:`repro.aes.leakage.SHIFT_ROWS_SOURCE`;
* MixColumns uses precomputed GF(2^8) times-2/times-3 tables
  (:data:`GMUL2_TABLE` / :data:`GMUL3_TABLE`) on a ``(N, 4, 4)`` view;
* the key schedule is reused verbatim from the reference
  (:func:`repro.aes.aes128.expand_key`).

All outputs are byte-identical to the reference cipher — AES is exact
integer arithmetic, so "fast path" here means *the same bytes computed
with fewer interpreter dispatches*, not an approximation.  The test
suite checks equivalence on the FIPS-197 known-answer vector and on
random key/plaintext batches, and checks :meth:`BatchedAES128.cycle_hd`
against :func:`repro.aes.datapath.encryption_cycle_hd` per trace.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.aes.aes128 import AES128, expand_key
from repro.aes.datapath import DatapathSchedule
from repro.aes.leakage import SBOX_TABLE, SHIFT_ROWS_SOURCE
from repro.util import kernels

#: GF(2^8) multiplication by 2 (xtime) for every byte value.
GMUL2_TABLE = np.array(
    [((b << 1) ^ 0x11B if b & 0x80 else b << 1) & 0xFF for b in range(256)],
    dtype=np.uint8,
)
#: GF(2^8) multiplication by 3 = xtime(b) XOR b.
GMUL3_TABLE = GMUL2_TABLE ^ np.arange(256, dtype=np.uint8)

#: Bit count of every byte value (for Hamming-distance activity).
POPCOUNT8_TABLE = np.array(
    [bin(b).count("1") for b in range(256)], dtype=np.uint8
)


def as_state_array(plaintexts: Union[np.ndarray, Sequence[bytes]]
                   ) -> np.ndarray:
    """Coerce a batch of 16-byte blocks to a ``(N, 16)`` uint8 array."""
    if isinstance(plaintexts, np.ndarray):
        blocks = plaintexts
    else:
        blocks = np.frombuffer(
            b"".join(bytes(p) for p in plaintexts), dtype=np.uint8
        ).reshape(-1, 16)
    if blocks.ndim != 2 or blocks.shape[1] != 16:
        raise ValueError(
            "plaintext batch must have shape (N, 16), got %r"
            % (blocks.shape,)
        )
    if blocks.dtype != np.uint8:
        if blocks.min() < 0 or blocks.max() > 255:
            raise ValueError("plaintext bytes must be in 0..255")
        blocks = blocks.astype(np.uint8)
    return blocks


def _shift_rows_batch(states: np.ndarray) -> np.ndarray:
    """ShiftRows on a ``(N, 16)`` batch (gather from the source map)."""
    return states[:, SHIFT_ROWS_SOURCE]


def _mix_columns_batch(states: np.ndarray) -> np.ndarray:
    """MixColumns on a ``(N, 16)`` batch via the GF(2^8) tables."""
    cols = states.reshape(-1, 4, 4)
    a0 = cols[:, :, 0]
    a1 = cols[:, :, 1]
    a2 = cols[:, :, 2]
    a3 = cols[:, :, 3]
    out = np.empty_like(cols)
    out[:, :, 0] = GMUL2_TABLE[a0] ^ GMUL3_TABLE[a1] ^ a2 ^ a3
    out[:, :, 1] = a0 ^ GMUL2_TABLE[a1] ^ GMUL3_TABLE[a2] ^ a3
    out[:, :, 2] = a0 ^ a1 ^ GMUL2_TABLE[a2] ^ GMUL3_TABLE[a3]
    out[:, :, 3] = GMUL3_TABLE[a0] ^ a1 ^ a2 ^ GMUL2_TABLE[a3]
    return out.reshape(-1, 16)


# ----------------------------------------------------------------------
# numpy reference kernels (the public API below runs the C op from
# kernels.native_op when the selected mode provides one, else these)
# ----------------------------------------------------------------------


def _round_states_numpy(
    round_keys: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Reference ``(N, 12, 16)`` round-state pipeline (vectorized)."""
    states = np.empty((blocks.shape[0], 12, 16), dtype=np.uint8)
    states[:, 0] = blocks
    state = blocks ^ round_keys[0]
    states[:, 1] = state
    for round_index in range(1, 10):
        state = SBOX_TABLE[state]
        state = _shift_rows_batch(state)
        state = _mix_columns_batch(state)
        state = state ^ round_keys[round_index]
        states[:, round_index + 1] = state
    state = SBOX_TABLE[state]
    state = _shift_rows_batch(state)
    state = state ^ round_keys[10]
    states[:, 11] = state
    return states


def _cycle_hd_numpy(
    states: np.ndarray, cycles_per_round: int
) -> np.ndarray:
    byte_hd = POPCOUNT8_TABLE[states[:, :-1, :] ^ states[:, 1:, :]]
    # (N, 11 rounds, 4 columns): sum the 4 bytes of each column.
    column_hd = (
        byte_hd.reshape(-1, 11, 4, 4).sum(axis=3, dtype=np.int64)
    )
    columns = np.arange(cycles_per_round) % 4
    return column_hd[:, :, columns].reshape(-1, 11 * cycles_per_round)


def _cycle_activity_numpy(
    states: np.ndarray,
    cycles_per_round: int,
    value_weight: float,
    transition_weight: float,
) -> np.ndarray:
    byte_hd = POPCOUNT8_TABLE[states[:, :-1, :] ^ states[:, 1:, :]]
    byte_hw = POPCOUNT8_TABLE[states[:, :-1, :]]
    column_hd = byte_hd.reshape(-1, 11, 4, 4).sum(axis=3, dtype=np.int64)
    column_hw = byte_hw.reshape(-1, 11, 4, 4).sum(axis=3, dtype=np.int64)
    activity = value_weight * column_hw + transition_weight * column_hd
    columns = np.arange(cycles_per_round) % 4
    return activity[:, :, columns].reshape(-1, 11 * cycles_per_round)


def _activity_and_ciphertexts_numpy(
    round_keys: np.ndarray,
    blocks: np.ndarray,
    cycles_per_round: int,
    value_weight: float,
    transition_weight: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference for the fused activity+ciphertext op.

    Materializes the full state tensor (that's what makes the native
    version — one streaming pass over two 16-byte registers per trace —
    worth having) and slices the activity and ciphertexts out of it.
    """
    states = _round_states_numpy(round_keys, blocks)
    activity = _cycle_activity_numpy(
        states, cycles_per_round, value_weight, transition_weight
    )
    return activity, states[:, 11].copy()



class BatchedAES128:
    """AES-128 over ``(N, 16)`` uint8 plaintext batches.

    Construct from a 16-byte key (runs the reference key schedule) or
    from an existing reference cipher via :meth:`from_cipher` to
    guarantee both operate on the identical round keys.

    Example:
        >>> import numpy as np
        >>> batched = BatchedAES128(bytes(range(16)))
        >>> pt = np.zeros((3, 16), dtype=np.uint8)
        >>> batched.encrypt(pt).shape
        (3, 16)
    """

    def __init__(self, key: bytes):
        self.round_keys = np.array(expand_key(key), dtype=np.uint8)

    @classmethod
    def from_cipher(cls, cipher: AES128) -> "BatchedAES128":
        """Wrap a reference cipher's already-expanded round keys."""
        batched = cls.__new__(cls)
        batched.round_keys = np.array(cipher.round_keys, dtype=np.uint8)
        return batched

    @property
    def last_round_key(self) -> bytes:
        """Round-10 key — the CPA target, as in :class:`AES128`."""
        return bytes(self.round_keys[10])

    def round_states(self, plaintexts: Union[np.ndarray, Sequence[bytes]]
                     ) -> np.ndarray:
        """All register states of N encryptions: ``(N, 12, 16)`` uint8.

        Axis 1 matches :meth:`AES128.round_states`: index 0 is the
        plaintext, 1 the post-whitening state, ``r`` the state after
        round ``r``; index 11 is the ciphertext.
        """
        blocks = as_state_array(plaintexts)
        op = (
            kernels.native_op("aes", "round_states")
            or _round_states_numpy
        )
        return op(self.round_keys, blocks)

    def encrypt(self, plaintexts: Union[np.ndarray, Sequence[bytes]]
                ) -> np.ndarray:
        """Ciphertext blocks ``(N, 16)`` uint8."""
        return self.round_states(plaintexts)[:, 11]

    def cycle_hd(
        self,
        plaintexts: Union[np.ndarray, Sequence[bytes]],
        schedule: DatapathSchedule = DatapathSchedule(),
    ) -> np.ndarray:
        """Per-cycle datapath activity: ``(N, schedule.total_cycles)``.

        Row ``t`` equals
        ``encryption_cycle_hd(cipher, plaintexts[t], schedule)``: cycle
        ``cycles_per_round * r + c`` carries the Hamming distance of
        state column ``c % 4`` between the round-``r`` input and output
        registers (``r = 0`` is the whitening AddRoundKey).
        """
        return cycle_hd_from_states(self.round_states(plaintexts), schedule)


def cycle_hd_from_states(
    states: np.ndarray,
    schedule: DatapathSchedule = DatapathSchedule(),
) -> np.ndarray:
    """Per-cycle column activity from precomputed round states.

    Lets callers that already hold the ``(N, 12, 16)`` state tensor
    (e.g. because they also need the ciphertexts) avoid a second
    encryption pass; :meth:`BatchedAES128.cycle_hd` is this applied to
    a fresh :meth:`BatchedAES128.round_states` call.
    """
    op = (
        kernels.native_op("aes", "cycle_hd_from_states")
        or _cycle_hd_numpy
    )
    return op(states, schedule.cycles_per_round)


def cycle_activity_from_states(
    states: np.ndarray,
    schedule: DatapathSchedule = DatapathSchedule(),
    value_weight: float = 1.0,
    transition_weight: float = 0.5,
) -> np.ndarray:
    """Per-cycle switching activity (bit-equivalents): ``(N, cycles)``.

    Cycle ``cycles_per_round * r + c`` combines the two CMOS leakage
    components of updating state column ``c % 4`` in round ``r``: the
    *combinational* activity of evaluating the round logic on the
    incoming column (its Hamming weight, scaled by ``value_weight``)
    and the *register-overwrite* activity (the column's Hamming
    distance, scaled by ``transition_weight``).  At the last-round
    cycle of a column this reduces exactly to
    :func:`repro.aes.leakage.last_round_activity` for that column —
    the same leakage composition the analytical campaign model uses.
    """
    op = (
        kernels.native_op("aes", "cycle_activity_from_states")
        or _cycle_activity_numpy
    )
    return op(
        states, schedule.cycles_per_round, value_weight, transition_weight
    )


def cycle_activity_and_ciphertexts(
    batched: "BatchedAES128",
    plaintexts: Union[np.ndarray, Sequence[bytes]],
    schedule: DatapathSchedule = DatapathSchedule(),
    value_weight: float = 1.0,
    transition_weight: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused per-cycle activity **and** ciphertexts in one pass.

    Returns ``(activity, ciphertexts)`` exactly equal to::

        states = batched.round_states(plaintexts)
        (cycle_activity_from_states(states, schedule, vw, tw),
         states[:, 11])

    but without requiring the ``(N, 12, 16)`` state tensor: the native
    backend streams each trace through two 16-byte registers, which is
    what the trace generator's hot loop wants (it needs both outputs
    and nothing else from the states).  The numpy reference backend
    still materializes the tensor, so dispatch stays bit-identical.
    """
    blocks = as_state_array(plaintexts)
    op = (
        kernels.native_op("aes", "activity_and_ciphertexts")
        or _activity_and_ciphertexts_numpy
    )
    return op(
        batched.round_keys,
        blocks,
        schedule.cycles_per_round,
        value_weight,
        transition_weight,
    )


def encryption_cycle_hd_batch(
    cipher: AES128,
    plaintexts: Union[np.ndarray, Sequence[bytes]],
    schedule: DatapathSchedule = DatapathSchedule(),
) -> np.ndarray:
    """Batched drop-in for :func:`repro.aes.datapath.encryption_cycle_hd`.

    Shares the reference cipher's round keys, so the result is exactly
    ``np.array([encryption_cycle_hd(cipher, pt, schedule) for pt in
    plaintexts])`` computed in one shot.
    """
    return BatchedAES128.from_cipher(cipher).cycle_hd(plaintexts, schedule)
