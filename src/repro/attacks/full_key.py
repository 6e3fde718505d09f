"""Full 16-byte last-round-key recovery (extension of the paper).

The paper demonstrates CPA on one key byte ("the 1st bit of the 4th
byte of the last secret round key"); nothing about the technique is
byte-specific.  This module attacks all 16 bytes: each key byte ``j``
is guessed from ciphertext byte ``j``, predicting a bit of the pre-SBox
state cell ``SHIFT_ROWS_SOURCE[j]``, whose switching activity leaks at
the last-round cycle processing that cell's column.  The recovered
round-10 key is then inverted through the key schedule
(:func:`repro.aes.aes128.invert_key_schedule`) to obtain the master
key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.aes.aes128 import invert_key_schedule
from repro.aes.leakage import SHIFT_ROWS_SOURCE
from repro.attacks.cpa import CPAResult, run_cpa
from repro.attacks.models import BYTE_VALUES, single_bit_hypothesis
from repro.util.executors import CampaignHealth, RetryPolicy, map_ordered


#: The leakage column of every key byte: ``leakage[:, KEY_BYTE_COLUMNS]``
#: is the (N, 16) leakage whose stream ``j`` is key byte ``j``'s.
KEY_BYTE_COLUMNS = np.array(
    [int(SHIFT_ROWS_SOURCE[j]) // 4 for j in range(16)], dtype=np.intp
)


def column_of_key_byte(byte_index: int) -> int:
    """The state column whose cycle leaks key byte ``byte_index``.

    Guessing key byte ``j`` targets the pre-SBox state cell at
    ``SHIFT_ROWS_SOURCE[j]``; that cell belongs to column
    ``SHIFT_ROWS_SOURCE[j] // 4`` of the 32-bit datapath.
    """
    if not 0 <= byte_index < 16:
        raise ValueError("byte index must be 0..15, got %d" % byte_index)
    return int(KEY_BYTE_COLUMNS[byte_index])


@dataclass
class FullKeyResult:
    """Outcome of a 16-byte key-recovery campaign.

    Attributes:
        byte_results: per-key-byte CPA results (index = key byte).
        true_last_round_key: ground-truth round-10 key, when provided.
    """

    byte_results: List[CPAResult]
    true_last_round_key: Optional[bytes] = None

    @property
    def recovered_last_round_key(self) -> bytes:
        """Best-guess round-10 key."""
        return bytes(result.best_guess for result in self.byte_results)

    @property
    def recovered_master_key(self) -> bytes:
        """The master key implied by the recovered round-10 key."""
        return invert_key_schedule(self.recovered_last_round_key)

    @property
    def num_correct_bytes(self) -> int:
        if self.true_last_round_key is None:
            raise ValueError("result carries no ground truth")
        return sum(
            guess == true
            for guess, true in zip(
                self.recovered_last_round_key, self.true_last_round_key
            )
        )

    @property
    def full_key_recovered(self) -> bool:
        if self.true_last_round_key is None:
            raise ValueError("result carries no ground truth")
        return self.recovered_last_round_key == self.true_last_round_key

    def byte_ranks(self) -> List[int]:
        """Final rank of the correct candidate per byte."""
        return [result.key_ranks()[-1] for result in self.byte_results]

    def log2_remaining_enumeration(self) -> float:
        """log2 of the key-enumeration work left after the attack.

        Each byte whose correct candidate sits at rank ``r`` costs a
        factor ``r + 1`` of enumeration (try candidates in correlation
        order); the product over bytes bounds the residual brute-force
        effort.  0.0 means the key is read off directly; anything below
        ~2^30 is trivially enumerable offline.
        """
        ranks = self.byte_ranks()
        return float(np.sum(np.log2(np.asarray(ranks, dtype=float) + 1.0)))

    def worst_mtd(self) -> Optional[int]:
        """Traces needed until *every* byte is stably disclosed."""
        mtds = [
            result.measurements_to_disclosure()
            for result in self.byte_results
        ]
        if any(mtd is None for mtd in mtds):
            return None
        return max(mtds)  # type: ignore[arg-type]


def _attack_byte_task(state: Dict[str, object], byte_index: int) -> CPAResult:
    """One key byte's CPA over the shared (N, 4) leakage and (N, 16)
    ciphertexts, read in place from ``state``."""
    correct_key = state["correct_key"]
    return run_cpa(
        state["leakage"][:, KEY_BYTE_COLUMNS[byte_index]],
        state["ciphertexts"][:, byte_index],
        state["table"],
        checkpoints=state["checkpoints"],
        correct_key=None if correct_key is None else correct_key[byte_index],
    )


def recover_last_round_key(
    column_leakage: np.ndarray,
    ciphertexts: np.ndarray,
    target_bit: int = 0,
    correct_key: Optional[bytes] = None,
    checkpoints: Optional[List[int]] = None,
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    health: Optional[CampaignHealth] = None,
) -> FullKeyResult:
    """CPA over all 16 last-round key bytes.

    Args:
        column_leakage: (N, 4) sensor readings, one per last-round
            column cycle (from
            :meth:`repro.core.AttackCampaign.collect_column_traces` or
            :meth:`repro.aes.LeakageModel.column_voltages`).
        ciphertexts: (N, 16) observed ciphertext blocks.
        target_bit: hypothesis bit within the pre-SBox byte.
        correct_key: true round-10 key for metrics, if known.
        checkpoints: progress checkpoints forwarded to each CPA.
        max_workers: if greater than 1, run the 16 independent per-byte
            CPAs concurrently (each byte's CPA is a fixed function of
            its inputs, so the result is identical to the serial loop).
            Default: one thread.
        policy: retry/timeout policy of :func:`map_ordered` (default
            :class:`RetryPolicy`; each byte's CPA is deterministic, so
            retries cannot change the result).
        health: accumulates the runtime's recovery events.

    Returns:
        a :class:`FullKeyResult` with one CPA result per key byte.
    """
    leakage = np.asarray(column_leakage, dtype=np.float64)
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    if leakage.ndim != 2 or leakage.shape[1] != 4:
        raise ValueError("column_leakage must have shape (N, 4)")
    if ct.shape != (leakage.shape[0], 16):
        raise ValueError("ciphertexts must have shape (N, 16)")

    state = {
        "leakage": leakage,
        "ciphertexts": ct,
        "table": single_bit_hypothesis(BYTE_VALUES, bit=target_bit),
        "checkpoints": checkpoints,
        "correct_key": correct_key,
    }
    results = map_ordered(
        partial(_attack_byte_task, state),
        range(16),
        max_workers=1 if max_workers is None else max_workers,
        policy=policy,
        sites=["byte[%d]" % index for index in range(16)],
        health=health,
    )
    return FullKeyResult(
        byte_results=list(results),
        true_last_round_key=correct_key,
    )
