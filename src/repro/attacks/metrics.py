"""Attack-quality metrics shared by experiments and benches.

Beyond the per-run metrics embedded in :class:`repro.attacks.CPAResult`
(rank, measurements-to-disclosure), this module provides campaign-level
metrics: guessing entropy over repeated attacks, success rate, and a
compact summary record used in EXPERIMENTS.md tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.attacks.cpa import CPAResult


@dataclass(frozen=True)
class AttackSummary:
    """One row of an experiment's result table.

    Attributes:
        label: experiment identifier (e.g. ``"fig10_cpa_alu"``).
        num_traces: traces used.
        disclosed: key byte recovered and stable at the end.
        mtd: measurements-to-disclosure, or None.
        final_margin: |corr(correct)| minus the best wrong candidate's
            |corr| at the final checkpoint (positive = separated).
    """

    label: str
    num_traces: int
    disclosed: bool
    mtd: Optional[int]
    final_margin: float


def summarize(label: str, result: CPAResult) -> AttackSummary:
    """Condense a :class:`CPAResult` into an :class:`AttackSummary`."""
    if result.correct_key is None:
        raise ValueError("result carries no correct key")
    final = np.abs(result.correlations[-1])
    correct = final[result.correct_key]
    wrong = np.delete(final, result.correct_key)
    return AttackSummary(
        label=label,
        num_traces=int(result.checkpoints[-1]),
        disclosed=result.disclosed,
        mtd=result.measurements_to_disclosure(),
        final_margin=float(correct - wrong.max()),
    )


def guessing_entropy(ranks: Sequence[int]) -> float:
    """Average key rank over repeated attack runs (lower = better)."""
    arr = np.asarray(list(ranks), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one rank")
    return float(arr.mean())


def success_rate(ranks: Sequence[int], threshold: int = 0) -> float:
    """Fraction of runs whose final rank is <= ``threshold``."""
    arr = np.asarray(list(ranks), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one rank")
    return float((arr <= threshold).mean())
