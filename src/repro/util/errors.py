"""Structured error hierarchy shared across the library.

Every failure the campaign runtime can recover from — or at least
report usefully — derives from :class:`ReproError`, so callers (most
importantly the CLI boundary in :mod:`repro.cli`) can distinguish
"something this toolkit understands went wrong" from a genuine bug and
turn it into a one-line actionable message instead of a raw traceback.

Concrete subclasses live next to the subsystem that raises them:

* :class:`repro.util.executors.ShardError` — a shard task exhausted
  its retry budget on every backend.
* :class:`repro.util.executors.TruncatedResultError` — a worker
  returned a payload inconsistent with its task.
* :class:`repro.attacks.cpa.NonFiniteValuesError` — NaN/Inf leakage or
  hypothesis values reached the CPA accumulator.
* :class:`repro.attacks.cpa.NonIntegralValuesError` — fractional leakage
  reached the by-value CPA accumulator, whose sums are exact only for
  integers.
* :class:`repro.experiments.checkpoint.CheckpointError` — a campaign
  checkpoint is unreadable or belongs to a different configuration.
"""

from __future__ import annotations

__all__ = ["ReproError"]


class ReproError(Exception):
    """Base class for all structured, user-reportable errors."""
