"""Shared low-level utilities: bits, seeded randomness, the worker pool.

These helpers are deliberately dependency-light; every other subpackage
may import from here, but :mod:`repro.util` imports nothing from the rest
of the library.
"""

from repro.util.errors import ReproError
from repro.util.executors import (
    EXECUTOR_THREAD,
    CampaignHealth,
    RetryPolicy,
    ShardError,
    TruncatedResultError,
    default_workers,
    map_ordered,
)
from repro.util.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.util.bits import (
    bits_to_int,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    parity,
)
from repro.util.fileio import atomic_write
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "EXECUTOR_THREAD",
    "FAULT_KINDS",
    "CampaignHealth",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ReproError",
    "RetryPolicy",
    "ShardError",
    "TruncatedResultError",
    "atomic_write",
    "bits_to_int",
    "default_workers",
    "derive_seed",
    "map_ordered",
    "hamming_distance",
    "hamming_weight",
    "int_to_bits",
    "make_rng",
    "parity",
]
