"""A campaign's fan-out state, shared by the pool threads in place.

Every shard task of one :func:`repro.experiments.parallel.run_campaign`
call reads the same heavy objects (campaign, generator, sensor,
preprocessing plan) and the same campaign-global arrays (voltages,
ciphertext bytes, plaintexts).  The pool runs on threads, so tasks hold
one :class:`ArrayFanout` and read the driver's objects directly: nothing
is copied or serialized, per task or per retry.  A fleet lease
(:func:`repro.experiments.parallel.run_lease`) wraps its one shard in
one too.

The module and the class keep their names, and ``run_campaign`` and
``run_lease`` stay the only places that construct an
:class:`ArrayFanout`, because the benchmark's traced runs wrap
``ArrayFanout.__init__`` and ``ArrayFanout.close`` by name
(``bench/spans.py`` ``PATCHES``).  That holds until ROADMAP item 2
replaces the patch table with in-program spans.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["ArrayFanout"]


class ArrayFanout:
    """One campaign's heavy objects and arrays, as a single lifecycle.

    ``heavy`` and ``arrays`` are the driver's own objects, never copies.
    Exiting the context (normally or via an exception) drops the
    fan-out's references to them.
    """

    def __init__(
        self, heavy: Dict[str, object], arrays: Dict[str, np.ndarray]
    ) -> None:
        self.heavy = heavy
        self.arrays = arrays

    def close(self) -> None:
        """Drop the references (idempotent)."""
        self.heavy = {}
        self.arrays = {}

    def __enter__(self) -> "ArrayFanout":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
