"""Tests for the campaign fan-out state (:mod:`repro.util.shm`).

The contract: every pool thread reads the driver's own objects and
arrays — no copies — and closing the fan-out drops its references.
"""

from functools import partial

import numpy as np

from repro.util.executors import map_ordered
from repro.util.shm import ArrayFanout


def _shard_sum(state, bounds):
    lo, hi = bounds
    return float(state.arrays["values"][lo:hi].sum()) + state.heavy["offset"]


class TestArrayFanout:
    def test_thread_backend_shares_driver_arrays(self):
        values = np.arange(100.0)
        with ArrayFanout(
            heavy={"offset": 0.0}, arrays={"values": values}
        ) as fanout:
            assert fanout.arrays["values"] is values

    def test_pool_threads_read_the_driver_arrays(self):
        values = np.arange(40_000, dtype=np.float64)
        bounds = [(i * 10_000, (i + 1) * 10_000) for i in range(4)]
        with ArrayFanout(
            heavy={"offset": 1.0}, arrays={"values": values}
        ) as fanout:
            results = list(map_ordered(
                partial(_shard_sum, fanout), bounds, max_workers=2
            ))
        assert results == [
            float(values[lo:hi].sum()) + 1.0 for lo, hi in bounds
        ]

    def test_close_drops_references_and_is_idempotent(self):
        fanout = ArrayFanout(heavy={"x": 1}, arrays={"values": np.ones(4)})
        fanout.close()
        assert fanout.heavy == {} and fanout.arrays == {}
        fanout.close()
