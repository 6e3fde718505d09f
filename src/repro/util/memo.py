"""A bounded, build-once memo shared by every per-configuration cache.

The campaign service's lease path (:mod:`repro.service.runners`) and
the in-process calibration layer (:mod:`repro.core.calibration_cache`)
memoize values that are expensive to build and keyed by configuration.
A long-running worker meets a fresh configuration per job, so every
such memo is an LRU of :data:`MEMO_ENTRIES`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable

#: Entries of every per-configuration memo.  A service job uses one
#: configuration: a fresh-seed attack of mixed service traffic builds
#: its configuration once for the two leases it splits into, and a
#: repeated configuration is served from the server's result cache
#: before it reaches a worker; a campaign workload uses one
#: configuration throughout, and the whole ``repro report`` sweep
#: calibrates three sensors.  Four keeps the configurations of the jobs
#: in flight resident, while a long-running worker that meets a fresh
#: seed per job holds at most four configurations (about 2 MiB each).
MEMO_ENTRIES = 4


class BuildOnce:
    """A keyed LRU of at most :data:`MEMO_ENTRIES` values that builds
    each value once, even when several threads ask for the same cold
    key at the same time: a miss builds under that key's own lock, so
    other keys still build concurrently.  A key's lock lives as long as
    its entry (or its build), so neither the values nor the locks grow
    with the number of keys ever seen.
    """

    def __init__(self):
        self._values: "OrderedDict[Hashable, object]" = OrderedDict()
        self._key_locks: Dict[Hashable, threading.Lock] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        with self._lock:
            for key in self._values:
                self._key_locks.pop(key, None)
            self._values.clear()

    def get(self, key: Hashable, build: Callable[[], object]):
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                if key in self._values:
                    self._values.move_to_end(key)
                    return self._values[key]
            try:
                value = build()
            except BaseException:
                with self._lock:
                    self._key_locks.pop(key, None)
                raise
            with self._lock:
                self._values[key] = value
                while len(self._values) > MEMO_ENTRIES:
                    victim, _ = self._values.popitem(last=False)
                    self._key_locks.pop(victim, None)
        return value
