"""Content-addressed result cache for the campaign service.

A countermeasure evaluation sweeps the same campaigns over and over —
same seed, same trace budget, same circuit — and every campaign is a
pure function of its content parameters (the whole runtime is built on
that determinism).  So results are cached by *content address*: the
SHA-256 config hash of the job's result-determining parameters
(:meth:`repro.service.jobs.JobSpec.cache_key`, the same hashing the
crash-safe checkpoints use to fence off mismatched resumes).

A result is stored as its canonical text
(:func:`repro.service.codec.payload_text`), never parsed or re-encoded
here.  Two layers, mirroring the calibration cache
(:mod:`repro.core.calibration_cache`):

* **in-memory** — result texts keyed by hash, always on, and bounded:
  an LRU under :data:`MEMORY_BUDGET_BYTES` of text (recency = hits and
  stores).  The entry just stored or loaded stays even when it alone
  exceeds the budget;
* **on-disk** — one ``<key>.json`` per entry under ``directory``
  (written atomically via :func:`repro.util.fileio.atomic_write`),
  only when a directory is configured, so entries survive server
  restarts.  An entry is ``{"key", "payload", "version"}`` as
  sorted-key JSON.  Payloads carry arrays base64-exactly
  (:mod:`repro.service.codec`), so a disk hit is bit-identical to the
  original computation.

The disk layer can be bounded: ``max_disk_bytes`` caps the directory's
total entry bytes with LRU eviction (recency = disk hits and stores,
tracked in insertion order; a restart reconstructs the order from file
mtimes).  The entry being written is never evicted by its own ``put``,
so a single oversized result still lands — the cap bounds *growth* on
long-running servers.  A disk eviction drops the memory copy too.

The cache is the only owner of a finished job's payload: the scheduler
hands a fresh result to the clients already streaming its job and keeps
no reference, so a view of a finished job (:meth:`ResultCache.peek`)
finds ``None`` once the result has been evicted from every layer.
:meth:`ResultCache.put` (an fsync with a disk layer) may run on a
worker thread while the event loop serves lookups.

Hits, misses, stores and evictions are counted in :class:`CacheStats`
and mirrored into the service metrics registry by the scheduler.  A
corrupt disk entry is treated as a miss (and deleted), never as an
error: the cache must only ever make the service faster, not less
correct.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.util.fileio import atomic_write

__all__ = ["CacheStats", "ResultCache"]

#: Bump when the payload layout changes incompatibly.
CACHE_FORMAT_VERSION = 1

#: Byte budget of the in-memory layer, counted as result text.  Mixed
#: service traffic re-reads only its attack results: the four pool-seed
#: attacks of the service benchmark are about 0.7 MB together, while
#: each tracegen result (1.6 MB per 2k traces) is read once, by its
#: submitter.  32 MiB holds that hot set many times over and caps what
#: a long-running server keeps of the results it has served.
MEMORY_BUDGET_BYTES = 32 * 2 ** 20


def _entry_parts(key: str) -> Tuple[bytes, bytes]:
    """The bytes around the payload text in ``key``'s disk entry:
    ``json.dumps({"key", "payload", "version"}, sort_keys=True)``
    spliced, not re-encoded."""
    return (
        ('{"key": %s, "payload": ' % json.dumps(key)).encode("utf-8"),
        (', "version": %d}' % CACHE_FORMAT_VERSION).encode("utf-8"),
    )


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters of one :class:`ResultCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_entries: int = 0
    evictions: int = 0
    evicted_bytes: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_entries": self.corrupt_entries,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
        }


class ResultCache:
    """Hash-keyed result-text store: a byte-bounded in-memory LRU in
    front of optional, optionally bounded, disk persistence.

    :meth:`get` is the lookup that counts (hits, misses, recency);
    :meth:`peek` is the read-only view a status request uses.  The
    memory layer never holds more than :data:`MEMORY_BUDGET_BYTES`
    except for the single newest entry, so a memory-only server keeps
    a bounded window of recent results rather than all of them.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
    ):
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be >= 1")
        self.directory = Path(directory) if directory else None
        self.max_disk_bytes = max_disk_bytes
        self.stats = CacheStats()
        # Guards both indexes and the counters; file writes run outside.
        self._lock = threading.Lock()
        # key -> result text, least recently used first.
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._memory_bytes = 0
        # key -> entry bytes, least recently used first.
        self._disk_entries: "OrderedDict[str, int]" = OrderedDict()
        self._disk_bytes = 0
        if self.directory is not None and self.directory.is_dir():
            self._scan_directory()

    def _scan_directory(self) -> None:
        """Rebuild the LRU index from an existing cache directory.

        File mtimes approximate the pre-restart recency order; exact
        order only shifts *which* cold entry goes first, never
        correctness (every entry is independently content-addressed).
        """
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.stem, stat.st_size))
        for _mtime, key, size in sorted(entries):
            self._disk_entries[key] = int(size)
            self._disk_bytes += int(size)

    @property
    def disk_bytes(self) -> int:
        """Total bytes of tracked on-disk entries."""
        return self._disk_bytes

    @property
    def memory_bytes(self) -> int:
        """Text bytes of the in-memory entries."""
        return self._memory_bytes

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / ("%s.json" % key)

    def get(self, key: str) -> Tuple[Optional[str], str]:
        """Look up a result's text; returns ``(text, layer)``.

        ``layer`` is ``"memory"``, ``"disk"``, or ``"miss"`` — the
        scheduler records it on the job state so clients can see where
        their result came from.
        """
        with self._lock:
            text = self._memory.get(key)
            if text is not None:
                self.stats.memory_hits += 1
                self._memory.move_to_end(key)
                if key in self._disk_entries:
                    self._disk_entries.move_to_end(key)
                return text, "memory"
            text = self._read_disk(key)
            if text is not None:
                self.stats.disk_hits += 1
                self._remember(key, text)
                if key in self._disk_entries:
                    self._disk_entries.move_to_end(key)
                return text, "disk"
            self.stats.misses += 1
            return None, "miss"

    def peek(self, key: str) -> Optional[str]:
        """The text under ``key`` from either layer, or None.

        A view, not a lookup: it counts no hit or miss, refreshes no
        recency and does not copy a disk entry into memory, so status
        requests neither skew the hit ratio nor evict hot results.
        """
        with self._lock:
            text = self._memory.get(key)
            return text if text is not None else self._read_disk(key)

    def put(self, key: str, text: str) -> None:
        """Store a result's text in memory and (when configured) on
        disk.  The fsync'd file write holds no lock, so lookups on
        other threads proceed while it runs."""
        with self._lock:
            self._remember(key, text)
            self.stats.stores += 1
        path = self._path(key)
        if path is None:
            return
        head, tail = _entry_parts(key)
        body = head + text.encode("utf-8") + tail
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(str(path), lambda handle: handle.write(body))
        with self._lock:
            self._track_entry(key, len(body))
            self._evict(exempt=key)

    def _remember(self, key: str, text: str) -> None:
        """Insert ``key`` as the newest memory entry, then evict the
        least recently used others until the layer fits its budget."""
        self._forget_memory(key)
        self._memory[key] = text
        self._memory_bytes += len(text)
        while (
            self._memory_bytes > MEMORY_BUDGET_BYTES
            and len(self._memory) > 1
        ):
            self._forget_memory(next(iter(self._memory)))

    def _forget_memory(self, key: str) -> None:
        text = self._memory.pop(key, None)
        if text is not None:
            self._memory_bytes -= len(text)

    def _track_entry(self, key: str, size: int) -> None:
        previous = self._disk_entries.pop(key, None)
        if previous is not None:
            self._disk_bytes -= previous
        self._disk_entries[key] = size
        self._disk_bytes += size

    def _forget_entry(self, key: str) -> int:
        size = self._disk_entries.pop(key, None)
        if size is None:
            return 0
        self._disk_bytes -= size
        return size

    def _evict(self, exempt: Optional[str] = None) -> None:
        """Drop least-recently-used disk entries until under the cap.

        The ``exempt`` key (the entry just written) survives even when
        it alone exceeds the cap: the cap bounds accumulation, it does
        not veto individual results.
        """
        if self.max_disk_bytes is None:
            return
        while self._disk_bytes > self.max_disk_bytes:
            victim = next(
                (key for key in self._disk_entries if key != exempt), None
            )
            if victim is None:
                return
            size = self._forget_entry(victim)
            path = self._path(victim)
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            # The memory layer mirrors the eviction so a bounded server
            # actually sheds the entry instead of hiding it in RAM.
            self._forget_memory(victim)
            self.stats.evictions += 1
            self.stats.evicted_bytes += size

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries stay).

        Operational hook for long-running servers (and the fleet
        benchmark, which must force repeat submissions to recompute).
        """
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0

    def _read_disk(self, key: str) -> Optional[str]:
        """Read one disk entry's text; corrupt or mismatched files are
        purged."""
        path = self._path(key)
        if path is None or not path.is_file():
            return None
        head, tail = _entry_parts(key)
        try:
            with open(path, "rb") as handle:
                body = handle.read()
            if not (body.startswith(head) and body.endswith(tail)):
                raise ValueError("stale or mismatched entry")
            text = body[len(head):-len(tail)].decode("utf-8")
            if not isinstance(json.loads(text), dict):
                raise ValueError("payload is not an object")
            return text
        except (OSError, ValueError):
            self.stats.corrupt_entries += 1
            self._forget_entry(key)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def __len__(self) -> int:
        return len(self._memory)
