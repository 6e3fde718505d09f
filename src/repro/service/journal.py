"""Write-ahead job journal: the durable half of the control plane.

Everything the scheduler knows about a job — that it was submitted,
started, leased to a fleet worker, spooled a checkpoint, finished —
lives in server memory, which makes the server the last single point
of failure in an otherwise crash-safe stack (PR 3 made the *campaign
computation* resumable, PR 7 made *workers* expendable).  This module
closes that gap with the classic database recipe:

* **Append-only log** — every job-lifecycle transition is one
  ``\\n``-terminated JSON record in ``journal.jsonl``, flushed and
  ``fsync``'d before the caller proceeds, so an acknowledged
  transition survives a SIGKILL of the server.
* **Snapshot compaction** — every ``compact_every`` appends the
  materialized job table is written to ``journal.snapshot.json``
  (atomically, via :func:`repro.util.fileio.atomic_write`) and the log
  is truncated, bounding replay time for long-lived servers.  The
  snapshot-then-truncate order plus a *monotone* reducer
  (:func:`apply_record` never moves a job backwards out of a terminal
  state) makes a crash between the two steps harmless: replay applies
  the old log on top of the snapshot and lands in the same state.
* **Replay** — opening a journal loads the snapshot, applies the log
  tail, and exposes the reconstructed job table; the scheduler turns
  unfinished entries back into queued :class:`~repro.service.jobs.JobState`s
  that resume through the existing spool-checkpoint machinery.  A
  *torn final record* (the server died mid-``write``) is dropped with
  a warning and replay proceeds — by write ordering the lost record
  was never acknowledged.  A torn record in the *middle* of the log
  means external corruption and raises a structured error.
* **Lock file** — ``journal.lock`` records the owning PID; a second
  server pointed at the same directory refuses to start
  (:class:`JournalLocked`) instead of double-replaying and running
  every recovered job twice.  A lock left by a dead PID is stale and
  is stolen silently — the common case after a SIGKILL.

The journal is deliberately ignorant of scheduling: it stores dicts,
validates record kinds, and counts.  The scheduler decides what a
record *means* on replay.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from typing import Dict, List, Set

from repro.util.errors import ReproError
from repro.util.fileio import atomic_write

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalLocked",
    "RECORD_KINDS",
    "apply_record",
]

#: Every transition kind the journal accepts, in lifecycle order.
RECORD_KINDS = (
    "submitted",
    "recovered",
    "started",
    "lease_granted",
    "lease_revoked",
    "checkpoint_spooled",
    "shard_quarantined",
    "done",
    "failed",
    "cancelled",
)

#: Statuses a replayed job can no longer leave.
_TERMINAL = ("done", "failed", "cancelled")

#: Filenames inside the journal directory.
LOG_NAME = "journal.jsonl"
SNAPSHOT_NAME = "journal.snapshot.json"
LOCK_NAME = "journal.lock"

#: Lock tokens held by journals open in *this* process, so an
#: in-process "crashed" journal (handles dropped, lock file left
#: behind — see :meth:`JobJournal.crash`) is recognized as stale while
#: a genuinely open one still refuses a second server.
_PROCESS_LOCKS: Set[str] = set()


class JournalError(ReproError):
    """The journal cannot be opened, appended, or replayed."""


class JournalLocked(JournalError):
    """Another live server already owns this journal directory."""

    def __init__(self, directory: str, pid: int):
        super().__init__(
            "journal directory %r is locked by a live repro-service "
            "(pid %d) — two servers must not share a spool; stop the "
            "other server or point --journal-dir elsewhere"
            % (directory, pid)
        )
        self.directory = directory
        self.pid = pid


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def apply_record(
    table: Dict[str, Dict[str, object]], record: Dict[str, object]
) -> None:
    """Fold one journal record into the materialized job table.

    The reducer is *monotone and idempotent*: re-applying a record
    that is already reflected (which happens when a crash lands
    between snapshot and log truncation) never regresses a job — in
    particular nothing moves a terminal job back to life, and
    ``submitted`` never resets an existing entry.
    """
    kind = str(record.get("record"))
    job_id = record.get("job_id")
    if not job_id:
        return
    job_id = str(job_id)
    entry = table.get(job_id)
    if entry is None:
        entry = table[job_id] = {"job_id": job_id, "status": "queued"}
    terminal = entry.get("status") in _TERMINAL
    if kind == "submitted":
        entry.setdefault("spec", record.get("spec"))
        entry.setdefault("submitted_at", record.get("time"))
    elif kind == "recovered":
        if not terminal:
            entry["status"] = "queued"
            entry["recovered"] = int(entry.get("recovered", 0)) + 1
    elif kind == "started":
        if not terminal:
            entry["status"] = "running"
            entry["started_at"] = record.get("time")
    elif kind == "checkpoint_spooled":
        entry["checkpoint"] = record.get("path")
    elif kind == "lease_granted":
        if not terminal:
            leases = entry.setdefault("leases", {})
            leases[str(record.get("shard"))] = {
                "worker": record.get("worker"),
                "attempt": record.get("attempt"),
            }
    elif kind == "lease_revoked":
        leases = entry.get("leases")
        if isinstance(leases, dict):
            leases.pop(str(record.get("shard")), None)
    elif kind == "shard_quarantined":
        quarantined = entry.setdefault("quarantined", [])
        if isinstance(quarantined, list):
            quarantined.append(
                {
                    "shard": record.get("shard"),
                    "workers": record.get("workers"),
                    "error": record.get("error"),
                }
            )
    elif kind in _TERMINAL:
        entry["status"] = kind
        entry["finished_at"] = record.get("time")
        if kind == "done":
            entry["cache_key"] = record.get("cache_key")
        else:
            entry["error"] = record.get("error") or record.get("reason")
        entry.pop("leases", None)


class JobJournal:
    """One directory of durable job state: log + snapshot + lock.

    Opening the journal acquires the lock and replays whatever a
    previous incarnation left behind; the reconstructed table is
    available immediately via :meth:`jobs` / :meth:`unfinished`.
    """

    def __init__(
        self,
        directory: str,
        compact_every: int = 256,
        fsync: bool = True,
    ):
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.directory = os.path.abspath(directory)
        self.compact_every = compact_every
        self.fsync = fsync
        self.path = os.path.join(self.directory, LOG_NAME)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self.lock_path = os.path.join(self.directory, LOCK_NAME)
        os.makedirs(self.directory, exist_ok=True)

        #: Records appended by this process (each one fsync'd).
        self.records_written = 0
        #: Records inherited from previous incarnations at open time
        #: (snapshot total + replayed log tail).
        self.records_replayed = 0
        #: 1 when opening found prior state to replay, else 0.
        self.replays = 0
        #: Snapshot compactions performed by this process.
        self.compactions = 0

        self._lock_token = "%d:%s" % (os.getpid(), os.urandom(8).hex())
        self._acquire_lock()
        self._table: Dict[str, Dict[str, object]] = {}
        self._since_compact = 0
        self._closed = False
        try:
            self._replay()
            self._log = open(self.path, "a", encoding="utf-8")
        except BaseException:
            self._release_lock()
            raise

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        payload = (self._lock_token + "\n").encode("utf-8")
        while True:
            try:
                fd = os.open(
                    self.lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                )
            except FileExistsError:
                owner_pid, owner_token = self._read_lock()
                if owner_token in _PROCESS_LOCKS or (
                    owner_pid != os.getpid() and _pid_alive(owner_pid)
                ):
                    raise JournalLocked(self.directory, owner_pid)
                # Stale lock from a killed server: steal it.  remove +
                # retry keeps the O_EXCL create as the only way in.
                try:
                    os.unlink(self.lock_path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            _PROCESS_LOCKS.add(self._lock_token)
            return

    def _read_lock(self) -> tuple:
        try:
            with open(self.lock_path, "r", encoding="utf-8") as handle:
                token = handle.read().strip()
        except OSError:
            return -1, ""
        pid_text = token.split(":", 1)[0]
        try:
            return int(pid_text), token
        except ValueError:
            return -1, token

    def _release_lock(self) -> None:
        _PROCESS_LOCKS.discard(self._lock_token)
        _owner_pid, owner_token = self._read_lock()
        if owner_token == self._lock_token:
            try:
                os.unlink(self.lock_path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        total_before = 0
        if os.path.exists(self.snapshot_path):
            try:
                with open(
                    self.snapshot_path, "r", encoding="utf-8"
                ) as handle:
                    snapshot = json.load(handle)
                # Valid JSON of the wrong shape is as unreadable as a
                # torn file.
                self._table = {
                    str(job_id): dict(entry)
                    for job_id, entry in (snapshot.get("jobs") or {}).items()
                }
                total_before += int(snapshot.get("total_records") or 0)
            except (OSError, ValueError, TypeError, AttributeError) as exc:
                raise JournalError(
                    "journal snapshot %r is unreadable: %s — remove it "
                    "to replay from the log alone"
                    % (self.snapshot_path, exc)
                ) from exc
        tail = self._read_log_records()
        for record in tail:
            apply_record(self._table, record)
        total_before += len(tail)
        self.records_replayed = total_before
        if total_before or self._table:
            self.replays = 1

    def _read_log_records(self) -> List[Dict[str, object]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if not raw:
            return []
        lines = raw.split(b"\n")
        # A complete log ends with "\n", so the final split element is
        # empty; anything else is the torn tail of an interrupted
        # append.
        torn_tail = lines.pop() if lines else b""
        records: List[Dict[str, object]] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record must be an object")
            except ValueError as exc:
                if number == len(lines) and not torn_tail:
                    # Newline landed but the payload did not: same
                    # torn-write case as a missing newline.
                    torn_tail = lines.pop()
                    break
                raise JournalError(
                    "journal %r is corrupt at record %d: %s"
                    % (self.path, number, exc)
                ) from exc
            records.append(record)
        if torn_tail:
            warnings.warn(
                "dropping torn final journal record (%d bytes) in %r — "
                "the transition was never acknowledged"
                % (len(torn_tail), self.path),
                RuntimeWarning,
                stacklevel=4,
            )
            # Truncate the torn bytes so the next append starts a
            # clean line.
            kept = b"\n".join(lines)
            if kept:
                kept += b"\n"
            with open(self.path, "wb") as handle:
                handle.write(kept)
                handle.flush()
                os.fsync(handle.fileno())
        return records

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, kind: str, job_id: str, **data: object) -> None:
        """Durably record one transition (fsync before returning)."""
        if kind not in RECORD_KINDS:
            raise JournalError(
                "unknown journal record kind %r (expected one of %s)"
                % (kind, ", ".join(RECORD_KINDS))
            )
        if self._closed:
            raise JournalError("journal is closed")
        record: Dict[str, object] = {
            "record": kind,
            "job_id": job_id,
            "time": time.time(),
        }
        record.update(data)
        self._log.write(json.dumps(record) + "\n")
        self._log.flush()
        if self.fsync:
            os.fsync(self._log.fileno())
        apply_record(self._table, record)
        self.records_written += 1
        self._since_compact += 1
        if self._since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> None:
        """Snapshot the job table and truncate the log.

        Crash-safe by ordering: the snapshot lands atomically first,
        and until the truncate lands the log still holds records the
        snapshot already covers — replay applies them on top and the
        monotone reducer makes that a no-op.
        """
        snapshot = {
            "version": 1,
            "total_records": self.total_records,
            "jobs": self._table,
        }
        blob = json.dumps(snapshot).encode("utf-8")
        atomic_write(self.snapshot_path, lambda handle: handle.write(blob))
        self._log.close()
        self._log = open(self.path, "w", encoding="utf-8")
        self._since_compact = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def total_records(self) -> int:
        """Records in this journal's history (replayed + written)."""
        return self.records_replayed + self.records_written

    def jobs(self) -> Dict[str, Dict[str, object]]:
        """Copy of the materialized job table."""
        return {
            job_id: dict(entry) for job_id, entry in self._table.items()
        }

    def unfinished(self) -> List[Dict[str, object]]:
        """Replayed jobs that never reached a terminal state."""
        return [
            dict(entry)
            for job_id, entry in sorted(self._table.items())
            if entry.get("status") not in _TERMINAL
        ]

    def counters(self) -> Dict[str, int]:
        return {
            "journal_records": self.total_records,
            "journal_replays": self.replays,
            "journal_compactions": self.compactions,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: flush, release the lock."""
        if self._closed:
            return
        self._closed = True
        try:
            self._log.flush()
            if self.fsync:
                os.fsync(self._log.fileno())
        except (OSError, ValueError):
            pass
        self._log.close()
        self._release_lock()

    def crash(self) -> None:
        """Simulate a SIGKILL for tests: drop handles, *leave the lock*.

        The lock file stays on disk exactly as a killed process would
        leave it, but its token is deregistered from the in-process
        set, so a successor journal in the same test process treats it
        as stale — the same path a real restart takes via the dead-PID
        check.
        """
        if self._closed:
            return
        self._closed = True
        self._log.close()
        _PROCESS_LOCKS.discard(self._lock_token)

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
