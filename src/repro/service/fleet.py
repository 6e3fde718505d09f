"""Fleet coordinator: multi-host shard dispatch for the campaign loop.

One campaign, many machines.  Remote workers (:mod:`repro.service.worker`)
connect over the service's TCP port, upgrade the JSON-lines connection
with a ``worker_register`` op, and from then on speak the binary frame
protocol of :mod:`repro.service.codec` in both directions.  The
:class:`FleetCoordinator` owns the other end:

* **Leases** — a fleet job runs the one campaign loop
  (:func:`repro.experiments.parallel.run_campaign`) with the
  coordinator's dispatcher (:meth:`FleetCoordinator.dispatcher`) in
  place of the local pool; each shard the loop plans is *leased* to one
  worker at a time, and the lease carries the attempt number so
  deterministic fault injection (:class:`repro.util.faults.FaultPlan`)
  keys exactly like the single-host runtime.
* **Cache-aware placement** — workers advertise the config hashes they
  have warm (rebuilt campaign inputs, on-disk result-cache entries);
  a shard whose job config hash is warm on some free worker goes
  there, so repeated sweeps over the same configuration never re-derive
  inputs.  Ties break on free slots then worker id — deterministic.
* **Failure handling** — a missed heartbeat window or an expired
  per-lease deadline revokes the worker's leases and requeues the
  shards at ``attempt + 1`` (up to ``max_lease_attempts``); a dropped
  connection requeues immediately.  Because every shard task is a pure
  function of the job parameters and its trace range, reassignment and
  even *duplicate* completions (a revoked worker finishing late) are
  harmless: the first result per shard wins.  Every lease attempt is
  one record of the job's :class:`~repro.util.executors.CampaignHealth`.
* **Validation** — every lease result passes the campaign statistic's
  validator before it is kept; a malformed one counts as a worker
  error: requeue, and toward distinct-worker quarantine.
* **Hand-off** — validated results go back to the campaign loop in plan
  order as they land, and the loop merges, checkpoints and scores them
  as it does the local pool's: byte-identical at any fleet size,
  interleaving or reassignment history, and resumable from the spool.

The coordinator lives inside the scheduler's event loop; all state is
mutated from that loop, so there are no locks — only per-worker send
serialization.
"""

from __future__ import annotations

import asyncio
import json
import queue
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.experiments.parallel import (
    # Fleet leases merge in run_campaign; the name stays importable
    # here for the bench ledger's patch table (bench/spans.py).
    run_campaign as merge_attack_partials,  # noqa: F401
)
from repro.service.codec import CodecError, read_message, write_message
from repro.service.jobs import JobSpec
from repro.service.journal import JobJournal
from repro.service.metrics import MetricsRegistry
from repro.util.errors import ReproError

__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "FleetError",
    "ShardQuarantined",
]


#: Shards planned per free fleet slot, so reassignment after a
#: mid-campaign loss only repeats a fraction of one worker's share.
SHARDS_PER_SLOT = 2


class FleetError(ReproError):
    """A fleet-dispatched job cannot start or finish."""


@dataclass(frozen=True)
class ShardQuarantined:
    """Structured record of a poison shard.

    A shard that raises on ``quarantine_after`` *distinct* workers is
    the work being poisonous, not a worker being flaky (flaky-worker
    failures — drops, timeouts — requeue without counting here).  The
    job fails fast with this record instead of burning the remaining
    lease attempts across the whole fleet.
    """

    job_id: str
    shard_index: int
    start: int
    end: int
    workers: Tuple[str, ...]
    last_error: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "shard_index": self.shard_index,
            "start": self.start,
            "end": self.end,
            "workers": list(self.workers),
            "last_error": self.last_error,
        }

    def describe(self) -> str:
        return (
            "shard %d [%d:%d] quarantined after failing on %d distinct "
            "worker(s) (%s) — last error: %s; the shard itself is "
            "poisonous — fix the input/environment and resubmit, or "
            "rerun locally with --param fleet=false to debug"
            % (
                self.shard_index,
                self.start,
                self.end,
                len(self.workers),
                ", ".join(self.workers),
                self.last_error,
            )
        )


@dataclass(frozen=True)
class FleetConfig:
    """Tunables of the fleet coordinator.

    Attributes:
        heartbeat_s: interval workers are told to heartbeat at
            (returned in the registration ack).
        heartbeat_timeout_s: silence window after which a worker is
            declared dead and its leases are requeued.
        lease_timeout_s: per-lease wall-clock deadline; catches a
            *hung* worker whose heartbeats keep arriving while the
            shard thread never finishes (None: no deadline).
        max_lease_attempts: attempts per shard before the job fails.
        quarantine_after: distinct workers a shard must *raise* on
            before it is declared poisonous and the job fails fast
            with a :class:`ShardQuarantined` record (connection drops
            and timeouts don't count — those blame the worker, not
            the shard).
        register_grace_s: how long a fleet-required job waits for the
            first worker registration before failing.  Zero fails
            immediately; a restarted server sets this above the
            workers' reconnect backoff so recovered ``fleet=true``
            jobs survive the window where every worker is still
            redialing.
    """

    heartbeat_s: float = 2.0
    heartbeat_timeout_s: float = 10.0
    lease_timeout_s: Optional[float] = None
    max_lease_attempts: int = 3
    quarantine_after: int = 2
    register_grace_s: float = 0.0

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.register_grace_s < 0:
            raise ValueError("register_grace_s must be non-negative")
        if self.heartbeat_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat intervals must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_s"
            )
        if self.lease_timeout_s is not None and self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if self.max_lease_attempts < 1:
            raise ValueError("max_lease_attempts must be >= 1")


class _FleetJob:
    """One fleet job's campaign, and its dispatcher: called on the
    campaign loop's thread, it opens the job on the event loop and
    yields each validated lease result (``ready``) once it and every
    earlier shard have landed; only a result that lands early waits in
    ``landed``.  ``width``: ``SHARDS_PER_SLOT`` shards per fleet slot."""

    def __init__(
        self,
        coordinator: "FleetCoordinator",
        spec: JobSpec,
        job_id: str,
        on_event: Optional[Callable[..., None]],
    ):
        self.coordinator = coordinator
        self.spec = spec
        self.job_id = job_id
        self.on_event = on_event
        self.loop = asyncio.get_running_loop()
        self.width = coordinator.total_slots * SHARDS_PER_SLOT
        self.ready: "queue.SimpleQueue" = queue.SimpleQueue()
        self.pending: Deque[int] = deque()
        self.attempts: Dict[int, int] = {}
        self.outstanding: Dict[int, "_Lease"] = {}
        self.landed: Dict[int, object] = {}
        self.released = 0
        # Distinct workers each shard has *raised* on — the poison-
        # shard signal (drops/timeouts stay out of this set).
        self.failed_workers: Dict[int, Set[str]] = {}
        self.closed = False

    def __call__(self, tasks, health, validate):
        self.tasks, self.health, self.validate = tasks, health, validate
        self.pending.extend(range(len(tasks)))
        started = time.monotonic()
        asyncio.run_coroutine_threadsafe(
            self.coordinator._open(self), self.loop
        ).result()
        try:
            for _ in tasks:
                result = self.ready.get()
                if isinstance(result, FleetError):
                    raise result
                yield result
        finally:
            health.wall_time += time.monotonic() - started
            self.loop.call_soon_threadsafe(self.coordinator._close, self)

    def shard(self, index: int):
        return self.tasks[index]["shard"]

    def has(self, index: int) -> bool:
        """Has shard ``index``'s result already landed?"""
        return index < self.released or index in self.landed

    def land(self, index: int, result: object) -> None:
        """Keep a validated result; release every result now in order."""
        self.landed[index] = result
        while self.released in self.landed:
            self.ready.put(self.landed.pop(self.released))
            self.released += 1
        if self.released == len(self.tasks):
            self.closed = True

    def record(self, lease: "_Lease", status: str, error=None) -> None:
        """One lease attempt into the campaign's health."""
        seconds = self.loop.time() - lease.started_at
        site = self.shard(lease.shard_index).site
        self.health.record(site, lease.attempt, status, seconds, error)

    def event(self, kind: str, **data: object) -> None:
        if self.on_event is not None:
            self.on_event(kind, **data)

    def close(self) -> None:
        """Stop leasing: the job finished, failed or was abandoned."""
        self.closed = True
        self.pending.clear()
        self.outstanding.clear()

    def fail(self, reason: str) -> None:
        if self.closed:
            return
        self.close()
        self.ready.put(FleetError("fleet job failed: %s" % reason))


@dataclass
class _Lease:
    """One shard's current assignment to one worker."""

    lease_id: str
    job: _FleetJob
    shard_index: int
    worker_id: str
    attempt: int
    started_at: float
    revoked: bool = False


class _Worker:
    """Server-side view of one registered fleet worker."""

    def __init__(
        self,
        worker_id: str,
        info: Dict[str, object],
        writer: asyncio.StreamWriter,
        now: float,
    ):
        self.worker_id = worker_id
        self.name = str(info.get("name") or worker_id)
        self.slots = max(1, int(info.get("slots") or 1))
        self.cpus = int(info.get("cpus") or 1)
        self.kernels = info.get("kernels")
        self.warm_keys: Set[str] = {
            str(key) for key in (info.get("warm_keys") or [])
        }
        self.writer = writer
        self.leases: Dict[str, _Lease] = {}
        self.last_heartbeat = now
        self.closed = False
        self._send_lock = asyncio.Lock()

    @property
    def free_slots(self) -> int:
        return max(0, self.slots - len(self.leases))

    async def send(self, message: object) -> None:
        async with self._send_lock:
            await write_message(self.writer, message)

    def as_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "name": self.name,
            "slots": self.slots,
            "cpus": self.cpus,
            "active_leases": len(self.leases),
            "warm_keys": len(self.warm_keys),
        }


class FleetCoordinator:
    """Routes fleet jobs' shard leases to registered workers."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        config: Optional[FleetConfig] = None,
        journal: Optional[JobJournal] = None,
    ):
        self.config = config or FleetConfig()
        self.metrics = metrics or MetricsRegistry()
        self.journal = journal
        self._workers: Dict[str, _Worker] = {}
        self._jobs: Dict[str, _FleetJob] = {}
        self._leases: Dict[str, _Lease] = {}
        self._worker_seq = 0
        self._lease_seq = 0
        self._monitor: Optional[asyncio.Task] = None

    def _journal(self, kind: str, job_id: str, **data: object) -> None:
        if self.journal is not None:
            self.journal.append(kind, job_id, **data)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the heartbeat/lease monitor (idempotent)."""
        if self._monitor is None or self._monitor.done():
            self._monitor = asyncio.create_task(
                self._monitor_loop(), name="fleet-monitor"
            )

    async def stop(self) -> None:
        """Cancel the monitor and disconnect every worker."""
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        for worker in list(self._workers.values()):
            try:
                await worker.send({"type": "drain"})
            except Exception:  # noqa: BLE001 — already disconnecting
                pass
            await self._drop_worker(worker, "coordinator stopped")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def has_workers(self) -> bool:
        return bool(self._workers)

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def total_slots(self) -> int:
        return sum(worker.slots for worker in self._workers.values())

    def snapshot(self) -> Dict[str, object]:
        return {
            "workers": [
                worker.as_dict() for worker in self._workers.values()
            ],
            "active_jobs": len(self._jobs),
        }

    # ------------------------------------------------------------------
    # Worker connections (driven by the server's connection handler)
    # ------------------------------------------------------------------
    async def serve_worker(
        self,
        info: Dict[str, object],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Own one worker connection until it drops.

        Called by the server when a connection sends ``worker_register``;
        acks with the assigned id as a JSON line (the last line-oriented
        exchange), then reads framed messages until EOF.  Any exit path
        requeues the worker's outstanding leases.
        """
        self._worker_seq += 1
        worker_id = "w-%04d" % self._worker_seq
        loop = asyncio.get_running_loop()
        worker = _Worker(worker_id, dict(info or {}), writer, loop.time())
        self._workers[worker_id] = worker
        self.metrics.set_gauge("fleet_workers", len(self._workers))
        self.metrics.inc("fleet_workers_registered")
        reconnects = int(dict(info or {}).get("reconnects") or 0)
        if reconnects > 0:
            # The worker outlived a connection (or a whole server) and
            # redialed — the durability path the chaos suite exercises.
            self.metrics.inc("worker_reconnects")
        try:
            # The ack write sits *inside* the reap scope: a worker
            # SIGKILLed between register and its first lease would
            # otherwise leave a phantom capability entry that only the
            # heartbeat timeout clears, soaking up lease assignments
            # meanwhile.
            ack = {
                "ok": True,
                "worker_id": worker_id,
                "heartbeat_s": self.config.heartbeat_s,
            }
            writer.write(json.dumps(ack).encode("utf-8") + b"\n")
            await writer.drain()
            await self._pump()
            while True:
                try:
                    message = await read_message(reader)
                except CodecError:
                    break  # torn mid-message: treat as a dead worker
                if message is None or not isinstance(message, dict):
                    break
                kind = message.get("type")
                if kind == "heartbeat":
                    worker.last_heartbeat = loop.time()
                    for key in message.get("warm_keys") or []:
                        worker.warm_keys.add(str(key))
                elif kind == "result":
                    await self._on_result(worker, message)
                elif kind == "error":
                    await self._on_error(worker, message)
        finally:
            await self._drop_worker(worker, "connection closed")

    async def _drop_worker(self, worker: _Worker, reason: str) -> None:
        if worker.closed:
            return
        worker.closed = True
        self._workers.pop(worker.worker_id, None)
        self.metrics.set_gauge("fleet_workers", len(self._workers))
        leases = list(worker.leases.values())
        worker.leases.clear()
        for lease in leases:
            await self._requeue(lease, "%s (%s)" % (reason, worker.name))
        try:
            worker.writer.close()
        except Exception:  # noqa: BLE001 — transport already gone
            pass
        if not self._workers:
            for job in list(self._jobs.values()):
                job.fail("last fleet worker disconnected (%s)" % reason)
            self._jobs.clear()
        else:
            await self._pump()

    # ------------------------------------------------------------------
    # Job dispatch
    # ------------------------------------------------------------------
    async def dispatcher(
        self,
        spec: JobSpec,
        job_id: str,
        on_event: Optional[Callable[..., None]] = None,
    ) -> _FleetJob:
        """The dispatcher that runs a job's campaign on the fleet
        (through its runner's :func:`~repro.experiments.parallel.
        run_campaign`).  :class:`FleetError` when no worker is connected,
        and from the campaign when a shard exhausts its attempts, is
        quarantined or loses the last worker."""
        if not self._workers and self.config.register_grace_s > 0:
            # After a server restart, reconnecting workers race the
            # recovered fleet jobs; give registration a bounded head
            # start instead of failing acknowledged work instantly.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.config.register_grace_s
            while not self._workers and loop.time() < deadline:
                await asyncio.sleep(0.05)
        if not self._workers:
            raise FleetError(
                "no fleet workers connected — start one with "
                "`repro worker HOST:PORT`"
            )
        return _FleetJob(self, spec, job_id, on_event)

    async def _open(self, job: _FleetJob) -> None:
        """Start leasing a campaign's shards (on the event loop)."""
        if not self._workers:
            job.fail("no fleet workers connected")
            return
        self._jobs[job.job_id] = job
        job.event(
            "fleet_dispatch",
            shards=len(job.tasks),
            workers=len(self._workers),
            slots=self.total_slots,
        )
        await self._pump()

    def _close(self, job: _FleetJob) -> None:
        """The campaign loop stopped reading: lease nothing more."""
        job.close()
        if self._jobs.get(job.job_id) is job:
            del self._jobs[job.job_id]

    def _pick_worker(
        self, job: _FleetJob, exclude: Set[str] = frozenset()
    ) -> Optional[_Worker]:
        """Cache-aware placement: warm first, then free slots, then id.

        ``exclude`` holds workers that already *errored* on the shard
        being placed: a retry must land on a distinct worker so the
        quarantine verdict ("the shard is poisonous, not the worker")
        rests on independent evidence.  While a connected worker that
        has not failed the shard is busy, the shard waits for it (None);
        only when every connected worker has failed the shard does
        placement fall back to them — liveness beats diversity, and the
        attempt budget still bounds the job.
        """
        candidates = [
            worker
            for worker in self._workers.values()
            if worker.free_slots > 0 and not worker.closed
        ]
        if not candidates:
            return None
        fresh = [
            worker
            for worker in candidates
            if worker.worker_id not in exclude
        ]
        if not fresh and any(
            worker.worker_id not in exclude and not worker.closed
            for worker in self._workers.values()
        ):
            return None
        pool = fresh or candidates
        warm = [
            worker
            for worker in pool
            if job.spec.cache_key in worker.warm_keys
        ]
        pool = warm or pool
        pool.sort(key=lambda w: (-w.free_slots, w.worker_id))
        self.metrics.inc(
            "fleet_placement_warm" if warm else "fleet_placement_cold"
        )
        return pool[0]

    async def _pump(self) -> None:
        """Assign pending shards to free slots until one side runs out."""
        loop = asyncio.get_running_loop()
        assignments: List[tuple] = []
        for job in list(self._jobs.values()):
            # A retry waiting for a busy worker that has not failed it
            # stays pending on its own; the shards behind it still take
            # whatever slots are free.
            deferred: List[int] = []
            while job.pending and not job.closed:
                index = job.pending.popleft()
                worker = self._pick_worker(
                    job, job.failed_workers.get(index, frozenset())
                )
                if worker is None:
                    deferred.append(index)
                    continue
                self._lease_seq += 1
                lease = _Lease(
                    lease_id="lease-%06d" % self._lease_seq,
                    job=job,
                    shard_index=index,
                    worker_id=worker.worker_id,
                    attempt=job.attempts.get(index, 0),
                    started_at=loop.time(),
                )
                worker.leases[lease.lease_id] = lease
                job.outstanding[index] = lease
                self._leases[lease.lease_id] = lease
                shard = job.shard(index)
                assignments.append(
                    (
                        worker,
                        {
                            "type": "lease",
                            "lease_id": lease.lease_id,
                            "job_id": job.job_id,
                            "kind": job.spec.kind,
                            "params": dict(job.spec.params),
                            "cache_key": job.spec.cache_key,
                            "shard_index": index,
                            "start": shard.start,
                            "end": shard.end,
                            "segment_ends": list(
                                job.tasks[index]["segment_ends"]
                            ),
                            "attempt": lease.attempt,
                        },
                    )
                )
                self.metrics.inc("fleet_leases_issued")
            job.pending.extendleft(reversed(deferred))
        for worker, message in assignments:
            try:
                await worker.send(message)
            except Exception:  # noqa: BLE001 — connection died mid-send
                await self._drop_worker(worker, "send failed")
                continue
            # Journaled *after* the send succeeds: the record doubles
            # as the chaos harness's barrier signal that a shard is
            # genuinely in flight on a remote worker.
            self._journal(
                "lease_granted",
                message["job_id"],
                shard=message["shard_index"],
                start=message["start"],
                end=message["end"],
                worker=worker.worker_id,
                attempt=message["attempt"],
                lease_id=message["lease_id"],
            )

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    async def _on_result(
        self, worker: _Worker, message: Dict[str, object]
    ) -> None:
        lease_id = str(message.get("lease_id"))
        lease = self._leases.get(lease_id)
        worker.leases.pop(lease_id, None)
        if lease is None:
            self.metrics.inc("fleet_duplicate_results")
            await self._pump()
            return
        job = lease.job
        index = lease.shard_index
        if job.closed or job.has(index):
            # A reassigned shard completed twice.  Shard tasks are pure
            # functions of (params, range), so the late copy is
            # bit-identical to the kept one; dropping it is the
            # idempotent merge.
            self.metrics.inc("fleet_duplicate_results")
            await self._pump()
            return
        result = message.get("result")
        try:
            job.validate(job.tasks[index], result)
        except Exception as exc:  # noqa: BLE001 — the worker's fault
            # A malformed result is the worker failing the lease: the
            # same requeue and distinct-worker quarantine as an error.
            self.metrics.inc("fleet_invalid_results")
            await self._on_error(
                worker,
                {"lease_id": lease_id, "error": "invalid result: %s" % exc},
            )
            return
        if job.outstanding.get(index) is lease:
            del job.outstanding[index]
        self._leases.pop(lease_id, None)
        worker.warm_keys.add(job.spec.cache_key)
        self.metrics.inc("fleet_shards_completed")
        job.record(lease, "ok")
        job.land(index, result)
        job.event(
            "shard_done",
            shard=index,
            worker=worker.name,
            attempt=lease.attempt,
            completed=job.released + len(job.landed),
            total=len(job.tasks),
        )
        await self._pump()

    async def _on_error(
        self, worker: _Worker, message: Dict[str, object]
    ) -> None:
        lease_id = str(message.get("lease_id"))
        lease = self._leases.get(lease_id)
        worker.leases.pop(lease_id, None)
        if lease is None:
            return
        self.metrics.inc("fleet_shard_errors")
        error = str(message.get("error", "unknown"))
        job = lease.job
        index = lease.shard_index
        if not job.closed and not job.has(index):
            failed_on = job.failed_workers.setdefault(index, set())
            failed_on.add(worker.worker_id)
            if len(failed_on) >= self.config.quarantine_after:
                self._quarantine(lease, failed_on, error)
                await self._pump()
                return
        await self._requeue(lease, "worker error: %s" % error)
        await self._pump()

    def _quarantine(
        self, lease: "_Lease", failed_on: Set[str], error: str
    ) -> None:
        """Declare a shard poisonous and fail its job fast."""
        lease.revoked = True
        self._leases.pop(lease.lease_id, None)
        job = lease.job
        index = lease.shard_index
        if job.outstanding.get(index) is lease:
            del job.outstanding[index]
        shard = job.shard(index)
        job.record(lease, "error", error)
        record = ShardQuarantined(
            job_id=job.job_id,
            shard_index=index,
            start=shard.start,
            end=shard.end,
            workers=tuple(sorted(failed_on)),
            last_error=error,
        )
        self.metrics.inc("shards_quarantined")
        self.metrics.inc("fleet_jobs_failed")
        self._journal(
            "shard_quarantined",
            job.job_id,
            shard=index,
            workers=list(record.workers),
            error=error,
        )
        job.event("shard_quarantined", **record.as_dict())
        job.fail(record.describe())

    async def _requeue(
        self, lease: _Lease, reason: str, status: str = "error"
    ) -> None:
        """Revoke one lease and requeue its shard (or fail the job)."""
        lease.revoked = True
        self._leases.pop(lease.lease_id, None)
        job = lease.job
        index = lease.shard_index
        if job.closed or job.has(index):
            return
        job.record(lease, status, reason)
        if job.outstanding.get(index) is lease:
            del job.outstanding[index]
        self._journal(
            "lease_revoked",
            job.job_id,
            shard=index,
            attempt=lease.attempt,
            reason=reason,
        )
        next_attempt = lease.attempt + 1
        if next_attempt >= self.config.max_lease_attempts:
            self.metrics.inc("fleet_jobs_failed")
            job.fail(
                "shard %d exhausted %d attempts (last: %s)"
                % (index, next_attempt, reason)
            )
            return
        job.attempts[index] = next_attempt
        # Reassigned work goes to the queue front: finishing the
        # recovery before fresh shards keeps tail latency bounded.
        job.pending.appendleft(index)
        self.metrics.inc("fleet_leases_reassigned")
        job.event(
            "lease_reassigned",
            shard=index,
            attempt=next_attempt,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Monitor: heartbeat windows and per-lease deadlines
    # ------------------------------------------------------------------
    async def _monitor_loop(self) -> None:
        deadline = self.config.lease_timeout_s or float("inf")
        tick = max(
            0.05, min(self.config.heartbeat_timeout_s, deadline) / 4.0
        )
        while True:
            await asyncio.sleep(tick)
            loop = asyncio.get_running_loop()
            now = loop.time()
            for worker in list(self._workers.values()):
                silence = now - worker.last_heartbeat
                if silence > self.config.heartbeat_timeout_s:
                    self.metrics.inc("fleet_heartbeat_timeouts")
                    await self._drop_worker(
                        worker,
                        "heartbeat timeout (%.1fs silent)" % silence,
                    )
                    continue
                if self.config.lease_timeout_s is None:
                    continue
                expired = [
                    lease
                    for lease in worker.leases.values()
                    if now - lease.started_at > self.config.lease_timeout_s
                ]
                for lease in expired:
                    # The worker still heartbeats but the shard thread
                    # never returns (hung worker): revoke just the
                    # lease and reassign; the connection stays up.
                    worker.leases.pop(lease.lease_id, None)
                    self.metrics.inc("fleet_lease_timeouts")
                    try:
                        await worker.send(
                            {
                                "type": "revoke",
                                "lease_id": lease.lease_id,
                            }
                        )
                    except Exception:  # noqa: BLE001
                        await self._drop_worker(worker, "send failed")
                        break
                    await self._requeue(
                        lease,
                        "lease timeout after %.1fs"
                        % self.config.lease_timeout_s,
                        "timeout",
                    )
                if expired:
                    await self._pump()
