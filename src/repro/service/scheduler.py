"""Async job scheduler: batching, dedupe, cache, drain.

The heart of the campaign service.  A :class:`CampaignScheduler` owns

* a bounded priority :class:`~repro.service.jobs.JobQueue` (explicit
  backpressure at the admission edge),
* a pool of ``max_concurrency`` asyncio workers that execute jobs on
  threads (``asyncio.to_thread``) so the event loop stays responsive
  while campaigns crunch,
* a :class:`~repro.service.cache.ResultCache` consulted at submit time
  (content-addressed on the job's config hash) and the only owner of a
  finished job's result: the worker thread that computed a result
  encodes it once (:func:`~repro.service.codec.payload_text`) and
  stores the text, fsync included; the loop then hands it to the
  clients waiting on the job (:meth:`CampaignScheduler.result_future`),
  and every later view reads it back (:meth:`CampaignScheduler.result`),
* an in-flight index that *dedupes* identical jobs submitted while the
  first is still running — followers attach to the primary and share
  its result the moment it lands,
* per-compatibility-class **batching while busy** for
  trace-generation jobs: a request joins the compatible batch queued
  but not yet started (within the batch bounds), else queues a new
  one; a batch starts once a worker is free, so requests coalesce only
  while they wait behind busy workers, into one
  :func:`~repro.service.runners.run_tracegen_batch` call — a single
  batched-AES/PDN pass — whose per-request results are bit-identical
  to running each request alone,
* a :class:`~repro.service.metrics.MetricsRegistry` tracking queue
  depth, latencies, cache traffic, and batching efficiency.

Attack/full-key/report jobs execute through one body
(:meth:`CampaignScheduler._run_job`) on both routes: an attack or
full-key campaign runs on this host's pool or, handed the fleet's
dispatcher, on the fleet; either way it records every shard attempt in
a :class:`CampaignHealth` (the job's ``health``), and when a
``spool_dir`` is configured it checkpoints under the job's cache key
and resumes automatically — on either route — if an identical job
previously died mid-run.

When a ``journal_dir`` is configured the scheduler becomes *durable*:
every lifecycle transition is appended to a write-ahead
:class:`~repro.service.journal.JobJournal` before clients see it, and
:meth:`start` replays the journal left by a killed predecessor —
unfinished jobs are reconstructed with their original ids and
re-admitted through the normal cache/dedupe/queue path, where the
spool-checkpoint machinery resumes partial campaigns bit-identically.

Lifecycle: :meth:`start` recovers journaled jobs and spawns the
workers, :meth:`drain` stops admissions and waits for every accepted
job to reach a terminal state (the graceful-shutdown path the server
triggers on SIGTERM), and :meth:`stop` tears the workers down and
releases the journal lock.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.cache import ResultCache
from repro.service.codec import payload_text
from repro.service.fleet import FleetConfig, FleetCoordinator
from repro.service.jobs import (
    STATUS_TERMINAL,
    JobError,
    JobQueue,
    JobSpec,
    JobState,
    QueueFullError,
)
from repro.service.journal import JobJournal
from repro.service.metrics import RECOVERY_COUNTERS, MetricsRegistry
from repro.service.runners import (
    run_attack,
    run_fullkey,
    run_report,
    run_tracegen_batch,
    tracegen_compat_key,
)
from repro.util.errors import ReproError
from repro.util.executors import CampaignHealth

__all__ = [
    "CampaignScheduler",
    "SchedulerClosedError",
    "SchedulerConfig",
]


class SchedulerClosedError(ReproError):
    """A submission arrived while the service is draining."""

    def __init__(self) -> None:
        super().__init__(
            "service is draining — no new jobs are accepted"
        )


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of one scheduler instance.

    Attributes:
        max_concurrency: jobs (or batches) executing at once.
        queue_size: bounded queue capacity; submissions beyond it are
            rejected with :class:`~repro.service.jobs.QueueFullError`.
        max_batch_jobs / max_batch_traces: bounds on one coalesced
            batch (a request that would overflow it queues a new one).
        cache_dir: on-disk result cache directory (None: memory only).
        cache_max_bytes: LRU cap on the on-disk cache (None: unbounded;
            see :class:`~repro.service.cache.ResultCache`).
        spool_dir: campaign checkpoint directory; when set,
            attack/full-key jobs checkpoint under their cache key and
            resume automatically after a crash.
        journal_dir: write-ahead job journal directory; when set,
            every lifecycle transition is fsync'd before clients see
            it and a restarted server replays and finishes unfinished
            jobs (see :mod:`repro.service.journal`).
        journal_compact_every: appends between snapshot compactions.
    """

    max_concurrency: int = 2
    queue_size: int = 64
    max_batch_jobs: int = 16
    max_batch_traces: int = 1_000_000
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    spool_dir: Optional[str] = None
    journal_dir: Optional[str] = None
    journal_compact_every: int = 256

    def __post_init__(self) -> None:
        if self.journal_compact_every < 1:
            raise ValueError("journal_compact_every must be >= 1")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_batch_jobs < 1 or self.max_batch_traces < 1:
            raise ValueError("batch bounds must be >= 1")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ValueError("cache_max_bytes must be >= 1")


@dataclass
class _TraceGenBatch:
    """Compatible tracegen jobs queued to run as one pass."""

    key: str
    jobs: List[JobState] = field(default_factory=list)

    @property
    def total_traces(self) -> int:
        return sum(int(job.spec.params["traces"]) for job in self.jobs)


class CampaignScheduler:
    """Multiplexes campaign jobs over a bounded async worker pool."""

    def __init__(
        self,
        config: Optional[SchedulerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[ResultCache] = None,
        fleet_config: Optional[FleetConfig] = None,
    ):
        self.config = config or SchedulerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.cache = cache or ResultCache(
            self.config.cache_dir,
            max_disk_bytes=self.config.cache_max_bytes,
        )
        self.journal: Optional[JobJournal] = None
        if self.config.journal_dir is not None:
            # Opening replays prior state and takes the directory
            # lock, so a misconfigured second server fails here —
            # before it accepts a single job.
            self.journal = JobJournal(
                self.config.journal_dir,
                compact_every=self.config.journal_compact_every,
            )
        self.fleet = FleetCoordinator(
            metrics=self.metrics,
            config=fleet_config,
            journal=self.journal,
        )
        self.queue = JobQueue(self.config.queue_size)
        self.jobs: Dict[str, JobState] = {}
        self._ids = itertools.count(1)
        self._accepting = True
        self._workers: List[asyncio.Task] = []
        self._inflight: Dict[str, JobState] = {}
        self._followers: Dict[str, List[JobState]] = {}
        self._open_batches: Dict[str, _TraceGenBatch] = {}
        self._queued_jobs = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover journaled jobs, then spawn the pool (idempotent)."""
        if self._workers:
            return
        self._recover()
        self._workers = [
            asyncio.create_task(self._worker(), name="job-worker-%d" % i)
            for i in range(self.config.max_concurrency)
        ]
        self.fleet.start()

    async def drain(self) -> None:
        """Stop admissions; wait until every accepted job terminates."""
        self._accepting = False
        await self._idle.wait()

    async def stop(self) -> None:
        """Drain, then tear down the worker pool and the fleet."""
        await self.drain()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        await self.fleet.stop()
        if self.journal is not None:
            self.journal.close()

    @property
    def accepting(self) -> bool:
        return self._accepting

    # ------------------------------------------------------------------
    # Journal + crash recovery
    # ------------------------------------------------------------------
    def _journal(self, kind: str, state: JobState, **data: object) -> None:
        """Durably record one transition (no-op without a journal)."""
        if self.journal is None:
            return
        self.journal.append(kind, state.job_id, **data)
        self._sync_journal_metrics()

    def _sync_journal_metrics(self) -> None:
        if self.journal is None:
            return
        for name, value in self.journal.counters().items():
            self.metrics.sync_counter(name, value)

    def recovery_snapshot(self) -> Dict[str, object]:
        """Journal/recovery counters for the ``jobs`` fleet snapshot."""
        snapshot: Dict[str, object] = {
            "journal_enabled": self.journal is not None,
        }
        for name in RECOVERY_COUNTERS:
            snapshot[name] = self.metrics.counter(name).value
        return snapshot

    def _recover(self) -> None:
        """Reconstruct and re-admit every unfinished journaled job.

        Runs once, inside :meth:`start`, before the worker pool exists
        — so recovered jobs queue exactly like fresh submissions and
        the original priority order still decides execution.  Resume
        is free: re-admitted jobs carry their original cache key, so
        the spool checkpoint a dead server left behind is picked up by
        the normal ``_checkpoint_path`` probe in :meth:`_run_job`.
        """
        if self.journal is None:
            return
        self._sync_journal_metrics()
        table = self.journal.jobs()
        # Keep job ids unique across incarnations: new submissions
        # continue after the highest journaled id.
        max_id = 0
        for job_id in table:
            try:
                max_id = max(max_id, int(job_id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        if max_id:
            self._ids = itertools.count(max_id + 1)
        for job_id, entry in sorted(table.items()):
            if job_id in self.jobs:
                continue
            terminal = entry.get("status") in STATUS_TERMINAL
            spec_dict = entry.get("spec") or {}
            try:
                spec = JobSpec.create(
                    str(spec_dict.get("kind")),
                    dict(spec_dict.get("params") or {}),  # type: ignore[arg-type]
                    priority=int(spec_dict.get("priority", 10)),  # type: ignore[arg-type]
                )
            except (JobError, TypeError, ValueError) as exc:
                if terminal:
                    continue  # finished under the old schema; let it rest
                state = JobState(job_id, JobSpec(kind="attack"), recovered=True)
                self.jobs[job_id] = state
                self._fail(
                    state,
                    RuntimeError(
                        "journaled spec is no longer valid: %s" % exc
                    ),
                )
                continue
            state = JobState(job_id, spec, recovered=True)
            submitted_at = entry.get("submitted_at")
            if isinstance(submitted_at, (int, float)):
                state.submitted_at = float(submitted_at)
            if terminal:
                # Terminal jobs come back for introspection/attach;
                # nothing re-runs.  A "done" job's result payload is
                # re-served from the content-addressed cache when it
                # is still present (see result()).
                state.status = str(entry["status"])
                finished_at = entry.get("finished_at")
                if isinstance(finished_at, (int, float)):
                    state.finished_at = float(finished_at)
                if entry.get("error") is not None:
                    state.error = str(entry["error"])
                state.add_event(
                    "recovered", terminal=True, status=state.status
                )
                self.jobs[job_id] = state
                continue
            state.add_event(
                "recovered",
                cache_key=spec.cache_key,
                previous_status=entry.get("status"),
            )
            self.metrics.inc("jobs_recovered")
            self._journal("recovered", state)
            self._admit(state, force=True)

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobState:
        """Admit one job: cache-check, dedupe, batch or enqueue.

        Raises:
            SchedulerClosedError: the service is draining.
            QueueFullError: the bounded queue is at capacity
                (explicit backpressure; nothing was admitted).
        """
        if not self._accepting:
            raise SchedulerClosedError()
        state = JobState("job-%06d" % next(self._ids), spec)
        self.metrics.inc("jobs_submitted")
        self._journal("submitted", state, spec=spec.as_dict())
        return self._admit(state)

    def _admit(self, state: JobState, force: bool = False) -> JobState:
        """Shared admission path for fresh and journal-recovered jobs.

        ``force`` lets recovery bypass the queue bound: a recovered
        job was already accepted by a previous incarnation, so
        shedding it now would lose acknowledged work.
        """
        spec = state.spec
        key = spec.cache_key

        text, layer = self.cache.get(key)
        self._sync_cache_metrics()
        if text is not None:
            self.jobs[state.job_id] = state
            state.cache = layer
            state.add_event("queued", cache_key=key)
            self.metrics.inc("cache_hits")
            self._complete(state, text)
            return state
        self.metrics.inc("cache_misses")

        primary = self._inflight.get(key)
        if primary is not None and not primary.terminal:
            self.jobs[state.job_id] = state
            state.cache = "inflight"
            state.add_event(
                "queued", cache_key=key, deduped_against=primary.job_id
            )
            self._followers.setdefault(primary.job_id, []).append(state)
            self.metrics.inc("jobs_deduped")
            self._busy()
            return state

        try:
            if spec.kind == "tracegen":
                self._submit_tracegen(state, force=force)
            else:
                self.queue.put(spec.priority, state, force=force)
        except QueueFullError:
            self.metrics.inc("jobs_rejected")
            raise
        self.jobs[state.job_id] = state
        self._inflight[key] = state
        self._queued_jobs += 1
        self._busy()
        self._gauge_depth()
        state.add_event("queued", cache_key=key)
        return state

    def _submit_tracegen(self, state: JobState, force: bool = False) -> None:
        """Join this class's queued batch, or queue a new one."""
        compat = tracegen_compat_key(state.spec.params)
        batch = self._open_batches.get(compat)
        traces = int(state.spec.params["traces"])  # type: ignore[arg-type]
        if (
            batch is not None
            and len(batch.jobs) < self.config.max_batch_jobs
            and batch.total_traces + traces <= self.config.max_batch_traces
        ):
            batch.jobs.append(state)
            return
        batch = _TraceGenBatch(compat, [state])
        # Enqueue the *batch*, not the job: compatible requests join it
        # until a worker pops it.  May raise QueueFullError — nothing
        # registered.
        self.queue.put(state.spec.priority, batch, force=force)
        self._open_batches[compat] = batch

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobState]:
        return self.jobs.get(job_id)

    def list_jobs(self) -> List[JobState]:
        return [self.jobs[job_id] for job_id in sorted(self.jobs)]

    def result(self, state: JobState) -> Optional[str]:
        """A finished job's result text, read from the cache.

        None unless the job is ``done`` and its result is still in the
        cache: a memory-only server that has evicted it reports None,
        as journal recovery does for a result it cannot find.  A view
        read, so it counts as no cache hit (:meth:`ResultCache.peek`).
        """
        if state.status != "done":
            return None
        return self.cache.peek(state.spec.cache_key)

    def result_future(self, state: JobState) -> "asyncio.Future":
        """A future that resolves to the job's result text.

        Taken while the job is unfinished, it resolves with the text
        itself when the job completes (None when it fails or is
        cancelled), so a waiting client gets its full result even when
        the cache has evicted it by the time the client reads it — a
        coalesced batch can store more than the memory budget.  Taken
        after the job ended, it resolves at once to :meth:`result`.
        Take it right after :meth:`submit`, before the next ``await``.
        """
        future = asyncio.get_running_loop().create_future()
        if state.terminal:
            future.set_result(self.result(state))
        else:
            state.waiters.append(future)
        return future

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/terminal jobs are too late.

        Cancelling a primary also cancels its deduped followers (their
        result will never be computed).
        """
        state = self.jobs.get(job_id)
        if state is None or state.status != "queued":
            return False
        self._cancel_state(state, "cancelled by request")
        for follower in self._followers.pop(job_id, []):
            if not follower.terminal:
                self._cancel_state(
                    follower, "primary %s cancelled" % job_id
                )
        self._inflight.pop(state.spec.cache_key, None)
        return True

    def _cancel_state(self, state: JobState, reason: str) -> None:
        state.status = "cancelled"
        state.error = reason
        state.finished_at = time.time()
        self._journal("cancelled", state, reason=reason)
        state.hand_off(None)
        state.add_event("cancelled", reason=reason)
        self.metrics.inc("jobs_cancelled")
        self._note_done()

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            item = await self.queue.get()
            self._gauge_depth()
            self.metrics.gauge("jobs_running").inc()
            try:
                if isinstance(item, _TraceGenBatch):
                    await self._run_batch(item)
                else:
                    await self._run_job(item)
            finally:
                self.metrics.gauge("jobs_running").dec()
                self._gauge_depth()

    async def _run_batch(self, batch: _TraceGenBatch) -> None:
        # Started: later requests queue a batch of their own.
        if self._open_batches.get(batch.key) is batch:
            del self._open_batches[batch.key]
        members = [job for job in batch.jobs if job.status == "queued"]
        if not members:
            return
        for state in members:
            self._mark_started(state, batch_size=len(members))
            state.batch_size = len(members)
        self.metrics.inc("batches")
        self.metrics.inc("batched_jobs", len(members))
        if len(members) > 1:
            self.metrics.inc("coalesced_jobs", len(members))
        try:
            texts = await asyncio.to_thread(self._run_tracegen, members)
        except Exception as exc:  # noqa: BLE001 — fail the whole batch
            for state in members:
                self._fail(state, exc)
            return
        for state, text in zip(members, texts):
            self._complete(state, text)

    def _run_tracegen(self, members: List[JobState]) -> List[str]:
        """One batched trace-generation pass (on a worker thread)."""
        results = run_tracegen_batch([state.spec.params for state in members])
        return [
            self._encode_and_store(state, result)
            for state, result in zip(members, results)
        ]

    def _encode_and_store(self, state: JobState, result: object) -> str:
        """Encode a job's result once and store the text in the cache.
        Called on the worker thread that computed the result, so neither
        the encoding nor the cache's fsync'd disk write blocks the event
        loop, and the write ends before the job's ``done`` record."""
        text = payload_text(state.spec.kind, result)
        self.cache.put(state.spec.cache_key, text)
        return text

    def _wants_fleet(self, state: JobState) -> bool:
        """Fleet routing: explicit ``fleet`` param, else auto-detect.

        ``fleet=True`` requires the fleet (a structured failure when no
        worker is connected beats silently falling back to a slower
        local run the submitter tried to avoid); ``fleet=False`` forces
        local; ``None`` takes the fleet whenever workers are registered.
        Only shard-decomposable kinds route out.
        """
        if state.spec.kind not in ("attack", "fullkey"):
            return False
        wants = state.spec.params.get("fleet")
        if wants is True:
            return True
        return wants is None and self.fleet.has_workers

    async def _run_job(self, state: JobState) -> None:
        if state.status != "queued":
            return  # cancelled while waiting
        self._mark_started(state)
        kind = state.spec.kind
        params = state.spec.params
        dispatch = None
        if self._wants_fleet(state):
            try:
                dispatch = await self.fleet.dispatcher(
                    state.spec, state.job_id, on_event=state.add_event
                )
            except Exception as exc:  # noqa: BLE001 — report, don't crash
                self._fail(state, exc)
                return
        health = CampaignHealth()
        checkpoint = self._checkpoint_path(state)
        resume = checkpoint is not None and os.path.exists(checkpoint)
        if checkpoint is not None:
            self._journal(
                "checkpoint_spooled", state, path=checkpoint, resume=resume
            )

        def compute() -> str:
            if kind == "report":
                result = run_report(params, checkpoint, resume)
            else:
                runner = run_attack if kind == "attack" else run_fullkey
                result = runner(params, health, checkpoint, resume, dispatch)
            return self._encode_and_store(state, result)

        try:
            text = await asyncio.to_thread(compute)
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            if health.attempts:
                state.health = health.as_dict()
            self._fail(state, exc)
            return
        if health.attempts:
            state.health = health.as_dict()
        if checkpoint is not None and os.path.exists(checkpoint):
            # The durable state served its purpose; keep the spool lean.
            try:
                os.unlink(checkpoint)
            except OSError:
                pass
        self._complete(state, text)

    def _checkpoint_path(self, state: JobState) -> Optional[str]:
        if self.config.spool_dir is None:
            return None
        if state.spec.kind not in ("attack", "fullkey", "report"):
            return None
        os.makedirs(self.config.spool_dir, exist_ok=True)
        suffix = ".json" if state.spec.kind == "report" else ".npz"
        return os.path.join(
            self.config.spool_dir, state.spec.cache_key + suffix
        )

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def _mark_started(self, state: JobState, **extra: object) -> None:
        state.status = "running"
        state.started_at = time.time()
        self._queued_jobs = max(0, self._queued_jobs - 1)
        self.metrics.observe(
            "queue_wait_s", state.started_at - state.submitted_at
        )
        self._journal("started", state)
        state.add_event("started", **extra)

    def _complete(self, state: JobState, text: str) -> None:
        """Finish a job whose result is in the cache: hand the text to
        the job's (and its followers') waiting clients; the state
        itself keeps no reference."""
        self._sync_cache_metrics()
        state.status = "done"
        state.finished_at = time.time()
        if state.started_at is not None:
            self.metrics.observe(
                "run_s", state.finished_at - state.started_at
            )
        self.metrics.observe(
            "total_s", state.finished_at - state.submitted_at
        )
        self.metrics.inc("jobs_completed")
        self._journal("done", state, cache_key=state.spec.cache_key)
        state.hand_off(text)
        state.add_event(
            "done", cache=state.cache, batch_size=state.batch_size
        )
        self._resolve_followers(state, text)
        self._inflight.pop(state.spec.cache_key, None)
        self._note_done()

    def _fail(self, state: JobState, error: BaseException) -> None:
        state.status = "failed"
        state.error = str(error)
        state.finished_at = time.time()
        self.metrics.inc("jobs_failed")
        self._journal("failed", state, error=state.error)
        state.hand_off(None)
        state.add_event("failed", error=state.error)
        for follower in self._followers.pop(state.job_id, []):
            if not follower.terminal:
                self._fail(
                    follower,
                    RuntimeError(
                        "primary %s failed: %s"
                        % (state.job_id, state.error)
                    ),
                )
        self._inflight.pop(state.spec.cache_key, None)
        self._note_done()

    def _resolve_followers(self, state: JobState, text: str) -> None:
        for follower in self._followers.pop(state.job_id, []):
            if follower.terminal:
                continue
            follower.batch_size = state.batch_size
            follower.status = "done"
            follower.finished_at = time.time()
            self.metrics.inc("jobs_completed")
            self._journal(
                "done", follower, cache_key=follower.spec.cache_key
            )
            self.metrics.observe(
                "total_s", follower.finished_at - follower.submitted_at
            )
            follower.hand_off(text)
            follower.add_event(
                "done", cache="inflight", batch_size=state.batch_size
            )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _gauge_depth(self) -> None:
        self.metrics.set_gauge("queue_depth", self._queued_jobs)

    def _sync_cache_metrics(self) -> None:
        """Mirror the cache's own counters into the metrics registry."""
        stats = self.cache.stats
        self.metrics.sync_counter("cache_evictions", stats.evictions)
        self.metrics.sync_counter(
            "cache_evicted_bytes", stats.evicted_bytes
        )
        self.metrics.set_gauge("cache_disk_bytes", self.cache.disk_bytes)
        self.metrics.set_gauge("cache_memory_bytes", self.cache.memory_bytes)
        self.metrics.set_gauge("cache_memory_entries", len(self.cache))

    def _busy(self) -> None:
        self._idle.clear()

    def _note_done(self) -> None:
        if all(state.terminal for state in self.jobs.values()):
            self._idle.set()
