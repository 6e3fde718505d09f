"""Job model of the campaign service: specs, states, bounded queues.

A *job* is one unit of campaign work — trace generation, a CPA attack,
a full-key recovery, or the report figures — described by a
:class:`JobSpec` (kind + validated parameters + priority) and tracked
through a :class:`JobState` (status, timestamps, streamed events, the
result payload).

Two properties make the specs service-grade:

* **normalization** — :func:`normalize_params` fills every default and
  type-checks every field against the kind's schema, so two requests
  that mean the same job always carry identical parameter dicts;
* **content addressing** — :meth:`JobSpec.cache_key` hashes only the
  *result-determining* parameters (seeds, trace budgets, targets — not
  execution knobs like worker counts, which never change the
  bit-identical output) through the same
  :class:`~repro.experiments.checkpoint.CampaignManifest` config-hash
  machinery the crash-safe checkpoints use.  Identical work is
  identical bytes, so the scheduler can dedupe in-flight duplicates
  and serve repeats from the result cache.

:class:`JobQueue` is the admission edge: a bounded priority queue that
*rejects* (:class:`QueueFullError`) instead of buffering unboundedly —
explicit backpressure the client sees immediately, rather than a
silently growing queue that converts overload into latency.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Optional, Tuple

from repro.experiments.checkpoint import CampaignManifest
from repro.experiments.config import DEFAULT_KEY
from repro.util.errors import ReproError
from repro.util.executors import EXECUTOR_THREAD

__all__ = [
    "JOB_KINDS",
    "JobError",
    "JobQueue",
    "JobSpec",
    "JobState",
    "QueueFullError",
    "STATUS_TERMINAL",
    "check_acquisition_reduction",
    "normalize_params",
]


class JobError(ReproError):
    """A job spec is malformed: unknown kind, bad or unknown params."""


class QueueFullError(ReproError):
    """The bounded job queue rejected a submission (backpressure).

    Carries the queue depth at rejection time so clients can implement
    informed retry/shed policies.
    """

    def __init__(self, depth: int, limit: int):
        super().__init__(
            "job queue full (%d of %d slots) — retry later or raise "
            "--queue-size" % (depth, limit)
        )
        self.depth = depth
        self.limit = limit


#: Parameter schema per job kind.  Each field maps to
#: ``(default, type, content)`` where ``content`` says whether the
#: field determines the job's *result* (and therefore its cache key) or
#: only how it executes.
_CIRCUITS = ("alu", "c6288", "c6288x2")
_REDUCTIONS = ("hamming_weight", "single_bit")

_SCHEMAS: Dict[str, Dict[str, Tuple[object, type, bool]]] = {
    "tracegen": {
        "traces": (1000, int, True),
        "seed": (1, int, True),
        "key_hex": (DEFAULT_KEY.hex(), str, True),
        # Acquisition realism: a MisalignmentSpec string ("uniform:3",
        # "gaussian:1.5,drift=0.002", ...).  Result-determining, so it
        # enters the cache key — but only when set (None content
        # params are dropped), keeping every pre-existing key stable.
        "jitter": (None, str, True),
        # Execution knob like workers/executor: every kernel backend
        # is bit-identical by contract, so the backend selection can
        # never change a result and stays out of the cache key.
        "kernels": (None, str, False),
    },
    "attack": {
        "circuit": ("alu", str, True),
        "traces": (150_000, int, True),
        "reduction": ("hamming_weight", str, True),
        "seed": (1, int, True),
        "jitter": (None, str, True),
        # A PreprocessSpec string ("align=correlation:4;poi=sost:3").
        # Routes the job onto the physical acquisition pipeline.
        "preprocess": (None, str, True),
        "workers": (None, int, False),
        "executor": (None, str, False),
        "kernels": (None, str, False),
        "retries": (None, int, False),
        "task_timeout": (None, float, False),
        # Routing knob, not a result knob: fleet and local execution
        # are bit-identical by construction, so placement never enters
        # the cache key.  None = auto (fleet when workers are
        # connected), True = require the fleet, False = force local.
        "fleet": (None, bool, False),
    },
    "fullkey": {
        "traces": (250_000, int, True),
        "seed": (1, int, True),
        "jitter": (None, str, True),
        "preprocess": (None, str, True),
        "workers": (None, int, False),
        "executor": (None, str, False),
        "kernels": (None, str, False),
        "retries": (None, int, False),
        "task_timeout": (None, float, False),
        "fleet": (None, bool, False),
    },
    "report": {
        "traces": (500_000, int, True),
        "seed": (1, int, True),
        "cpa": (False, bool, True),
        "jitter": (None, str, True),
        "preprocess": (None, str, True),
        "workers": (None, int, False),
        "executor": (None, str, False),
        "kernels": (None, str, False),
    },
}

#: Every job kind the service accepts.
JOB_KINDS = tuple(sorted(_SCHEMAS))

#: Statuses from which a job can no longer move.
STATUS_TERMINAL = ("done", "failed", "cancelled")


def _check_value(kind: str, name: str, value: object) -> object:
    """Domain checks beyond plain typing, mirroring the CLI's."""
    if name == "circuit" and value not in _CIRCUITS:
        raise JobError(
            "%s job: circuit %r not one of %s"
            % (kind, value, ", ".join(_CIRCUITS))
        )
    if name == "reduction" and value not in _REDUCTIONS:
        raise JobError(
            "%s job: reduction %r not one of %s"
            % (kind, value, ", ".join(_REDUCTIONS))
        )
    # Campaigns run on one thread pool; "executor" stays in the schema
    # so clients that name it keep working, and accepts only "thread".
    if name == "executor" and value == "process":
        raise JobError(
            "%s job: executor 'process' is not available: the process "
            "backend was removed; omit executor or pass %r"
            % (kind, EXECUTOR_THREAD)
        )
    if name == "executor" and value not in (None, EXECUTOR_THREAD):
        raise JobError(
            "%s job: unknown executor %r (the only executor is %r)"
            % (kind, value, EXECUTOR_THREAD)
        )
    if name == "kernels" and value is not None:
        from repro.util import kernels

        try:
            # Same contract as the CLI: an unknown mode is a structured
            # error at admission, and a native request the host cannot
            # serve names the missing dependency instead of failing
            # deep inside the campaign.
            kernels.check(value)
        except (
            kernels.KernelConfigError, kernels.KernelUnavailableError
        ) as exc:
            raise JobError("%s job: %s" % (kind, exc)) from None
    if name == "workers" and value is not None and value < 1:
        raise JobError("%s job: workers must be >= 1" % kind)
    if name == "traces" and value < 2 and kind != "tracegen":
        raise JobError("%s job: need at least 2 traces" % kind)
    if name == "traces" and value < 1:
        raise JobError("%s job: need at least 1 trace" % kind)
    if name == "retries" and value is not None and value < 1:
        raise JobError("%s job: retries must be >= 1" % kind)
    if name == "task_timeout" and value is not None and value <= 0:
        raise JobError("%s job: task_timeout must be positive" % kind)
    if name == "key_hex":
        try:
            if len(bytes.fromhex(str(value))) != 16:
                raise ValueError
        except ValueError:
            raise JobError(
                "%s job: key_hex must be 32 hex characters" % kind
            ) from None
    if name in ("jitter", "preprocess") and value is not None:
        from repro.preprocess.spec import (  # noqa: PLC0415
            MisalignmentSpec,
            PreprocessError,
            PreprocessSpec,
        )

        cls = MisalignmentSpec if name == "jitter" else PreprocessSpec
        try:
            spec = cls.from_string(str(value))
        except PreprocessError as exc:
            raise JobError("%s job: %s" % (kind, exc)) from None
        # Canonicalize: equivalent spellings (and fully disabled specs)
        # collapse to one cache-key representation.
        return spec.to_string() if spec.enabled else None
    return value


#: Above 2**53 not every whole number is a float, so a float count
#: there may already be rounded.
_EXACT_INT_FLOAT = float(2 ** 53)


def _coerce(kind: str, name: str, value: object, expected: type) -> object:
    """``value`` as the schema type: an int-valued float becomes an
    int, an int becomes a float, and NaN/inf or a fractional count is
    a :class:`JobError` rather than a silent truncation."""
    numeric = expected in (int, float) and isinstance(value, (int, float))
    # bool subclasses int; reject it explicitly so `seed: true` cannot
    # sneak in as seed=1.
    if isinstance(value, bool) != (expected is bool) or not (
        isinstance(value, expected) or numeric
    ):
        raise JobError(
            "%s job: parameter %r must be %s, got %r"
            % (kind, name, expected.__name__, value)
        )
    if expected is float:
        try:
            finite = math.isfinite(float(value))  # type: ignore[arg-type]
        except OverflowError:
            finite = False
        if not finite:
            raise JobError(
                "%s job: parameter %r must be finite, got %r"
                % (kind, name, value)
            )
        return float(value)  # type: ignore[arg-type]
    if expected is int and isinstance(value, float):
        if not (value.is_integer() and abs(value) <= _EXACT_INT_FLOAT):
            raise JobError(
                "%s job: parameter %r must be a whole number below "
                "2**53, got %r" % (kind, name, value)
            )
        return int(value)
    return value


def normalize_params(
    kind: str, params: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Validated, default-filled parameter dict for a job kind.

    Raises :class:`JobError` on an unknown kind, an unknown parameter
    name, or a value of the wrong type/domain.  The returned dict has
    one entry per schema field, in schema order, so equal jobs always
    serialize identically.
    """
    if kind not in _SCHEMAS:
        raise JobError(
            "unknown job kind %r (expected one of %s)"
            % (kind, ", ".join(JOB_KINDS))
        )
    schema = _SCHEMAS[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise JobError(
            "%s job: unknown parameter(s) %s (valid: %s)"
            % (kind, ", ".join(unknown), ", ".join(sorted(schema)))
        )
    normalized: Dict[str, object] = {}
    for name, (default, expected, _content) in schema.items():
        value = params.get(name, default)
        if value is not None or default is not None:
            value = _coerce(kind, name, value, expected)
        normalized[name] = _check_value(kind, name, value)
    check_acquisition_reduction(kind, normalized)
    return normalized


def check_acquisition_reduction(
    kind: str, params: Dict[str, object]
) -> None:
    """Reject an attack job that pairs jitter/preprocess with a
    single-bit reduction.

    ``jitter`` and ``preprocess`` route an attack onto the physical
    pipeline, which reduces full endpoint words, so they require
    ``reduction=hamming_weight``.  Called at admission and again when a
    job's campaign is resolved, so every route rejects it alike.
    """
    acquisition = params.get("jitter") or params.get("preprocess")
    reduction = params.get("reduction", "hamming_weight")
    if kind == "attack" and acquisition and reduction != "hamming_weight":
        raise JobError(
            "attack job: jitter/preprocess require "
            "reduction=hamming_weight (the physical pipeline reduces "
            "full endpoint words)"
        )


@dataclass(frozen=True)
class JobSpec:
    """One validated unit of service work.

    Attributes:
        kind: job kind (one of :data:`JOB_KINDS`).
        params: normalized parameter dict (see :func:`normalize_params`).
        priority: smaller runs sooner (default 10).
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    priority: int = 10

    @classmethod
    def create(
        cls,
        kind: str,
        params: Optional[Dict[str, object]] = None,
        priority: int = 10,
    ) -> "JobSpec":
        """Validate and normalize a raw request into a spec."""
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise JobError("priority must be an integer")
        return cls(
            kind=kind,
            params=normalize_params(kind, params),
            priority=priority,
        )

    def content_params(self) -> Dict[str, object]:
        """The result-determining subset of :attr:`params`.

        Unset (None) content fields are dropped, so optional additions
        to a schema — acquisition realism, say — never perturb the
        cache keys of jobs that do not use them.
        """
        schema = _SCHEMAS[self.kind]
        return {
            name: value
            for name, value in self.params.items()
            if schema[name][2] and value is not None
        }

    @property
    def cache_key(self) -> str:
        """Content address of this job's result.

        Reuses the checkpoint manifest's SHA-256 config hash, so the
        cache key machinery and the resume-safety machinery can never
        drift apart.  Execution knobs (workers, executor, retries,
        timeouts, priority) are excluded: the runtime guarantees they
        never change the bit-identical result.
        """
        return CampaignManifest(
            kind="service-" + self.kind, params=self.content_params()
        ).config_hash

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "priority": self.priority,
        }


@dataclass
class JobState:
    """Mutable lifecycle record of one submitted job.

    Attributes:
        job_id: service-unique id (``"job-000042"``).
        spec: the validated spec.
        status: ``queued -> running -> done | failed | cancelled``.
        events: every streamed progress event, in order.
        result: decoded result payload once ``done``.
        error: one-line failure reason once ``failed``.
        cache: how the result was obtained — ``None`` (computed),
            ``"memory"``/``"disk"`` (cache layer), ``"inflight"``
            (deduped against an identical running job).
        recovered: True when this state was reconstructed from the
            job journal after a server restart rather than submitted
            over this server's lifetime.
        batch_size: number of jobs coalesced into the batch that
            produced this result (1 = ran alone).
        health: the campaign runtime's recovery report, when the job
            ran through the resilient execution path.
    """

    job_id: str
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: List[Dict[str, object]] = field(default_factory=list)
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    cache: Optional[str] = None
    batch_size: int = 1
    health: Optional[Dict[str, object]] = None
    recovered: bool = False
    _changed: asyncio.Event = field(
        default_factory=asyncio.Event, repr=False
    )

    @property
    def terminal(self) -> bool:
        return self.status in STATUS_TERMINAL

    def add_event(self, kind: str, **data: object) -> None:
        """Record a progress event and wake every streaming listener."""
        event: Dict[str, object] = {
            "event": kind,
            "job_id": self.job_id,
            "time": time.time(),
        }
        event.update(data)
        self.events.append(event)
        self._changed.set()

    async def stream(self) -> AsyncIterator[Dict[str, object]]:
        """Yield every event from the beginning until the job ends."""
        cursor = 0
        while True:
            while cursor < len(self.events):
                event = self.events[cursor]
                cursor += 1
                yield event
            if self.terminal and cursor >= len(self.events):
                return
            self._changed.clear()
            # Re-check in case an event landed between the drain and
            # the clear; otherwise sleep until the next add_event.
            if cursor >= len(self.events) and not self.terminal:
                await self._changed.wait()

    def as_dict(self, include_result: bool = False) -> Dict[str, object]:
        view: Dict[str, object] = {
            "job_id": self.job_id,
            "spec": self.spec.as_dict(),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache": self.cache,
            "batch_size": self.batch_size,
            "error": self.error,
            "health": self.health,
            "recovered": self.recovered,
        }
        if include_result:
            view["result"] = self.result
        return view


class JobQueue:
    """Bounded priority queue with explicit backpressure rejection.

    Jobs with smaller ``priority`` run first; equal priorities keep
    submission order (a monotonic sequence number breaks ties).  When
    the queue holds ``maxsize`` entries, :meth:`put` raises
    :class:`QueueFullError` instead of blocking: the service sheds load
    visibly at the admission edge.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("queue size must be >= 1")
        self.maxsize = maxsize
        self._heap: "asyncio.PriorityQueue[Tuple[int, int, object]]" = (
            asyncio.PriorityQueue()
        )
        self._seq = itertools.count()

    @property
    def depth(self) -> int:
        return self._heap.qsize()

    def put(self, priority: int, item: object, force: bool = False) -> None:
        """Enqueue, or raise :class:`QueueFullError` when at capacity.

        ``force`` bypasses the bound: journal recovery re-admits jobs
        that were *already accepted* before a crash, and shedding them
        at the readmission edge would silently lose acknowledged work.
        """
        if not force and self.depth >= self.maxsize:
            raise QueueFullError(self.depth, self.maxsize)
        self._heap.put_nowait((priority, next(self._seq), item))

    async def get(self) -> object:
        """Wait for, and remove, the highest-priority entry."""
        _priority, _seq, item = await self._heap.get()
        return item
