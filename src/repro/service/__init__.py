"""Campaign service layer: async job scheduling for the repro stack.

``repro.service`` turns the one-shot campaign CLI into a long-running
service: jobs (trace generation, CPA attacks, full-key recovery, report
figures) are submitted over a stdlib JSON-lines protocol, scheduled on
a bounded priority queue with explicit backpressure, coalesced into
batched trace-generation passes where compatible, deduplicated against
identical in-flight work, and served from a content-addressed result
cache on repeats — with live counters, gauges, and latency histograms
throughout.  Every result is bit-identical to the corresponding direct
CLI run; the scheduler executes through the same runners and the same
fault-tolerant sharded drivers the CLI uses.

Module map:

* :mod:`~repro.service.jobs` — specs, states, bounded priority queue;
* :mod:`~repro.service.scheduler` — batching while busy, dedupe,
  workers;
* :mod:`~repro.service.cache` — content-addressed result cache with an
  optional LRU-bounded disk layer;
* :mod:`~repro.service.codec` — lossless array-over-JSON payloads plus
  length-prefixed binary frames for the fleet wire;
* :mod:`~repro.service.runners` — shared CLI/service execution paths
  (one campaign loop on either route) and the fleet lease runners;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the
  JSON-lines protocol endpoints;
* :mod:`~repro.service.fleet` / :mod:`~repro.service.worker` — the
  distributed campaign fabric: lease-based shard dispatch with
  cache-aware placement, heartbeat fencing, worker auto-reconnect,
  poison-shard quarantine, and lease results handed back to the
  campaign loop in plan order;
* :mod:`~repro.service.journal` — the write-ahead job journal that
  makes the control plane crash-safe: fsync'd lifecycle records,
  snapshot compaction, replay + job recovery after a server SIGKILL;
* :mod:`~repro.service.metrics` — the live metrics registry.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.codec import (
    decode,
    encode,
    from_payload,
    pack_message,
    to_payload,
    unpack_message,
)
from repro.service.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetError,
    ShardQuarantined,
)
from repro.service.jobs import (
    JOB_KINDS,
    JobError,
    JobQueue,
    JobSpec,
    JobState,
    QueueFullError,
)
from repro.service.journal import JobJournal, JournalError, JournalLocked
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import (
    CampaignScheduler,
    SchedulerClosedError,
    SchedulerConfig,
)
from repro.service.worker import FleetWorker, WorkerError, run_worker

__all__ = [
    "CacheStats",
    "CampaignScheduler",
    "FleetConfig",
    "FleetCoordinator",
    "FleetError",
    "FleetWorker",
    "JOB_KINDS",
    "JobError",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JournalError",
    "JournalLocked",
    "MetricsRegistry",
    "QueueFullError",
    "ResultCache",
    "SchedulerClosedError",
    "SchedulerConfig",
    "ShardQuarantined",
    "WorkerError",
    "decode",
    "encode",
    "from_payload",
    "pack_message",
    "run_worker",
    "to_payload",
    "unpack_message",
]
