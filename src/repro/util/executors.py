"""The fault-tolerant ordered map every campaign fans out through.

The sharded campaign driver (:mod:`repro.experiments.parallel`) and the
per-byte full-key CPAs (:mod:`repro.attacks.full_key`) both fan work
out over identical, order-preserving maps; this module is the single
place that runs them, on threads.  The hot kernels (C or numpy) release
the GIL, so threads scale without serializing anything: every task
reads the driver's arrays in place.  Every task runs in a copy of the
:mod:`contextvars` context of the thread that drives the map, so
per-job context state (the kernels mode of :mod:`repro.util.kernels`)
follows the job.

:func:`map_ordered` yields each result in task order as soon as it and
every earlier one have succeeded, and runs every task under a
:class:`RetryPolicy` (the default one unless the caller passes its
own): per-task deadlines
counted from the moment the task starts on a thread, and bounded retry
rounds with exponential backoff, each round on fresh daemon threads.
The map always runs on threads (one when there is one worker), so a
deadline holds at every worker count, and a task abandoned past its
deadline never holds process exit.  A task that exhausts its attempts
surfaces as a structured :class:`ShardError`; everything the runtime
did to keep the campaign alive is recorded in a
:class:`CampaignHealth` report.  Because campaign task functions are
pure functions of their payloads (all randomness is keyed on global
trace indices), a retried task reproduces its result bit for bit, so
none of this machinery can change a campaign's output — only whether
it survives.

It lives in :mod:`repro.util` because the consumers import each other
(``experiments.parallel`` imports ``attacks.full_key``); a neutral home
keeps the pool policy in one code path.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.util.errors import ReproError
from repro.util.faults import FaultPlan, fault_scope

#: The thread-pool backend.
EXECUTOR_THREAD = "thread"

#: Exponential backoff before retry round ``k``:
#: ``min(BACKOFF_MAX, backoff_base * BACKOFF_FACTOR**(k-1))`` seconds.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

def usable_cpu_count() -> int:
    """CPUs this *process* may actually run on.

    ``os.cpu_count()`` reports the machine; containers and CI runners
    routinely pin processes to a subset via cgroup/affinity masks, and
    sizing a pool off the machine count oversubscribes the pinned
    cores — which is exactly how a "parallel" campaign ends up slower
    than serial.  ``os.sched_getaffinity`` reflects the mask where the
    platform supports it; elsewhere fall back to the machine count.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count when the caller does not specify one."""
    return min(8, usable_cpu_count())


# ----------------------------------------------------------------------
# Retry policy and structured failure reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`map_ordered` treats task failures.

    Attributes:
        max_attempts: attempts per task before the map raises
            :class:`ShardError` (>= 1; 1 disables retries).
        timeout: per-task deadline in seconds, measured from the moment
            the task starts on a pool thread (None: no deadline); time
            spent queued behind other tasks does not count.  A task past
            its deadline is abandoned and retried.
        backoff_base: sleep before the first retry round, in seconds;
            later rounds grow by :data:`BACKOFF_FACTOR` up to
            :data:`BACKOFF_MAX`.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(
                "timeout must be a finite positive number of seconds, "
                "got %r" % (self.timeout,)
            )
        if self.backoff_base < 0:
            raise ValueError("backoff delays must be non-negative")

    def backoff_delay(self, round_number: int) -> float:
        """Backoff before retry round ``round_number``."""
        if round_number < 1:
            return 0.0
        return min(
            BACKOFF_MAX,
            self.backoff_base * BACKOFF_FACTOR ** (round_number - 1),
        )


class ShardError(ReproError):
    """A task exhausted its retry budget.

    Attributes:
        site: stable task identity (e.g. ``"shard[0:4000]"``).
        attempts: total submissions of the task.
        cause: the exception that ended the final attempt.
    """

    def __init__(self, site: str, attempts: int, cause: BaseException):
        super().__init__(
            "task %s failed after %d attempt(s): %s"
            % (site, attempts, cause)
        )
        self.site = site
        self.attempts = attempts
        self.cause = cause
        self.__cause__ = cause


class TruncatedResultError(ReproError):
    """A worker returned a payload inconsistent with its task."""

    def __init__(self, site: str, expected: object, got: object):
        super().__init__(
            "task %s returned a truncated/corrupt payload "
            "(expected %s, got %s)" % (site, expected, got)
        )
        self.site = site


@dataclass
class AttemptRecord:
    """One task attempt as seen by the driver."""

    site: str
    attempt: int
    status: str  # "ok" | "error" | "timeout"
    seconds: float
    error: Optional[str] = None


@dataclass
class CampaignHealth:
    """What the runtime did to keep a campaign alive.

    Accumulates across every :func:`map_ordered` call it is passed to,
    so one report can cover a campaign and its resumed continuation.
    """

    attempts: List[AttemptRecord] = field(default_factory=list)
    wall_time: float = 0.0

    def record(
        self,
        site: str,
        attempt: int,
        status: str,
        seconds: float,
        error: Optional[str] = None,
    ) -> None:
        self.attempts.append(
            AttemptRecord(site, attempt, status, seconds, error)
        )

    @property
    def retries(self) -> int:
        """Failed attempts (every one triggered a retry)."""
        return sum(1 for a in self.attempts if a.status != "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for a in self.attempts if a.status == "timeout")

    @property
    def healthy(self) -> bool:
        """True when no attempt failed."""
        return not self.retries

    def summary(self) -> str:
        parts = [
            "%d attempt(s) over %d task(s): %d ok, %d failed"
            % (
                len(self.attempts),
                len({a.site for a in self.attempts}),
                sum(1 for a in self.attempts if a.status == "ok"),
                self.retries,
            )
        ]
        if self.timeouts:
            parts.append("%d timeout(s)" % self.timeouts)
        parts.append("%.2fs wall" % self.wall_time)
        return "; ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view (for logs and bench records)."""
        return {
            "attempts": [
                {
                    "site": a.site,
                    "attempt": a.attempt,
                    "status": a.status,
                    "seconds": a.seconds,
                    "error": a.error,
                }
                for a in self.attempts
            ],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "wall_time": self.wall_time,
        }


# ----------------------------------------------------------------------
# The ordered map
# ----------------------------------------------------------------------


def execute_task(
    fn: Callable[[_Task], _Result],
    task: _Task,
    site: str,
    attempt: int,
    plan: Optional[FaultPlan],
) -> _Result:
    """One task invocation, with the fault plan threaded through.

    The plan fires its pre-task faults for ``(site, attempt)``, the
    task runs inside that fault scope, and the result passes the plan's
    payload corruption.  A local shard and a fleet lease both run
    through here, so both key their faults the same way.
    """
    if plan is None:
        return fn(task)
    with fault_scope(plan, site, attempt):
        plan.fire(site, attempt)
        result = fn(task)
        return plan.corrupt_payload(site, attempt, result)


def map_ordered(
    fn: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    max_workers: Optional[int] = None,
    *,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    sites: Optional[Sequence[str]] = None,
    health: Optional[CampaignHealth] = None,
    validate: Optional[Callable[[_Task, _Result], None]] = None,
) -> Iterator[_Result]:
    """``fn(t) for t in tasks`` on a thread pool, under the retry loop.

    Yields the results in task order, each as soon as it and every
    earlier one have succeeded: a result that lands ahead of a failed
    task waits in a buffer until the retry round that completes the
    gap.  Any reduction that folds the results sequentially (e.g.
    merging per-segment CPA accumulators) is therefore independent of
    the worker count, and can fold while later tasks still run.  There
    is one execution path: retry rounds on fresh daemon threads (see
    the module docstring), one thread for one worker.  The arguments
    are checked when the map is called; the tasks start when the
    iterator is first advanced, in a copy of the advancing thread's
    context, and tasks still queued when the iterator is closed are
    dropped.

    Args:
        fn: task function.
        tasks: task payloads.
        max_workers: pool size (default :func:`default_workers`).
        policy: retry/timeout policy (default :class:`RetryPolicy`).
        fault_plan: deterministic fault-injection schedule
            (:class:`repro.util.faults.FaultPlan`), threaded into every
            task invocation.
        sites: stable per-task identity strings used for fault keying,
            health reporting, and :class:`ShardError` messages
            (default ``"task[i]"``).
        health: a :class:`CampaignHealth` to accumulate runtime events
            into (shareable across calls).
        validate: ``validate(task, result)`` called in the driver
            after each successful attempt; raising (e.g.
            :class:`TruncatedResultError`) marks the attempt failed
            and triggers the retry path.

    Raises:
        ShardError: a task failed on every one of its attempts (raised
            after the retry round in which it failed for the
            ``policy.max_attempts``-th time).
    """
    names = (
        list(sites)
        if sites is not None
        else ["task[%d]" % i for i in range(len(tasks))]
    )
    if len(names) != len(tasks):
        raise ValueError(
            "got %d sites for %d tasks" % (len(names), len(tasks))
        )
    workers = max(
        1, max_workers if max_workers is not None else default_workers()
    )
    return _ordered(
        fn, tasks, names, workers, policy or RetryPolicy(), fault_plan,
        CampaignHealth() if health is None else health, validate,
    )


def _ordered(
    fn, tasks, names, workers, policy, fault_plan, health, validate,
) -> Iterator[object]:
    """The retry loop of :func:`map_ordered`, yielding in task order."""
    results: Dict[int, object] = {}
    submissions = [0] * len(tasks)
    failures = [0] * len(tasks)
    last_error: List[Optional[BaseException]] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    released = 0
    round_number = 0
    started = time.monotonic()
    try:
        while pending:
            time.sleep(policy.backoff_delay(round_number))
            retry: List[int] = []
            for index, status, value, seconds in _pool_round(
                fn, tasks, pending, names, workers, policy, fault_plan,
                submissions,
            ):
                if status == "requeued":
                    retry.append(index)
                    continue
                attempt = submissions[index] - 1
                if status == "ok":
                    try:
                        if validate is not None:
                            validate(tasks[index], value)
                    except Exception as exc:
                        status, value = "error", exc
                    else:
                        results[index] = value
                        health.record(names[index], attempt, "ok", seconds)
                        while released in results:
                            yield results.pop(released)
                            released += 1
                        continue
                if status == "timeout":
                    value = TimeoutError(
                        "task %s exceeded its %.3fs deadline"
                        % (names[index], policy.timeout)
                    )
                    error = str(value)
                else:
                    error = repr(value)
                failures[index] += 1
                retry.append(index)
                last_error[index] = value
                health.record(
                    names[index], attempt, status, seconds, error=error,
                )
            for index in retry:
                if failures[index] >= policy.max_attempts:
                    raise ShardError(
                        names[index], submissions[index], last_error[index],
                    )
            pending = retry
            round_number += 1
    finally:
        health.wall_time += time.monotonic() - started


def _pool_round(
    fn, tasks, pending, names, workers, policy, plan, submissions,
) -> Iterator[Tuple[int, str, object, float]]:
    """One retry round of ``pending`` on fresh daemon threads.

    Yields ``(index, status, value, seconds)`` per task, in task order:
    ``"ok"`` with the result, ``"error"`` with the exception,
    ``"timeout"``, or ``"requeued"`` for a task that never started
    because every thread was held by a task past its deadline.

    Each task stamps its own start on its thread, so a deadline counts
    only the time the task runs, never the time it waits in the queue.
    The threads are fresh per round, so a retry never queues behind a
    task abandoned on a deadline, and they are daemons, so an abandoned
    task keeps running in the background without holding process exit.
    """
    changed = threading.Condition()
    queue = deque(pending)
    began: Dict[int, float] = {}
    ended: Dict[int, float] = {}
    outcome: Dict[int, Tuple[str, object]] = {}
    attempts = {index: submissions[index] for index in pending}
    context = contextvars.copy_context()

    def work() -> None:
        while True:
            with changed:
                if not queue:
                    return
                index = queue.popleft()
                began[index] = time.monotonic()
                changed.notify_all()
            try:
                outcome[index] = "ok", context.copy().run(
                    execute_task,
                    fn, tasks[index], names[index], attempts[index], plan,
                )
            except BaseException as exc:
                outcome[index] = "error", exc
            with changed:
                ended[index] = time.monotonic()
                changed.notify_all()

    for index in pending:
        submissions[index] += 1
    threads = [
        threading.Thread(target=work, name="repro-task", daemon=True)
        for _ in range(min(workers, len(pending)))
    ]
    for thread in threads:
        thread.start()
    abandoned: List[int] = []
    try:
        for index in pending:
            with changed:
                while index not in began:
                    stuck = sum(1 for i in abandoned if i not in ended)
                    if stuck >= len(threads):
                        queue.remove(index)
                        break
                    changed.wait()
                started = index in began
                if started:
                    start = began[index]
                    remaining = (
                        None
                        if policy.timeout is None
                        else start + policy.timeout - time.monotonic()
                    )
                    finished = changed.wait_for(
                        lambda: index in ended, timeout=remaining
                    )
            if not started:
                submissions[index] -= 1
                yield index, "requeued", None, 0.0
            elif not finished:
                abandoned.append(index)
                yield index, "timeout", None, time.monotonic() - start
            else:
                status, value = outcome[index]
                if status == "error" and not isinstance(value, Exception):
                    raise value  # e.g. SystemExit from a task
                yield index, status, value, ended[index] - start
    finally:
        # Threads exit once the queue is empty; tasks still queued when
        # the driver stops are dropped, not run in the background.
        with changed:
            queue.clear()
