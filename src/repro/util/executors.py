"""The fault-tolerant ordered map every campaign fans out through.

The sharded campaign driver (:mod:`repro.experiments.parallel`) and the
per-byte full-key CPAs (:mod:`repro.attacks.full_key`) both fan work
out over identical, order-preserving maps; this module is the single
place that runs them, on a :class:`concurrent.futures.ThreadPoolExecutor`.
The hot kernels (C or numpy) release the GIL, so threads scale without
serializing anything: every task reads the driver's arrays in place.

On top of the pool, :func:`map_ordered` optionally runs each task under
a :class:`RetryPolicy`: per-task deadlines counted from the moment the
task starts on a pool thread, bounded retries with exponential backoff
and deterministic jitter, and graceful degradation ``thread -> serial``
when the pool stays unhealthy.  Failures that survive the whole ladder
surface as a structured :class:`ShardError`; everything the runtime did
to keep the campaign alive is recorded in a :class:`CampaignHealth`
report.  Because campaign task functions are pure functions of their
payloads (all randomness is keyed on global trace indices), a retried
task reproduces its result bit for bit, so none of this machinery can
change a campaign's output — only whether it survives.

It lives in :mod:`repro.util` because the consumers import each other
(``experiments.parallel`` imports ``attacks.full_key``); a neutral home
keeps the pool policy in one code path.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
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
from repro.util.rng import derive_seed

#: The thread-pool backend.
EXECUTOR_THREAD = "thread"
#: In-process execution — the last rung of the degradation ladder.
BACKEND_SERIAL = "serial"

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

_UNSET = object()


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
        max_attempts: attempts per task *per backend* before the task
            is declared stuck on that backend (>= 1; 1 disables
            retries).
        timeout: per-task deadline in seconds, measured from the moment
            the task starts on a pool thread (None: no deadline); time
            spent queued behind other tasks does not count.  A task past
            its deadline is abandoned and retried; serial execution
            cannot enforce deadlines (there is no second thread to
            abandon from).
        backoff_base / backoff_factor / backoff_max: exponential
            backoff between retry rounds, in seconds:
            ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
            before round ``k``.
        jitter: relative jitter on the backoff delay, drawn
            deterministically from ``seed`` and the round identity so
            reruns sleep identically.
        degrade: when the pool stays unhealthy after the per-backend
            retry budget, fall back to serial execution instead of
            failing.
        seed: seed for the deterministic jitter draws.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    degrade: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def backoff_delay(self, backend: str, round_number: int) -> float:
        """Deterministic backoff before retry round ``round_number``."""
        if round_number < 1:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (round_number - 1),
        )
        unit = (
            derive_seed(self.seed, "backoff", backend, round_number)
            % 2**32
        ) / 2.0**32
        return delay * (1.0 + self.jitter * unit)


class ShardError(ReproError):
    """A task exhausted its retry budget on the last available backend.

    Attributes:
        site: stable task identity (e.g. ``"shard[0:4000]"``).
        attempts: total submissions of the task across all backends.
        backend: the backend the final attempt ran on.
        cause: the exception that ended the final attempt.
    """

    def __init__(
        self, site: str, attempts: int, backend: str, cause: BaseException
    ):
        super().__init__(
            "task %s failed after %d attempt(s), last on the %s "
            "backend: %s" % (site, attempts, backend, cause)
        )
        self.site = site
        self.attempts = attempts
        self.backend = backend
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
    backend: str
    attempt: int
    status: str  # "ok" | "error" | "timeout"
    seconds: float
    error: Optional[str] = None


@dataclass
class CampaignHealth:
    """What the runtime did to keep a campaign alive.

    Accumulates across every :func:`map_ordered` call it is passed to,
    so one report can cover a whole checkpointed, multi-group campaign.
    """

    attempts: List[AttemptRecord] = field(default_factory=list)
    degradations: List[Tuple[str, str]] = field(default_factory=list)
    wall_time: float = 0.0

    def record(
        self,
        site: str,
        backend: str,
        attempt: int,
        status: str,
        seconds: float,
        error: Optional[str] = None,
    ) -> None:
        self.attempts.append(
            AttemptRecord(site, backend, attempt, status, seconds, error)
        )

    @property
    def retries(self) -> int:
        """Failed attempts (every one triggered a retry or rung)."""
        return sum(1 for a in self.attempts if a.status != "ok")

    @property
    def timeouts(self) -> int:
        return sum(1 for a in self.attempts if a.status == "timeout")

    @property
    def healthy(self) -> bool:
        """True when no attempt failed and nothing degraded."""
        return not self.retries and not self.degradations

    def shard_wall_times(self) -> Dict[str, float]:
        """Total seconds spent per site, failed attempts included."""
        times: Dict[str, float] = {}
        for a in self.attempts:
            times[a.site] = times.get(a.site, 0.0) + a.seconds
        return times

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
        for source, target in self.degradations:
            parts.append("degraded %s->%s" % (source, target))
        parts.append("%.2fs wall" % self.wall_time)
        return "; ".join(parts)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view (for logs and bench records)."""
        return {
            "attempts": [
                {
                    "site": a.site,
                    "backend": a.backend,
                    "attempt": a.attempt,
                    "status": a.status,
                    "seconds": a.seconds,
                    "error": a.error,
                }
                for a in self.attempts
            ],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "degradations": [list(d) for d in self.degradations],
            "wall_time": self.wall_time,
        }


# ----------------------------------------------------------------------
# The ordered map
# ----------------------------------------------------------------------


def _execute_task(
    fn: Callable[[_Task], _Result],
    task: _Task,
    site: str,
    attempt: int,
    plan: Optional[FaultPlan],
    backend: str,
) -> _Result:
    """One task invocation, with the fault plan threaded through."""
    if plan is None:
        return fn(task)
    with fault_scope(plan, site, attempt, backend):
        plan.fire(site, attempt, backend)
        result = fn(task)
        return plan.corrupt_payload(site, attempt, backend, result)


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
) -> List[_Result]:
    """``[fn(t) for t in tasks]``, optionally on a thread pool.

    Results come back in task order regardless of completion order, so
    any reduction that folds them sequentially (e.g. merging
    per-segment CPA accumulators) is independent of the worker count.
    With one worker (or one task) the map runs in-process — the serial
    path stays a plain loop with no pool overhead.

    Passing any of the keyword-only arguments switches the map into
    its fault-tolerant mode (see the module docstring); without them
    the zero-overhead path runs unchanged.

    Args:
        fn: task function.
        tasks: task payloads.
        max_workers: pool size (default :func:`default_workers`;
            1 forces serial).
        policy: retry/timeout/degradation policy
            (default :class:`RetryPolicy` when any fault-tolerant
            argument is supplied).
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
        ShardError: a task kept failing through the whole retry budget
            and degradation ladder.
    """
    workers = max_workers if max_workers is not None else default_workers()
    resilient = not (
        policy is None
        and fault_plan is None
        and health is None
        and validate is None
    )
    if not resilient:
        if workers <= 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return _resilient_map(
        fn,
        tasks,
        workers,
        policy or RetryPolicy(),
        fault_plan,
        sites,
        health if health is not None else CampaignHealth(),
        validate,
    )


def _resilient_map(
    fn: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    workers: int,
    policy: RetryPolicy,
    plan: Optional[FaultPlan],
    sites: Optional[Sequence[str]],
    health: CampaignHealth,
    validate: Optional[Callable[[_Task, _Result], None]],
) -> List[_Result]:
    names = (
        list(sites)
        if sites is not None
        else ["task[%d]" % i for i in range(len(tasks))]
    )
    if len(names) != len(tasks):
        raise ValueError(
            "got %d sites for %d tasks" % (len(names), len(tasks))
        )
    results: List[object] = [_UNSET] * len(tasks)
    submissions = [0] * len(tasks)
    last_error: List[Optional[BaseException]] = [None] * len(tasks)
    if workers <= 1 or len(tasks) <= 1:
        ladder = [BACKEND_SERIAL]
    elif policy.degrade:
        ladder = [EXECUTOR_THREAD, BACKEND_SERIAL]
    else:
        ladder = [EXECUTOR_THREAD]
    started = time.monotonic()
    try:
        for rung, backend in enumerate(ladder):
            pending = [
                i for i in range(len(tasks)) if results[i] is _UNSET
            ]
            if not pending:
                break
            final = rung == len(ladder) - 1
            if backend == BACKEND_SERIAL:
                _serial_rung(
                    fn, tasks, pending, names, policy, plan,
                    results, submissions, last_error, health,
                    validate,
                )
            else:
                leftover = _pool_rung(
                    fn, tasks, pending, names, workers, policy, plan,
                    results, submissions, last_error, health, validate,
                    final,
                )
                if leftover and not final:
                    health.degradations.append(
                        (backend, ladder[rung + 1])
                    )
    finally:
        health.wall_time += time.monotonic() - started
    return results  # type: ignore[return-value]


def _pool_round(
    fn, tasks, pending, names, workers, policy, plan, submissions,
) -> Iterator[Tuple[int, str, object, float]]:
    """One retry round of ``pending`` on a fresh thread pool.

    Yields ``(index, status, value, seconds)`` per task, in task order:
    ``"ok"`` with the result, ``"error"`` with the exception,
    ``"timeout"``, or ``"requeued"`` for a task that never started
    because every pool thread was held by a task past its deadline.

    Each task stamps its own start on the pool thread, so a deadline
    counts only the time the task runs, never the time it waits in the
    queue.  The pool is fresh per round: threads abandoned on a
    deadline keep running in the background, and a retry must not
    queue behind them.
    """
    changed = threading.Condition()
    began: Dict[int, float] = {}
    ended: Dict[int, float] = {}
    attempts = {index: submissions[index] for index in pending}

    def run(index: int) -> object:
        with changed:
            began[index] = time.monotonic()
            changed.notify_all()
        try:
            return _execute_task(
                fn, tasks[index], names[index], attempts[index], plan,
                EXECUTOR_THREAD,
            )
        finally:
            with changed:
                ended[index] = time.monotonic()
                changed.notify_all()

    for index in pending:
        submissions[index] += 1
    pool = ThreadPoolExecutor(max_workers=workers)
    abandoned: List[int] = []
    try:
        futures = {index: pool.submit(run, index) for index in pending}
        for index in pending:
            future = futures[index]
            with changed:
                while index not in began:
                    stuck = sum(1 for i in abandoned if i not in ended)
                    if stuck >= workers and future.cancel():
                        break
                    changed.wait()
            if future.cancelled():
                submissions[index] -= 1
                yield index, "requeued", None, 0.0
                continue
            start = began[index]
            remaining = (
                None
                if policy.timeout is None
                else max(0.0, start + policy.timeout - time.monotonic())
            )
            try:
                result = future.result(timeout=remaining)
            except FuturesTimeout:
                abandoned.append(index)
                yield index, "timeout", None, time.monotonic() - start
            except Exception as exc:
                yield index, "error", exc, ended[index] - start
            else:
                yield index, "ok", result, ended[index] - start
    finally:
        # wait=False: a hung task must not block the driver; its thread
        # finishes in the background.
        pool.shutdown(wait=False)


def _pool_rung(
    fn, tasks, pending, names, workers, policy, plan,
    results, submissions, last_error, health, validate, final,
) -> List[int]:
    """Run ``pending`` tasks on the thread pool.

    Returns the indices still unfinished after the per-backend retry
    budget (empty on success); raises :class:`ShardError` instead when
    this is the final rung.
    """
    failures = {index: 0 for index in pending}
    round_number = 0
    while pending:
        if round_number > 0:
            time.sleep(policy.backoff_delay(EXECUTOR_THREAD, round_number))
        retry: List[int] = []
        for index, status, value, seconds in _pool_round(
            fn, tasks, pending, names, workers, policy, plan, submissions,
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
                    health.record(
                        names[index], EXECUTOR_THREAD, attempt, "ok",
                        seconds,
                    )
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
                names[index], EXECUTOR_THREAD, attempt, status, seconds,
                error=error,
            )
        exhausted = [
            index
            for index in retry
            if failures[index] >= policy.max_attempts
        ]
        if exhausted:
            if final:
                index = exhausted[0]
                raise ShardError(
                    names[index], submissions[index], EXECUTOR_THREAD,
                    last_error[index],
                )
            # Pool persistently unhealthy: hand everything still
            # unfinished to the next rung of the ladder.
            return retry
        pending = retry
        round_number += 1
    return []


def _serial_rung(
    fn, tasks, pending, names, policy, plan,
    results, submissions, last_error, health, validate,
) -> None:
    """In-process execution — the ladder's last resort.

    No deadline enforcement is possible here; hangs run to completion.
    Raises :class:`ShardError` when a task exhausts the retry budget
    (serial is always the final rung).
    """
    for index in pending:
        failures = 0
        while True:
            attempt = submissions[index]
            submissions[index] += 1
            begun = time.monotonic()
            try:
                result = _execute_task(
                    fn, tasks[index], names[index], attempt, plan,
                    BACKEND_SERIAL,
                )
                if validate is not None:
                    validate(tasks[index], result)
                results[index] = result
                health.record(
                    names[index], BACKEND_SERIAL, attempt, "ok",
                    time.monotonic() - begun,
                )
                break
            except Exception as exc:
                failures += 1
                last_error[index] = exc
                health.record(
                    names[index], BACKEND_SERIAL, attempt, "error",
                    time.monotonic() - begun, error=repr(exc),
                )
                if failures >= policy.max_attempts:
                    raise ShardError(
                        names[index], submissions[index],
                        BACKEND_SERIAL, exc,
                    )
                time.sleep(
                    policy.backoff_delay(BACKEND_SERIAL, failures)
                )
