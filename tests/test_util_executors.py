"""Tests for the thread pool and the fault-tolerant map."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.util.executors import (
    CampaignHealth,
    RetryPolicy,
    ShardError,
    TruncatedResultError,
    default_workers,
    map_ordered,
    usable_cpu_count,
)
from repro.util.faults import (
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_TRUNCATE,
    SCOPE_POOL,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

#: A retry policy with no real sleeping, for fast deterministic tests.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _square(x):
    return x * x


def _pid_of(_):
    return os.getpid()


class TestMapOrdered:
    def test_preserves_task_order(self):
        tasks = list(range(20))
        expected = [t * t for t in tasks]
        assert map_ordered(_square, tasks, max_workers=4) == expected

    def test_single_worker_runs_inline(self):
        # With one worker the map runs in-process, in task order.
        captured = []
        result = map_ordered(
            lambda x: captured.append(x) or x, [1, 2, 3], max_workers=1,
        )
        assert result == [1, 2, 3]
        assert captured == [1, 2, 3]

    def test_single_task_runs_inline(self):
        assert map_ordered(lambda x: x + 1, [41], max_workers=8) == [42]

    def test_thread_backend_stays_in_process(self):
        pids = set(map_ordered(_pid_of, range(8), max_workers=2))
        assert pids == {os.getpid()}

    def test_default_workers_positive(self):
        assert 1 <= default_workers() <= 8


class TestUsableCpuCount:
    def test_matches_affinity_mask_where_available(self):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            assert usable_cpu_count() == (os.cpu_count() or 1)

    def test_never_exceeds_machine_count(self):
        assert 1 <= usable_cpu_count() <= (os.cpu_count() or 1)

    def test_default_workers_uses_usable_count(self):
        # The containerized-oversubscription fix: the default pool is
        # sized from the cores this process may run on, not from the
        # machine's total.
        assert default_workers() == min(8, usable_cpu_count())


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3,
            jitter=0.0,
        )
        delays = [
            policy.backoff_delay("thread", k) for k in range(5)
        ]
        assert delays[0] == 0.0
        assert delays[1] == pytest.approx(0.1)
        assert delays[2] == pytest.approx(0.2)
        assert delays[3] == pytest.approx(0.3)
        assert delays[4] == pytest.approx(0.3)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter=0.5, seed=11)
        again = RetryPolicy(jitter=0.5, seed=11)
        assert policy.backoff_delay("thread", 2) == again.backoff_delay(
            "thread", 2
        )
        base = RetryPolicy(jitter=0.0, seed=11).backoff_delay("thread", 2)
        assert base <= policy.backoff_delay("thread", 2) <= base * 1.5


@pytest.mark.timeout(120)
class TestResilientMap:
    """Each fault mode either recovers or fails structured."""

    def test_transient_exception_recovers_serial(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site="task[1]", attempts=1)]
        )
        health = CampaignHealth()
        result = map_ordered(
            _square, [1, 2, 3], max_workers=1,
            policy=FAST, fault_plan=plan, health=health,
        )
        assert result == [1, 4, 9]
        assert health.retries == 1
        assert not health.healthy

    def test_transient_exception_recovers_thread_pool(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site="task[2]", attempts=2)]
        )
        health = CampaignHealth()
        result = map_ordered(
            _square, list(range(6)), max_workers=3,
            policy=FAST, fault_plan=plan, health=health,
        )
        assert result == [x * x for x in range(6)]
        assert health.retries == 2

    def test_exhaustion_raises_structured_shard_error(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site="task[0]", attempts=10**6)]
        )
        with pytest.raises(ShardError) as excinfo:
            map_ordered(
                _square, [1, 2], max_workers=1,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan,
            )
        error = excinfo.value
        assert error.site == "task[0]"
        assert error.attempts == 2
        assert error.backend == "serial"
        assert isinstance(error.cause, InjectedFault)
        assert isinstance(error.__cause__, InjectedFault)

    def test_pool_fault_degrades_thread_to_serial(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    FAULT_EXCEPTION, site="task[1]",
                    scope=SCOPE_POOL, attempts=10**6,
                )
            ]
        )
        health = CampaignHealth()
        result = map_ordered(
            _square, [1, 2, 3, 4], max_workers=2,
            policy=FAST, fault_plan=plan, health=health,
        )
        assert result == [1, 4, 9, 16]
        assert ("thread", "serial") in health.degradations

    def test_hang_hits_timeout_path_and_recovers(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    FAULT_HANG, site="task[0]", attempts=1,
                    hang_seconds=5.0,
                )
            ]
        )
        health = CampaignHealth()
        result = map_ordered(
            _square, [1, 2], max_workers=2,
            policy=RetryPolicy(
                max_attempts=3, timeout=0.2, backoff_base=0.0,
            ),
            fault_plan=plan, health=health,
        )
        assert result == [1, 4]
        assert health.timeouts >= 1

    def test_truncated_payload_caught_by_validator(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_TRUNCATE, site="task[0]", attempts=1)]
        )

        def validate(task, result):
            if len(result) != len(task):
                raise TruncatedResultError(
                    "task", len(task), len(result)
                )

        health = CampaignHealth()
        result = map_ordered(
            list, [(1, 2), (3, 4)], max_workers=1,
            policy=FAST, fault_plan=plan, health=health,
            validate=validate,
        )
        assert result == [[1, 2], [3, 4]]
        assert health.retries == 1

    def test_custom_sites_name_errors_and_health(self):
        plan = FaultPlan(
            [FaultSpec(FAULT_EXCEPTION, site="shard[0:4]", attempts=10**6)]
        )
        with pytest.raises(ShardError, match=r"shard\[0:4\]"):
            map_ordered(
                _square, [1, 2], max_workers=1,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_plan=plan, sites=["shard[0:4]", "shard[4:8]"],
            )

    def test_sites_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sites"):
            map_ordered(
                _square, [1, 2, 3], max_workers=1,
                policy=FAST, sites=["only-one"],
            )

    def test_health_accumulates_across_calls(self):
        health = CampaignHealth()
        map_ordered(_square, [1, 2], max_workers=1, health=health)
        map_ordered(_square, [3], max_workers=1, health=health)
        assert len(health.attempts) == 3
        assert health.healthy
        assert health.wall_time > 0.0
        payload = health.as_dict()
        assert payload["retries"] == 0
        assert len(payload["attempts"]) == 3
        assert "3 attempt(s)" in health.summary()

    def test_resilient_results_match_legacy(self):
        tasks = list(range(10))
        legacy = map_ordered(_square, tasks, max_workers=4)
        resilient = map_ordered(
            _square, tasks, max_workers=4, policy=FAST,
        )
        assert legacy == resilient


def _counting_sleeper(seconds, calls):
    """A task that records each execution and sleeps ``seconds``."""
    lock = threading.Lock()

    def task(x):
        with lock:
            calls.append(x)
        time.sleep(seconds)
        return x

    return task


@pytest.mark.timeout(120)
class TestDeadlines:
    """A deadline counts the time a task runs, not the time it queues."""

    def test_queued_tasks_do_not_spend_their_deadline(self):
        # Four 0.6 s tasks on two threads: the last two wait 0.6 s in
        # the queue, then run 0.6 s, inside their 1.0 s deadline.
        calls = []
        health = CampaignHealth()
        started = time.monotonic()
        result = map_ordered(
            _counting_sleeper(0.6, calls), range(4), max_workers=2,
            policy=RetryPolicy(timeout=1.0, max_attempts=2),
            health=health,
        )
        wall = time.monotonic() - started
        assert result == [0, 1, 2, 3]
        assert health.timeouts == 0
        assert sorted(calls) == [0, 1, 2, 3]  # each task ran once
        assert wall < 1.7

    def test_retry_after_timeout_runs_on_a_fresh_pool(self):
        # Both first attempts hang for 3 s and are abandoned at their
        # 0.2 s deadline, holding both threads; the retries must not
        # queue behind those threads.
        plan = FaultPlan(
            [
                FaultSpec(FAULT_HANG, site=site, hang_seconds=3.0)
                for site in ("task[0]", "task[1]")
            ]
        )
        health = CampaignHealth()
        started = time.monotonic()
        result = map_ordered(
            _square, [1, 2], max_workers=2,
            policy=RetryPolicy(timeout=0.2, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        assert result == [1, 4]
        assert health.timeouts == 2
        assert not health.degradations
        assert time.monotonic() - started < 2.0

    def test_tasks_behind_stuck_threads_are_requeued(self):
        # Both threads hang past their deadline on the first round, so
        # task[2] and task[3] can never start there: they move to the
        # next round without spending an attempt.
        plan = FaultPlan(
            [
                FaultSpec(FAULT_HANG, site=site, hang_seconds=2.0)
                for site in ("task[0]", "task[1]")
            ]
        )
        health = CampaignHealth()
        result = map_ordered(
            _square, range(4), max_workers=2,
            policy=RetryPolicy(timeout=0.2, backoff_base=0.0),
            fault_plan=plan, health=health,
        )
        assert result == [0, 1, 4, 9]
        assert health.timeouts == 2
        attempts = {a.site: a.attempt for a in health.attempts
                    if a.status == "ok"}
        assert attempts == {
            "task[0]": 1, "task[1]": 1, "task[2]": 0, "task[3]": 0,
        }


@pytest.mark.timeout(300)
def test_campaign_never_imports_the_process_pool_or_shared_memory():
    """A two-worker campaign runs on threads alone: the process pool and
    shared-memory modules are never even imported."""
    script = textwrap.dedent(
        """
        import sys

        from repro.service import runners
        from repro.service.jobs import normalize_params

        params = normalize_params(
            "attack", {"traces": 4000, "workers": 2}
        )
        result = runners.run_attack(params)
        assert result.correlations.shape[1] == 256, result
        for name in (
            "concurrent.futures.process", "multiprocessing.shared_memory",
        ):
            assert name not in sys.modules, name
        print("ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
