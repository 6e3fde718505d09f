"""Tests for the campaign scheduler: batching, cache, backpressure.

These carry the service acceptance criteria: results produced under
request coalescing and under caching are bit-identical to direct runs,
the bounded queue sheds load with an explicit rejection, and queue
depth / latency metrics are actually populated.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.service import cache as cache_module
from repro.service.codec import from_payload, payload_text, to_payload
from repro.service.jobs import JobSpec, QueueFullError
from repro.service.runners import run_attack, run_tracegen
from repro.service.scheduler import (
    CampaignScheduler,
    SchedulerClosedError,
    SchedulerConfig,
)

#: A job that holds its worker until the ``held_slot`` event is set.
HOLD = JobSpec.create("attack", {"traces": 400, "seed": 1, "workers": 1})


def _scheduler(**kwargs) -> CampaignScheduler:
    defaults = dict(max_concurrency=2, queue_size=16)
    defaults.update(kwargs)
    return CampaignScheduler(SchedulerConfig(**defaults))


async def _behind_held_slot(release, specs, **config):
    """Submit ``specs`` while the only worker runs :data:`HOLD`, then
    release it; returns the scheduler and the finished states."""
    scheduler = _scheduler(max_concurrency=1, **config)
    await scheduler.start()
    hold = scheduler.submit(HOLD)
    while hold.status != "running":
        await asyncio.sleep(0.005)
    states = [scheduler.submit(spec) for spec in specs]
    await asyncio.sleep(0.05)
    release.set()
    for state in [hold] + states:
        await _finished(state)
    await scheduler.stop()
    return scheduler, states


async def _finished(state, timeout=120.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not state.terminal:
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("job did not finish: %s" % state.job_id)
        await asyncio.sleep(0.005)
    return state


class TestCoalescingBitIdentity:
    def test_batched_tracegen_matches_direct_runs(self, held_slot):
        """The core guarantee: coalescing never changes any output.
        Requests queued behind a busy worker form one batch."""
        specs = [
            JobSpec.create("tracegen", {"traces": 30 + 7 * i, "seed": i})
            for i in range(1, 5)
        ]
        scheduler, states = asyncio.run(
            _behind_held_slot(held_slot, specs)
        )
        sizes = {state.batch_size for state in states}
        assert sizes == {len(specs)}, "a busy slot should coalesce all four"
        assert scheduler.metrics.counter("batches").value == 1
        for spec, state in zip(specs, states):
            assert state.status == "done", state.error
            direct = run_tracegen(dict(spec.params))
            served = from_payload(scheduler.result(state))
            assert np.array_equal(
                served["ciphertexts"], direct["ciphertexts"]
            )
            assert np.array_equal(served["voltages"], direct["voltages"])

    def test_lone_tracegen_on_an_idle_scheduler_starts_at_once(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            state = scheduler.submit(
                JobSpec.create("tracegen", {"traces": 20, "seed": 1})
            )
            # Only loop turns, no timer: a batching delay would keep
            # the job queued here.
            for _ in range(20):
                if state.status != "queued":
                    break
                await asyncio.sleep(0)
            started = state.status
            await _finished(state)
            await scheduler.stop()
            return started, state

        started, state = asyncio.run(run())
        assert started == "running"
        assert state.status == "done" and state.batch_size == 1

    def test_incompatible_keys_never_share_a_batch(self, held_slot):
        specs = [
            JobSpec.create("tracegen", {"traces": 20, "seed": 1}),
            JobSpec.create(
                "tracegen", {"traces": 20, "seed": 1, "key_hex": "ff" * 16}
            ),
        ]
        _scheduler, (a, b) = asyncio.run(
            _behind_held_slot(held_slot, specs)
        )
        assert a.batch_size == 1 and b.batch_size == 1
        assert a.status == b.status == "done"

    def test_max_batch_jobs_bounds_a_window(self, held_slot):
        specs = [
            JobSpec.create("tracegen", {"traces": 10, "seed": s})
            for s in (1, 2, 3)
        ]
        _scheduler, states = asyncio.run(
            _behind_held_slot(held_slot, specs, max_batch_jobs=2)
        )
        assert [state.batch_size for state in states] == [2, 2, 1]


class TestCacheIntegration:
    def test_repeat_submission_hits_memory_cache(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            spec = JobSpec.create("tracegen", {"traces": 25, "seed": 3})
            first = await _finished(scheduler.submit(spec))
            second = scheduler.submit(spec)
            await scheduler.stop()
            return scheduler, first, second

        scheduler, first, second = asyncio.run(run())
        assert first.cache is None
        assert second.status == "done"
        assert second.cache == "memory"
        assert scheduler.result(second) == scheduler.result(first), (
            "bit-identical payloads"
        )

    def test_disk_cache_survives_scheduler_restart(self, tmp_path):
        async def run():
            spec = JobSpec.create("tracegen", {"traces": 25, "seed": 5})
            first_sched = _scheduler(cache_dir=str(tmp_path))
            await first_sched.start()
            first = await _finished(first_sched.submit(spec))
            await first_sched.stop()

            second_sched = _scheduler(cache_dir=str(tmp_path))
            await second_sched.start()
            second = second_sched.submit(spec)
            await second_sched.stop()
            return first_sched, first, second_sched, second

        first_sched, first, second_sched, second = asyncio.run(run())
        assert second.cache == "disk"
        a = from_payload(first_sched.result(first))
        b = from_payload(second_sched.result(second))
        assert np.array_equal(a["voltages"], b["voltages"])

    def test_disk_entry_keeps_the_cache_format(self, tmp_path):
        params = {"traces": 25, "seed": 8}

        async def run():
            scheduler = _scheduler(cache_dir=str(tmp_path))
            await scheduler.start()
            spec = JobSpec.create("tracegen", params)
            state = await _finished(scheduler.submit(spec))
            await scheduler.stop()
            return spec, state

        spec, state = asyncio.run(run())
        assert state.status == "done", state.error
        payload = to_payload("tracegen", run_tracegen(dict(spec.params)))
        entry = tmp_path / ("%s.json" % spec.cache_key)
        assert entry.read_bytes() == json.dumps(
            {"key": spec.cache_key, "payload": payload, "version": 1},
            sort_keys=True,
        ).encode("utf-8")

    def test_inflight_duplicate_attaches_to_primary(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            spec = JobSpec.create("tracegen", {"traces": 25, "seed": 6})
            primary = scheduler.submit(spec)
            follower = scheduler.submit(spec)
            await _finished(primary)
            await _finished(follower)
            await scheduler.stop()
            return scheduler, primary, follower

        scheduler, primary, follower = asyncio.run(run())
        assert follower.cache == "inflight"
        assert scheduler.result(follower) == scheduler.result(primary)
        assert scheduler.metrics.counter("jobs_deduped").value == 1
        # The deterministic pass ran once, not twice.
        assert scheduler.metrics.counter("batches").value == 1


class TestBoundedResults:
    """A finished job owns no payload; the byte-bounded cache does."""

    SPECS = [
        JobSpec.create("tracegen", {"traces": 20 + i, "seed": 40 + i})
        for i in range(4)
    ]

    @pytest.fixture(autouse=True)
    def _budget(self, monkeypatch):
        # Two of the four payloads fit; the batch stores all four.
        first = run_tracegen(dict(self.SPECS[0].params))
        smallest = len(payload_text("tracegen", first))
        self.budget = 2 * smallest + smallest // 2
        monkeypatch.setattr(
            cache_module, "MEMORY_BUDGET_BYTES", self.budget
        )

    def _run_batch(self, **config):
        async def run():
            scheduler = _scheduler(**config)
            await scheduler.start()
            states = [scheduler.submit(spec) for spec in self.SPECS]
            handoffs = [scheduler.result_future(state) for state in states]
            payloads = await asyncio.gather(*handoffs)
            await scheduler.stop()
            return scheduler, states, payloads

        return asyncio.run(run())

    def test_every_submitter_of_an_oversize_batch_gets_its_result(self):
        scheduler, states, payloads = self._run_batch()
        assert {state.batch_size for state in states} == {len(self.SPECS)}
        assert sum(map(len, payloads)) > self.budget
        for spec, payload in zip(self.SPECS, payloads):
            direct = run_tracegen(dict(spec.params))
            served = from_payload(payload)
            assert served["voltages"].tobytes() == (
                direct["voltages"].tobytes()
            )
            assert np.array_equal(
                served["ciphertexts"], direct["ciphertexts"]
            )
        gauges = scheduler.metrics.snapshot()["gauges"]
        assert gauges["cache_memory_bytes"]["value"] <= self.budget
        assert gauges["cache_memory_bytes"]["high_water"] <= self.budget
        assert gauges["cache_memory_entries"]["value"] == 2
        for state in states:
            assert not hasattr(state, "result")
            assert state.waiters == []

    def test_views_read_the_cache(self):
        scheduler, states, payloads = self._run_batch()
        hits = scheduler.cache.stats.hits
        # Evicted from a memory-only server: the view reports null.
        assert scheduler.result(states[0]) is None
        # The newest job's result is still resident.
        assert scheduler.result(states[-1]) == payloads[-1]
        assert scheduler.cache.stats.hits == hits, "views are no hits"

    def test_views_fall_back_to_the_disk_copy(self, tmp_path):
        scheduler, states, payloads = self._run_batch(
            cache_dir=str(tmp_path)
        )
        assert scheduler.cache.peek(states[0].spec.cache_key) is not None
        for state, payload in zip(states, payloads):
            assert scheduler.result(state) == payload


#: A non-default cipher key: a tracegen with it joins no default batch.
KEY = "ff" * 16


class TestBackpressure:
    def test_queue_full_rejects_with_structured_error(self):
        async def run():
            # One slot, zero workers started: nothing drains the queue.
            scheduler = _scheduler(queue_size=1)
            first = scheduler.submit(
                JobSpec.create("tracegen", {"traces": 10, "seed": 1})
            )
            with pytest.raises(QueueFullError) as excinfo:
                scheduler.submit(
                    JobSpec.create(
                        "tracegen", {"traces": 10, "seed": 2, "key_hex": KEY}
                    )
                )
            return scheduler, first, excinfo.value

        scheduler, first, error = asyncio.run(run())
        assert error.depth == 1 and error.limit == 1
        assert "retry later" in str(error)
        assert scheduler.metrics.counter("jobs_rejected").value == 1
        # The rejected job was never registered anywhere.
        assert len(scheduler.jobs) == 1
        assert scheduler.jobs[first.job_id] is first

    def test_rejection_leaves_no_inflight_residue(self):
        async def run():
            scheduler = _scheduler(queue_size=1)
            scheduler.submit(
                JobSpec.create("tracegen", {"traces": 10, "seed": 1})
            )
            rejected_spec = JobSpec.create(
                "tracegen", {"traces": 10, "seed": 2, "key_hex": KEY}
            )
            with pytest.raises(QueueFullError):
                scheduler.submit(rejected_spec)
            # After capacity frees, the same spec must be admittable:
            # a rejected submission must not leave a phantom in-flight
            # registration behind.
            await scheduler.start()
            while scheduler.queue.depth > 0:
                await asyncio.sleep(0.01)
            state = scheduler.submit(rejected_spec)
            await _finished(state)
            await scheduler.stop()
            return state

        state = asyncio.run(run())
        assert state.status == "done"
        assert state.cache is None, "computed, not served from residue"

    def test_draining_scheduler_refuses_submissions(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            await scheduler.drain()
            with pytest.raises(SchedulerClosedError):
                scheduler.submit(JobSpec.create("tracegen"))

        asyncio.run(run())


class TestMetrics:
    def test_queue_depth_and_latency_metrics_populated(self):
        async def run():
            scheduler = _scheduler()
            # Submit BEFORE starting workers so depth is observably > 0.
            states = [
                scheduler.submit(
                    JobSpec.create("tracegen", {"traces": 15, "seed": s})
                )
                for s in (1, 2)
            ]
            assert scheduler.metrics.gauge("queue_depth").value == 2
            await scheduler.start()
            for state in states:
                await _finished(state)
            await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(run())
        metrics = scheduler.metrics
        assert metrics.gauge("queue_depth").high_water == 2
        assert metrics.gauge("queue_depth").value == 0, "drained"
        assert metrics.gauge("jobs_running").value == 0
        assert metrics.gauge("jobs_running").high_water >= 1
        for name in ("queue_wait_s", "run_s", "total_s"):
            histogram = metrics.histogram(name)
            assert histogram.count == 2, name
            assert histogram.maximum >= 0
        assert metrics.counter("jobs_submitted").value == 2
        assert metrics.counter("jobs_completed").value == 2
        assert metrics.counter("cache_misses").value == 2

    def test_batching_counters(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            states = [
                scheduler.submit(
                    JobSpec.create("tracegen", {"traces": 10, "seed": s})
                )
                for s in (1, 2, 3)
            ]
            for state in states:
                await _finished(state)
            await scheduler.stop()
            return scheduler

        scheduler = asyncio.run(run())
        assert scheduler.metrics.counter("batches").value == 1
        assert scheduler.metrics.counter("batched_jobs").value == 3
        assert scheduler.metrics.counter("coalesced_jobs").value == 3


class TestCancellation:
    def test_queued_job_cancels_cleanly(self):
        async def run():
            scheduler = _scheduler()
            # No workers: jobs stay queued and cancellable.
            state = scheduler.submit(
                JobSpec.create("tracegen", {"traces": 10, "seed": 1})
            )
            assert scheduler.cancel(state.job_id) is True
            assert scheduler.cancel(state.job_id) is False, "idempotent"
            assert scheduler.cancel("job-999999") is False
            # The slot is free again for the same content.
            await scheduler.start()
            redo = scheduler.submit(
                JobSpec.create("tracegen", {"traces": 10, "seed": 1})
            )
            await _finished(redo)
            await scheduler.stop()
            return scheduler, state, redo

        scheduler, state, redo = asyncio.run(run())
        assert state.status == "cancelled"
        assert redo.status == "done"
        assert scheduler.metrics.counter("jobs_cancelled").value == 1

    def test_finished_job_cannot_be_cancelled(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            state = await _finished(
                scheduler.submit(
                    JobSpec.create("tracegen", {"traces": 10, "seed": 1})
                )
            )
            cancelled = scheduler.cancel(state.job_id)
            await scheduler.stop()
            return cancelled, state

        cancelled, state = asyncio.run(run())
        assert cancelled is False
        assert state.status == "done"


class TestCampaignJobs:
    def test_attack_job_bit_identical_to_direct_runner(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            spec = JobSpec.create(
                "attack", {"traces": 400, "seed": 1, "workers": 2}
            )
            state = await _finished(scheduler.submit(spec))
            await scheduler.stop()
            return scheduler, spec, state

        scheduler, spec, state = asyncio.run(run())
        assert state.status == "done", state.error
        direct = run_attack(dict(spec.params))
        served = from_payload(scheduler.result(state))
        assert np.array_equal(served.correlations, direct.correlations)
        assert np.array_equal(served.checkpoints, direct.checkpoints)
        assert served.correct_key == direct.correct_key

    def test_attack_spools_checkpoint_and_cleans_up(self, tmp_path):
        async def run():
            scheduler = _scheduler(spool_dir=str(tmp_path / "spool"))
            await scheduler.start()
            state = await _finished(
                scheduler.submit(
                    JobSpec.create(
                        "attack", {"traces": 400, "seed": 1, "workers": 2}
                    )
                )
            )
            await scheduler.stop()
            return state

        state = asyncio.run(run())
        assert state.status == "done", state.error
        spool = tmp_path / "spool"
        assert not list(spool.glob("*.npz")), "checkpoint removed on success"

    def test_failed_job_reports_error_not_crash(self):
        async def run():
            scheduler = _scheduler()
            await scheduler.start()
            # A spec built without validation, so the failure happens
            # at execution time inside the worker thread.
            spec = JobSpec(
                kind="tracegen",
                params={"traces": 10, "seed": 1, "key_hex": "zz"},
            )
            state = await _finished(scheduler.submit(spec))
            await scheduler.stop()
            return scheduler, state

        scheduler, state = asyncio.run(run())
        assert state.status == "failed"
        assert state.error
        assert scheduler.metrics.counter("jobs_failed").value == 1
