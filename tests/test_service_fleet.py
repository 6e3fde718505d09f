"""Tests for the distributed campaign fabric (fleet + worker).

Bit-identity is the contract under test: a campaign dispatched over
any number of loopback workers — including through lease timeouts,
dropped connections, heartbeat-silent workers, and duplicate shard
completions — must produce results byte-identical to the single-host
runner.  Failure modes are injected deterministically with
:class:`repro.util.faults.FaultPlan`, never with real signals, so
every recovery path reproduces exactly.
"""

import asyncio

import numpy as np
import pytest

from repro.core.attack import STREAM_BLOCK
from repro.service.fleet import FleetConfig, FleetCoordinator
from repro.service.jobs import JobSpec
from repro.service.runners import (
    merge_attack_partials,
    merge_fullkey_blocks,
    plan_fleet_job,
    run_attack,
    run_attack_shard,
    run_fullkey,
    run_fullkey_shard,
)
from repro.service.scheduler import CampaignScheduler, SchedulerConfig
from repro.service.server import CampaignServer
from repro.service.worker import (
    FleetWorker,
    parse_worker_address,
    WorkerError,
)
from repro.util.faults import FaultPlan, FaultSpec

ATTACK_TRACES = 120_000  # 30 stream blocks: enough shards to distribute


def _attack_spec(**extra) -> JobSpec:
    params = {"traces": ATTACK_TRACES, "seed": 1, "fleet": True}
    params.update(extra)
    return JobSpec.create("attack", params)


def _baseline(spec: JobSpec):
    return run_attack(dict(spec.params, fleet=False))


def _assert_cpa_equal(result, baseline) -> None:
    assert np.array_equal(result.checkpoints, baseline.checkpoints)
    assert np.array_equal(result.correlations, baseline.correlations)
    assert result.correct_key == baseline.correct_key


async def _start_service(fleet_config=None):
    scheduler = CampaignScheduler(
        SchedulerConfig(max_concurrency=1), fleet_config=fleet_config
    )
    server = CampaignServer(scheduler, port=0)
    host, port = await server.start()
    return scheduler, server, host, port


async def _start_workers(host, port, scheduler, count, fault_plans=None):
    workers, tasks = [], []
    for index in range(count):
        plan = (fault_plans or {}).get(index)
        worker = FleetWorker(
            host,
            port,
            name="tw%d" % index,
            slots=1,
            local_workers=1,
            fault_plan=plan,
            quiet=True,
        )
        workers.append(worker)
        tasks.append(asyncio.create_task(worker.run()))
    deadline = asyncio.get_running_loop().time() + 30.0
    while scheduler.fleet.num_workers < count:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("workers never registered")
        await asyncio.sleep(0.02)
    return workers, tasks


async def _run_job(scheduler, spec):
    state = scheduler.submit(spec)
    async for _event in state.stream():
        pass
    return state


async def _teardown(workers, tasks, server):
    for worker in workers:
        worker.drain()
    await asyncio.gather(*tasks, return_exceptions=True)
    await server.close()


class TestShardPlanAndMerge:
    def test_plan_is_chunk_aligned_and_covers_the_range(self):
        spec = _attack_spec()
        plan = plan_fleet_job("attack", spec.params, 4)
        assert plan.shards[0][0] == 0
        assert plan.shards[-1][1] == ATTACK_TRACES
        for (start, end), nxt in zip(plan.shards, plan.shards[1:]):
            assert end == nxt[0]
            assert start % STREAM_BLOCK == 0
        covered = sorted(
            boundary
            for ends in plan.segment_ends
            for boundary in ends
            if boundary in plan.checkpoints
        )
        assert covered == sorted(plan.checkpoints)

    def test_merge_is_invariant_to_shard_count(self):
        spec = _attack_spec()
        baseline = _baseline(spec)
        for num_shards in (1, 2):
            plan = plan_fleet_job("attack", spec.params, num_shards)
            partials = [
                run_attack_shard(
                    spec.params, start, end, list(ends), local_workers=1
                )
                for (start, end), ends in zip(
                    plan.shards, plan.segment_ends
                )
            ]
            merged = merge_attack_partials(spec.params, plan, partials)
            _assert_cpa_equal(merged, baseline)


class TestRouteIdentity:
    """The fleet route (plan -> lease -> merge) equals the direct run.

    110k traces over two shards gives a two-chunk first lease, so a
    two-slot worker really splits it into local sub-shards and folds
    them back before the coordinator merge.
    """

    SOURCES = {
        "analytic": {},
        "physical": {
            "jitter": "uniform:2",
            "preprocess": "align=correlation:4",
        },
    }

    @pytest.mark.parametrize("local_workers", [1, 2])
    @pytest.mark.parametrize("source", ["analytic", "physical"])
    @pytest.mark.parametrize("kind", ["attack", "fullkey"])
    def test_fleet_route(self, kind, source, local_workers):
        spec = JobSpec.create(
            kind, dict(self.SOURCES[source], traces=110_000, seed=5)
        )
        plan = plan_fleet_job(kind, spec.params, 2)
        assert len(plan.shards) == 2
        if kind == "attack":
            direct = run_attack(dict(spec.params, fleet=False))
            partials = [
                run_attack_shard(
                    spec.params, start, end, list(ends),
                    local_workers=local_workers,
                )
                for (start, end), ends in zip(plan.shards, plan.segment_ends)
            ]
            merged = merge_attack_partials(spec.params, plan, partials)
            pairs = [(merged, direct)]
        else:
            direct = run_fullkey(dict(spec.params, fleet=False))
            blocks = [
                run_fullkey_shard(
                    spec.params, start, end, local_workers=local_workers
                )
                for start, end in plan.shards
            ]
            merged = merge_fullkey_blocks(spec.params, blocks)
            assert (
                merged.recovered_last_round_key
                == direct.recovered_last_round_key
            )
            pairs = list(zip(merged.byte_results, direct.byte_results))
        for mine, theirs in pairs:
            assert mine.correct_key == theirs.correct_key
            assert (
                mine.checkpoints.tobytes() == theirs.checkpoints.tobytes()
            )
            assert (
                mine.correlations.tobytes() == theirs.correlations.tobytes()
            )


class TestLeaseValidation:
    """The coordinator checks each lease result against the job's
    statistic before storing it."""

    def test_attack_partials_must_cover_the_segment_ends(self):
        from repro.util.executors import TruncatedResultError

        spec = _attack_spec()
        plan = plan_fleet_job("attack", spec.params, 2)
        (start, end), ends = plan.shards[0], plan.segment_ends[0]
        partials = [
            [boundary, state]
            for boundary, state in run_attack_shard(
                spec.params, start, end, list(ends), local_workers=1
            )
        ]
        plan.validate(0, partials)
        for bad in (partials[:-1], partials[1:], None, "junk"):
            with pytest.raises(TruncatedResultError):
                plan.validate(0, bad)

    def test_fullkey_block_must_have_the_lease_shape(self):
        from repro.util.executors import TruncatedResultError

        spec = JobSpec.create("fullkey", {"traces": 2_000, "seed": 1})
        plan = plan_fleet_job("fullkey", spec.params, 1)
        start, end = plan.shards[0]
        block = run_fullkey_shard(spec.params, start, end)
        plan.validate(0, block)
        for bad in (block[:-1], block[:, :3], None):
            with pytest.raises(TruncatedResultError):
                plan.validate(0, bad)


class TestFleetEndToEnd:
    def test_identity_across_fleet_sizes(self):
        spec = _attack_spec()
        baseline = _baseline(spec)

        async def run(count):
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, count
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        for count in (1, 2, 4):
            _assert_cpa_equal(asyncio.run(run(count)), baseline)

    def test_fullkey_identity_over_the_fleet(self):
        spec = JobSpec.create(
            "fullkey", {"traces": 2_000, "seed": 1, "fleet": True}
        )
        baseline = run_fullkey(dict(spec.params, fleet=False))

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 2
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        result = asyncio.run(run())
        assert (
            result.recovered_last_round_key
            == baseline.recovered_last_round_key
        )
        for mine, theirs in zip(
            result.byte_results, baseline.byte_results
        ):
            assert np.array_equal(mine.correlations, theirs.correlations)

    def test_worker_error_reassigns_lease_and_result_is_identical(self):
        spec = _attack_spec()
        baseline = _baseline(spec)
        # Worker 0 raises an injected exception on every shard's first
        # attempt; reassignment (attempt 1) deterministically succeeds.
        plans = {
            0: FaultPlan(
                [FaultSpec("exception", attempts=1)], seed=3
            )
        }

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 2, fault_plans=plans
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert metrics.counter("fleet_shard_errors").value >= 1
                assert (
                    metrics.counter("fleet_leases_reassigned").value >= 1
                )
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_truncated_result_is_rejected_and_reassigned(self):
        spec = _attack_spec()
        baseline = _baseline(spec)
        # Worker 0 loses the last segment of every first-attempt
        # result; the coordinator's validator must reject it and the
        # reassigned lease (attempt 1) delivers the whole payload.
        plans = {
            0: FaultPlan(
                [FaultSpec("truncate", attempts=1)], seed=3
            )
        }

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 2, fault_plans=plans
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert metrics.counter("fleet_invalid_results").value >= 1
                assert (
                    metrics.counter("fleet_leases_reassigned").value >= 1
                )
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_connection_drop_mid_shard_reassigns_and_stays_identical(
        self,
    ):
        """The in-process equivalent of SIGKILLing a worker mid-shard."""
        spec = _attack_spec()
        baseline = _baseline(spec)
        # Worker 0 hangs long enough for the test to abort its
        # connection while the shard thread is still running.
        # Short enough that worker teardown (which waits for the
        # uncancellable shard thread) stays fast, long enough that the
        # abort below always lands mid-shard.
        plans = {
            0: FaultPlan(
                [
                    FaultSpec(
                        "hang",
                        attempts=1,
                        hang_seconds=3.0,
                    )
                ],
                seed=5,
            )
        }

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 2, fault_plans=plans
            )
            try:
                submit = asyncio.create_task(_run_job(scheduler, spec))
                # Wait until worker 0 actually holds a lease, then
                # sever its connection abruptly (no drain, no close
                # handshake) — the coordinator must requeue its shard.
                deadline = asyncio.get_running_loop().time() + 20.0
                while True:
                    held = [
                        w
                        for w in scheduler.fleet._workers.values()
                        if w.name == "tw0" and w.leases
                    ]
                    if held:
                        break
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("tw0 never took a lease")
                    await asyncio.sleep(0.01)
                workers[0]._writer.transport.abort()
                state = await asyncio.wait_for(submit, 60.0)
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert (
                    metrics.counter("fleet_leases_reassigned").value >= 1
                )
                assert scheduler.fleet.num_workers == 1
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_hung_worker_lease_timeout_and_duplicate_completion(self):
        """A hung-but-heartbeating worker: the lease deadline revokes
        just the lease; when the hung thread finally reports, the
        late duplicate is dropped by the idempotent merge."""
        spec = _attack_spec()
        baseline = _baseline(spec)
        plans = {
            0: FaultPlan(
                [
                    FaultSpec(
                        "hang", attempts=1, hang_seconds=2.5
                    )
                ],
                seed=7,
            )
        }
        config = FleetConfig(
            heartbeat_s=0.1,
            heartbeat_timeout_s=30.0,  # heartbeats keep flowing
            lease_timeout_s=0.5,
            # Generous attempt budget: the hung worker's slot looks
            # free to the coordinator, so a reassignment can land
            # behind the hung thread and time out again before the
            # healthy worker frees up.
            max_lease_attempts=10,
        )

        async def run():
            scheduler, server, host, port = await _start_service(config)
            workers, tasks = await _start_workers(
                host, port, scheduler, 2, fault_plans=plans
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert metrics.counter("fleet_lease_timeouts").value >= 1
                # The hung thread wakes up after the job completed and
                # still sends its result; wait for the dedupe counter.
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    metrics.counter("fleet_duplicate_results").value < 1
                ):
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError(
                            "late duplicate result never arrived"
                        )
                    await asyncio.sleep(0.05)
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_heartbeat_silent_worker_is_dropped_and_job_completes(self):
        """A worker that registers, absorbs leases, and never
        heartbeats is fenced by the heartbeat window."""
        import json as jsonlib

        spec = _attack_spec()
        baseline = _baseline(spec)
        config = FleetConfig(heartbeat_s=0.05, heartbeat_timeout_s=0.4)

        async def run():
            scheduler, server, host, port = await _start_service(config)
            # The silent impostor registers first so placement can
            # route shards to it.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                jsonlib.dumps(
                    {
                        "op": "worker_register",
                        "worker": {"name": "silent", "slots": 2},
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            ack = jsonlib.loads(await reader.readline())
            assert ack["ok"] is True
            workers, tasks = await _start_workers(
                host, port, scheduler, 1
            )
            try:
                state = await asyncio.wait_for(
                    _run_job(scheduler, spec), 60.0
                )
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert (
                    metrics.counter("fleet_heartbeat_timeouts").value
                    >= 1
                )
                assert scheduler.fleet.num_workers == 1
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                writer.close()
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_fleet_required_without_workers_fails_structurally(self):
        spec = _attack_spec()

        async def run():
            scheduler, server, _host, _port = await _start_service()
            try:
                state = await _run_job(scheduler, spec)
                return state.status, state.error
            finally:
                await server.close()

        status, error = asyncio.run(run())
        assert status == "failed"
        assert "no fleet workers connected" in error

    def test_fleet_false_forces_local_despite_workers(self):
        spec = _attack_spec(fleet=False)
        baseline = _baseline(spec)

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 1
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                assert (
                    scheduler.metrics.counter("fleet_leases_issued").value
                    == 0
                )
                from repro.service.codec import from_payload

                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)


class TestPlacement:
    def _worker(self, coordinator, name, slots, warm=()):
        from repro.service.fleet import _Worker

        worker = _Worker(
            "w-%s" % name,
            {"name": name, "slots": slots, "warm_keys": list(warm)},
            writer=None,
            now=0.0,
        )
        coordinator._workers[worker.worker_id] = worker
        return worker

    def _job(self, coordinator, spec):
        from repro.service.fleet import _FleetJob
        from repro.service.runners import plan_fleet_job

        async def build():
            plan = plan_fleet_job("attack", spec.params, 2)
            return _FleetJob(spec, "job-t", plan, None)

        return asyncio.run(build())

    def test_warm_worker_beats_more_free_slots(self):
        coordinator = FleetCoordinator()
        spec = _attack_spec()
        cold = self._worker(coordinator, "cold", slots=4)
        warm = self._worker(
            coordinator, "warm", slots=1, warm=[spec.cache_key]
        )
        job = self._job(coordinator, spec)
        assert coordinator._pick_worker(job) is warm
        assert (
            coordinator.metrics.counter("fleet_placement_warm").value == 1
        )
        assert cold.free_slots == 4  # untouched

    def test_cold_placement_prefers_free_slots_then_id(self):
        coordinator = FleetCoordinator()
        spec = _attack_spec()
        small = self._worker(coordinator, "a", slots=1)
        big = self._worker(coordinator, "b", slots=3)
        job = self._job(coordinator, spec)
        assert coordinator._pick_worker(job) is big
        assert (
            coordinator.metrics.counter("fleet_placement_cold").value == 1
        )
        assert small.free_slots == 1

    def test_waiting_retry_does_not_hold_back_later_shards(self):
        """Shard 0 raised on worker a and waits for busy worker b; the
        shard behind it must still take a's free slot."""
        from repro.service.fleet import _FleetJob

        coordinator = FleetCoordinator()
        spec = _attack_spec()
        failed = self._worker(coordinator, "a", slots=1)
        busy = self._worker(coordinator, "b", slots=1)
        busy.leases["held"] = None  # b's only slot is taken
        sent = []

        async def record(message, compress):
            sent.append(message["shard_index"])

        failed.send = record

        async def run():
            plan = plan_fleet_job("attack", spec.params, 4)
            job = _FleetJob(spec, "job-t", plan, None)
            job.failed_workers[0] = {failed.worker_id}
            coordinator._jobs[job.job_id] = job
            await coordinator._pump()
            return job

        job = asyncio.run(run())
        assert sent == [1]
        assert list(failed.leases.values())[0].shard_index == 1
        assert list(job.pending) == [0, 2, 3]

    def test_repeat_submission_hits_warm_placement(self):
        """After a job completes, its workers are warm for the key;
        a repeat submission must register warm placements."""
        spec = _attack_spec()

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 1
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                scheduler.cache.clear_memory()  # force a recompute
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                return scheduler.metrics.counter(
                    "fleet_placement_warm"
                ).value
            finally:
                await _teardown(workers, tasks, server)

        assert asyncio.run(run()) >= 1


class TestWorkerAddress:
    def test_host_port(self):
        assert parse_worker_address("10.0.0.5:7341") == ("10.0.0.5", 7341)

    def test_bare_port_is_loopback(self):
        assert parse_worker_address("7341") == ("127.0.0.1", 7341)

    @pytest.mark.parametrize("bad", ["", "host:", "host:nope", "x:0"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(WorkerError):
            parse_worker_address(bad)

    def test_unreachable_server_is_a_structured_error(self):
        worker = FleetWorker("127.0.0.1", 1, quiet=True)
        with pytest.raises(WorkerError, match="repro serve"):
            asyncio.run(worker.run())
