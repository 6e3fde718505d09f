"""Tests for the durable control plane: journal-driven job recovery,
worker auto-reconnect, poison-shard quarantine, and the phantom
handshake reap.

The headline contract: a server that dies with jobs in flight and
restarts on the same journal directory finishes every job with results
bit-identical to an undisturbed run.  In-process tests simulate the
SIGKILL with :meth:`JobJournal.crash` (handles dropped, lock file left
behind); the subprocess drill at the bottom delivers a real SIGKILL
through the chaos harness.
"""

import asyncio
import json as jsonlib

import numpy as np
import pytest

from repro.service.codec import from_payload
from repro.service.fleet import FleetConfig
from repro.service.jobs import JobSpec
from repro.service.journal import JobJournal, JournalLocked
from repro.service.runners import run_attack, run_tracegen
from repro.service.scheduler import CampaignScheduler, SchedulerConfig
from repro.service.server import CampaignServer
from repro.service.worker import FleetWorker
from repro.util.faults import FaultPlan, FaultSpec

ATTACK_PARAMS = {"traces": 8_000, "seed": 3, "fleet": False}
TRACEGEN_PARAMS = {"traces": 40, "seed": 6}


def _crashed_journal(tmp_path, *jobs):
    """A journal directory left behind by a 'SIGKILL'd' server."""
    journal = JobJournal(str(tmp_path / "journal"))
    for job_id, kind, params, started in jobs:
        spec = JobSpec.create(kind, params)
        journal.append("submitted", job_id, spec=spec.as_dict())
        if started:
            journal.append("started", job_id)
    journal.crash()
    return str(tmp_path / "journal")


def _config(tmp_path, journal_dir):
    return SchedulerConfig(
        max_concurrency=2,
        batch_window_s=0.0,
        journal_dir=journal_dir,
        spool_dir=str(tmp_path / "spool"),
        cache_dir=str(tmp_path / "cache"),
    )


class TestJournalRecovery:
    def test_two_in_flight_jobs_recover_bit_identically(self, tmp_path):
        """The acceptance scenario, in-process: a killed server left
        one running and one queued job; the successor replays the
        journal and completes both, byte-identical to direct runs."""
        journal_dir = _crashed_journal(
            tmp_path,
            ("job-000004", "attack", ATTACK_PARAMS, True),
            ("job-000007", "tracegen", TRACEGEN_PARAMS, False),
        )

        async def run():
            scheduler = CampaignScheduler(_config(tmp_path, journal_dir))
            await scheduler.start()
            try:
                recovered = {
                    job_id: scheduler.job(job_id)
                    for job_id in ("job-000004", "job-000007")
                }
                events = {}
                for job_id, state in recovered.items():
                    assert state is not None, "job %s not recovered" % job_id
                    assert state.recovered is True
                    collected = []
                    async for event in state.stream():
                        collected.append(event)
                    events[job_id] = collected
                    assert state.status == "done", state.error
                # Fresh ids continue beyond the journaled maximum.
                fresh = scheduler.submit(
                    JobSpec.create("tracegen", {"traces": 10, "seed": 1})
                )
                assert fresh.job_id == "job-000008"
                snapshot = scheduler.recovery_snapshot()
                return recovered, events, snapshot
            finally:
                await scheduler.stop()

        recovered, events, snapshot = asyncio.run(run())
        assert snapshot["journal_enabled"] is True
        assert snapshot["jobs_recovered"] == 2
        assert snapshot["journal_replays"] == 1

        for job_id, state_events in events.items():
            kinds = [event["event"] for event in state_events]
            assert kinds[0] == "recovered"

        attack = from_payload(recovered["job-000004"].result)
        baseline = run_attack(
            JobSpec.create("attack", ATTACK_PARAMS).params
        )
        assert np.array_equal(attack.checkpoints, baseline.checkpoints)
        assert np.array_equal(
            attack.correlations, baseline.correlations
        )
        traces = from_payload(recovered["job-000007"].result)
        direct = run_tracegen(
            JobSpec.create("tracegen", TRACEGEN_PARAMS).params
        )
        assert np.array_equal(traces["voltages"], direct["voltages"])

    def test_terminal_journaled_jobs_reappear_finished(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        spec = JobSpec.create("tracegen", TRACEGEN_PARAMS)
        journal.append("submitted", "job-000001", spec=spec.as_dict())
        journal.append("started", "job-000001")
        journal.append("failed", "job-000001", error="worker exploded")
        journal.crash()

        async def run():
            scheduler = CampaignScheduler(
                _config(tmp_path, str(tmp_path / "journal"))
            )
            await scheduler.start()
            try:
                state = scheduler.job("job-000001")
                assert state is not None
                return state.status, state.error, state.recovered
            finally:
                await scheduler.stop()

        status, error, recovered = asyncio.run(run())
        assert status == "failed"
        assert error == "worker exploded"
        assert recovered is True

    def test_invalid_journaled_spec_fails_structurally(self, tmp_path):
        journal = JobJournal(str(tmp_path / "journal"))
        journal.append(
            "submitted", "job-000001", spec={"kind": "levitate"}
        )
        journal.crash()

        async def run():
            scheduler = CampaignScheduler(
                _config(tmp_path, str(tmp_path / "journal"))
            )
            await scheduler.start()
            try:
                state = scheduler.job("job-000001")
                return state.status, state.error
            finally:
                await scheduler.stop()

        status, error = asyncio.run(run())
        assert status == "failed"
        assert "no longer valid" in error

    def test_journaled_process_executor_job_fails_structurally(
        self, tmp_path
    ):
        # A job journaled before the process backend was removed comes
        # back failed, not crashing the recovery pass.
        journal = JobJournal(str(tmp_path / "journal"))
        journal.append(
            "submitted", "job-000001",
            spec={
                "kind": "attack",
                "params": {"traces": 4000, "executor": "process"},
                "priority": 10,
            },
        )
        journal.crash()

        async def run():
            scheduler = CampaignScheduler(
                _config(tmp_path, str(tmp_path / "journal"))
            )
            await scheduler.start()
            try:
                state = scheduler.job("job-000001")
                return state.status, state.error
            finally:
                await scheduler.stop()

        status, error = asyncio.run(run())
        assert status == "failed"
        assert "journaled spec is no longer valid" in error
        assert "process backend was removed" in error

    def test_second_scheduler_on_same_journal_refused(self, tmp_path):
        config = _config(tmp_path, str(tmp_path / "journal"))

        async def run():
            first = CampaignScheduler(config)
            try:
                with pytest.raises(JournalLocked, match="must not share"):
                    CampaignScheduler(_config(tmp_path, config.journal_dir))
            finally:
                await first.stop()

        asyncio.run(run())


class TestWorkerReconnect:
    def test_worker_redials_a_restarted_server(self, tmp_path):
        """Kill the server under a reconnect-enabled worker, restart
        on the same port, and the worker re-registers by itself."""

        async def run():
            scheduler = CampaignScheduler(
                SchedulerConfig(max_concurrency=1)
            )
            server = CampaignServer(scheduler, port=0)
            host, port = await server.start()
            worker = FleetWorker(
                host,
                port,
                name="phoenix",
                slots=1,
                local_workers=1,
                quiet=True,
                reconnect=True,
                max_reconnects=50,
                reconnect_base_s=0.05,
                reconnect_seed=11,
            )
            task = asyncio.create_task(worker.run())
            deadline = asyncio.get_running_loop().time() + 15.0
            while scheduler.fleet.num_workers < 1:
                assert (
                    asyncio.get_running_loop().time() < deadline
                ), "worker never registered"
                await asyncio.sleep(0.02)
            await server.close()

            restarted = CampaignScheduler(
                SchedulerConfig(max_concurrency=1)
            )
            revived = CampaignServer(restarted, host=host, port=port)
            await revived.start()
            try:
                deadline = asyncio.get_running_loop().time() + 20.0
                while restarted.fleet.num_workers < 1:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "worker never re-registered"
                    await asyncio.sleep(0.02)
                reconnects = restarted.metrics.counter(
                    "worker_reconnects"
                ).value
                sessions = worker.sessions
            finally:
                worker.drain()
                await asyncio.gather(task, return_exceptions=True)
                await revived.close()
            return sessions, reconnects

        sessions, reconnects = asyncio.run(run())
        assert sessions == 2
        assert reconnects >= 1

    def test_backoff_delays_are_seeded_and_bounded(self):
        worker = FleetWorker(
            "127.0.0.1",
            1,
            quiet=True,
            reconnect=True,
            reconnect_base_s=0.5,
            reconnect_max_s=4.0,
            reconnect_seed=7,
        )
        twin = FleetWorker(
            "127.0.0.1",
            1,
            name=worker.name,
            quiet=True,
            reconnect=True,
            reconnect_base_s=0.5,
            reconnect_max_s=4.0,
            reconnect_seed=7,
        )
        delays = [worker._backoff_delay(n) for n in range(1, 8)]
        assert delays == [twin._backoff_delay(n) for n in range(1, 8)]
        assert all(0 < delay <= 4.0 for delay in delays)
        # The exponential envelope grows until the cap.
        assert delays[0] <= 0.5 and max(delays) > 1.0

    def test_without_reconnect_connection_loss_is_fatal(self):
        worker = FleetWorker("127.0.0.1", 1, quiet=True)
        from repro.service.worker import WorkerError

        with pytest.raises(WorkerError, match="repro serve"):
            asyncio.run(worker.run())


def _run_poisoned_fleet(fault: FaultSpec):
    """A 2-worker fleet where every worker carries ``fault``."""
    spec = JobSpec.create(
        "attack", {"traces": 8_000, "seed": 1, "fleet": True}
    )
    poison = FaultPlan([fault], seed=2)

    async def run():
        scheduler = CampaignScheduler(
            SchedulerConfig(max_concurrency=1),
            fleet_config=FleetConfig(quarantine_after=2),
        )
        server = CampaignServer(scheduler, port=0)
        host, port = await server.start()
        workers, tasks = [], []
        for index in range(2):
            worker = FleetWorker(
                host,
                port,
                name="poisoned%d" % index,
                slots=1,
                local_workers=1,
                fault_plan=poison,
                quiet=True,
            )
            workers.append(worker)
            tasks.append(asyncio.create_task(worker.run()))
        deadline = asyncio.get_running_loop().time() + 15.0
        while scheduler.fleet.num_workers < 2:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.02)
        try:
            state = scheduler.submit(spec)
            async for _event in state.stream():
                pass
            quarantined = scheduler.metrics.counter(
                "shards_quarantined"
            ).value
            return state, quarantined
        finally:
            for worker in workers:
                worker.drain()
            await asyncio.gather(*tasks, return_exceptions=True)
            await server.close()

    return asyncio.run(run())


class TestQuarantine:
    def test_poison_shard_fails_fast_with_a_structured_error(self):
        """A shard that raises on two distinct workers is the shard's
        fault; the job fails immediately with a quarantine report
        instead of burning the whole attempt budget."""
        state, quarantined = _run_poisoned_fleet(
            FaultSpec("exception", attempts=99)
        )
        assert state.status == "failed"
        assert "quarantined" in state.error
        assert "distinct worker" in state.error
        assert "fleet=false" in state.error
        assert quarantined >= 1
        kinds = [event["event"] for event in state.events]
        assert "shard_quarantined" in kinds

    def test_persistently_truncated_results_quarantine_the_shard(self):
        """Results that fail validation on two distinct workers count
        exactly like raised errors."""
        state, quarantined = _run_poisoned_fleet(
            FaultSpec("truncate", attempts=99)
        )
        assert state.status == "failed"
        assert "quarantined" in state.error
        assert "invalid result" in state.error
        assert quarantined >= 1


class TestPhantomHandshake:
    def test_worker_killed_after_register_is_reaped_immediately(self):
        """A worker that dies between ``worker_register`` and its
        first lease must not linger as a phantom capability entry
        until the heartbeat window expires."""

        async def run():
            scheduler = CampaignScheduler(
                SchedulerConfig(max_concurrency=1),
                fleet_config=FleetConfig(
                    heartbeat_s=5.0, heartbeat_timeout_s=60.0
                ),
            )
            server = CampaignServer(scheduler, port=0)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    jsonlib.dumps(
                        {
                            "op": "worker_register",
                            "worker": {"name": "ghost", "slots": 2},
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                ack = jsonlib.loads(await reader.readline())
                assert ack["ok"] is True
                # SIGKILL between the handshake and the first lease.
                writer.transport.abort()
                deadline = asyncio.get_running_loop().time() + 5.0
                while scheduler.fleet.num_workers:
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "phantom worker was never reaped"
                    await asyncio.sleep(0.02)
                return scheduler.fleet.num_workers
            finally:
                await server.close()

        assert asyncio.run(run()) == 0


class TestSubprocessChaosDrill:
    def test_sigkill_server_recovery_is_bit_identical(self):
        """The full acceptance drill with real processes: SIGKILL the
        journaled server at the ``lease_granted`` barrier with two
        jobs in flight (one leased to a remote worker), restart it,
        and every recovered result matches the undisturbed run."""
        from repro.experiments.drills import chaos_drill

        record = chaos_drill(traces=12_000, seed=1)
        assert record["plan"]["server_kill"] is True
        assert record["identity_diffs"] == 0
        assert record["identical_results"] is True
        assert record["journal"]["jobs_recovered"] == 2
        assert record["journal"]["journal_replays"] >= 1
        assert record["journal"]["worker_reconnects"] >= 1
        assert record["lock_released_after_drain"] is True
        assert record["recovery_s"] > 0
