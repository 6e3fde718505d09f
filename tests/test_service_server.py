"""End-to-end tests of the JSON-lines server and client."""

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro.service import cache as cache_module
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceRejection,
)
from repro.service.codec import from_payload, to_payload
from repro.service.jobs import JobSpec, normalize_params
from repro.service.journal import JobJournal
from repro.service.runners import run_tracegen
from repro.service.scheduler import CampaignScheduler, SchedulerConfig
from repro.service.server import CampaignServer

#: Params of an attack that holds its worker under ``held_slot``.
HOLD = {"traces": 400, "seed": 1, "workers": 1}


def _serve(config=None):
    """A started server on an ephemeral port plus its scheduler."""
    scheduler = CampaignScheduler(
        config or SchedulerConfig(max_concurrency=2)
    )
    return CampaignServer(scheduler, port=0)


async def _hold(server, client):
    """Submit :data:`HOLD` and wait until it occupies its worker."""
    hold_id = await client.submit_nowait("attack", HOLD)
    while server.scheduler.job(hold_id).status != "running":
        await asyncio.sleep(0.005)
    return hold_id


class TestProtocol:
    def test_ping(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                alive = await client.ping()
            await server.close()
            return alive

        assert asyncio.run(run()) is True

    def test_malformed_line_answers_with_error(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await server.close()
            return response

        response = asyncio.run(run())
        assert response["ok"] is False
        assert "bad request" in response["error"]

    def test_unknown_op_rejected(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                try:
                    await client.request({"op": "levitate"})
                except ServiceError as exc:
                    return str(exc)
                finally:
                    await server.close()

        assert "unknown op" in asyncio.run(run())


class TestSubmitStreaming:
    def test_tracegen_streams_events_and_returns_exact_result(self):
        params = {"traces": 30, "seed": 4}

        async def run():
            server = _serve()
            host, port = await server.start()
            events = []
            async with ServiceClient(host, port) as client:
                job = await client.submit(
                    "tracegen", params, on_event=events.append
                )
            await server.close()
            return job, events

        job, events = asyncio.run(run())
        assert job["status"] == "done"
        assert [event["event"] for event in events] == [
            "queued",
            "started",
            "done",
        ]
        served = from_payload(job["result"])
        direct = run_tracegen(normalize_params("tracegen", params))
        assert np.array_equal(served["voltages"], direct["voltages"])
        assert np.array_equal(
            served["ciphertexts"], direct["ciphertexts"]
        )

    def test_invalid_params_answered_inline(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                try:
                    await client.submit("tracegen", {"bogus": 1})
                except ServiceError as exc:
                    return str(exc)
                finally:
                    await server.close()

        assert "bogus" in asyncio.run(run())

    def test_duplicate_submissions_hit_the_cache(self):
        params = {"traces": 25, "seed": 9}

        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                first = await client.submit("tracegen", params)
                second = await client.submit("tracegen", params)
                metrics = await client.metrics()
            await server.close()
            return first, second, metrics

        first, second, metrics = asyncio.run(run())
        assert first["cache"] is None
        assert second["cache"] == "memory"
        assert second["result"] == first["result"]
        counters = metrics["metrics"]["counters"]
        assert counters["cache_hits"]["value"] == 1
        assert metrics["cache"]["memory_hits"] == 1


class TestResultText:
    def test_every_job_line_carries_the_payload(self):
        params = {"traces": 24, "seed": 11}

        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                submitted = await client.submit("tracegen", params)
                attached = await client.attach(submitted["job_id"])
                viewed = await client.job(
                    submitted["job_id"], include_result=True
                )
            await server.close()
            return submitted, attached, viewed

        payload = to_payload(
            "tracegen", run_tracegen(normalize_params("tracegen", params))
        )
        for job in asyncio.run(run()):
            assert job["status"] == "done"
            assert job["result"] == payload

    def test_ping_answers_while_a_result_is_stored(
        self, tmp_path, monkeypatch
    ):
        """The fsync'd cache write runs off the event loop, and the
        job's ``done`` record lands only after the entry exists."""
        params = {"traces": 20, "seed": 12}
        key = JobSpec.create("tracegen", params).cache_key
        entry = tmp_path / "cache" / ("%s.json" % key)
        writing, release = threading.Event(), threading.Event()
        real_write = cache_module.atomic_write
        real_append = JobJournal.append
        done_saw_entry = []

        def slow_write(path, writer):
            writing.set()
            release.wait(30)
            real_write(path, writer)

        def append(journal, kind, job_id, **data):
            if kind == "done":
                done_saw_entry.append(os.path.exists(entry))
            return real_append(journal, kind, job_id, **data)

        monkeypatch.setattr(cache_module, "atomic_write", slow_write)
        monkeypatch.setattr(JobJournal, "append", append)

        async def run():
            server = _serve(
                SchedulerConfig(
                    cache_dir=str(tmp_path / "cache"),
                    journal_dir=str(tmp_path / "journal"),
                )
            )
            host, port = await server.start()
            try:
                async with ServiceClient(host, port) as client:
                    job_id = await client.submit_nowait("tracegen", params)
                    assert await asyncio.to_thread(writing.wait, 30)
                    alive = await asyncio.wait_for(client.ping(), 5)
                    storing = server.scheduler.job(job_id).status
                    release.set()
                    done = await client.job(job_id, wait=True)
            finally:
                release.set()
                await server.close()
            return alive, storing, done

        alive, storing, done = asyncio.run(run())
        assert alive is True
        assert storing == "running"
        assert done["status"] == "done"
        assert done_saw_entry == [True]


class TestEvictedResultsOverTheWire:
    def test_streaming_clients_get_results_the_cache_evicted(
        self, monkeypatch, held_slot
    ):
        # A budget below one payload: every store evicts the one
        # before it, yet each streaming submitter gets its own result.
        monkeypatch.setattr(cache_module, "MEMORY_BUDGET_BYTES", 1)
        params = [{"traces": 20 + i, "seed": 60 + i} for i in range(3)]

        async def run():
            server = _serve(SchedulerConfig(max_concurrency=1))
            host, port = await server.start()

            async def one(job_params):
                async with ServiceClient(host, port) as client:
                    return await client.submit("tracegen", job_params)

            async with ServiceClient(host, port) as holder:
                await _hold(server, holder)
            submits = [asyncio.create_task(one(p)) for p in params]
            # All three queue behind the held worker, then coalesce.
            while len(server.scheduler.jobs) < 1 + len(params):
                await asyncio.sleep(0.005)
            held_slot.set()
            jobs = await asyncio.gather(*submits)
            async with ServiceClient(host, port) as client:
                views = [
                    await client.job(job["job_id"], include_result=True)
                    for job in jobs
                ]
                attached = await client.attach(jobs[0]["job_id"])
            await server.close()
            return jobs, views, attached

        jobs, views, attached = asyncio.run(run())
        assert {job["batch_size"] for job in jobs} == {3}
        for job_params, job in zip(params, jobs):
            served = from_payload(job["result"])
            direct = run_tracegen(normalize_params("tracegen", job_params))
            assert np.array_equal(served["voltages"], direct["voltages"])
        # Only the newest result is still cached; views read the cache.
        results = [view["result"] for view in views]
        assert sum(result is not None for result in results) == 1
        assert attached["status"] == "done"
        assert attached["result"] is None

    def test_polling_an_unfinished_job_leaves_no_waiter(self, held_slot):
        # The held worker keeps the job queued while it is polled.
        params = {"traces": 20, "seed": 70}

        async def run():
            server = _serve(SchedulerConfig(max_concurrency=1))
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                await _hold(server, client)
                job_id = await client.submit_nowait("tracegen", params)
                polled = [
                    await client.job(job_id, include_result=True)
                    for _ in range(5)
                ]
                waiters = len(server.scheduler.job(job_id).waiters)
                held_slot.set()
                waited = await client.job(
                    job_id, wait=True, include_result=True
                )
            await server.close()
            return polled, waiters, waited

        polled, waiters, waited = asyncio.run(run())
        assert [view["result"] for view in polled] == [None] * 5
        assert {view["status"] for view in polled} == {"queued"}
        assert waiters == 0
        served = from_payload(waited["result"])
        direct = run_tracegen(normalize_params("tracegen", params))
        assert np.array_equal(served["voltages"], direct["voltages"])


class TestBackpressureOverTheWire:
    def test_queue_full_surfaces_as_rejection(self):
        async def run():
            scheduler = CampaignScheduler(
                SchedulerConfig(max_concurrency=1, queue_size=1)
            )
            server = CampaignServer(scheduler, port=0)
            host, port = await server.start()
            # Stall the single worker slot, then fill the single queue
            # slot, then overflow it.
            async with ServiceClient(host, port) as stall, ServiceClient(
                host, port
            ) as fill, ServiceClient(host, port) as overflow:
                stall_id = await stall.submit_nowait(
                    "tracegen", {"traces": 4000, "seed": 1}
                )
                fill_id = None
                rejection = None
                for seed in range(2, 50):
                    # A distinct cipher key per request: none can join
                    # another's queued batch, so each takes a slot.
                    try:
                        job_id = await fill.submit_nowait(
                            "tracegen",
                            {
                                "traces": 10,
                                "seed": seed,
                                "key_hex": "%032x" % seed,
                            },
                        )
                        fill_id = fill_id or job_id
                    except ServiceRejection as exc:
                        rejection = exc
                        break
                # Everything admitted still completes.
                done = await overflow.job(stall_id, wait=True)
            await server.close()
            return rejection, done

        rejection, done = asyncio.run(run())
        assert rejection is not None, "queue never filled"
        assert rejection.limit == 1
        assert "queue full" in str(rejection)
        assert done["status"] == "done"


class TestJobsAndCancel:
    def test_jobs_listing_and_cancel_roundtrip(self):
        async def run():
            scheduler = CampaignScheduler(
                SchedulerConfig(max_concurrency=1)
            )
            server = CampaignServer(scheduler, port=0)
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                done_id = await client.submit_nowait(
                    "tracegen", {"traces": 10, "seed": 1}
                )
                await client.job(done_id, wait=True)
                jobs = await client.jobs()
                cancelled = await client.cancel(done_id)
                unknown = None
                try:
                    await client.job("job-424242")
                except ServiceError as exc:
                    unknown = str(exc)
            await server.close()
            return jobs, cancelled, unknown

        jobs, cancelled, unknown = asyncio.run(run())
        assert len(jobs) == 1
        assert jobs[0]["status"] == "done"
        assert "result" not in jobs[0], "listings stay lightweight"
        assert cancelled is False, "terminal jobs cannot be cancelled"
        assert "unknown job" in unknown


class TestAttach:
    def test_attach_replays_full_history_then_returns_result(self):
        params = {"traces": 30, "seed": 4}

        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as submitter:
                job_id = await submitter.submit_nowait(
                    "tracegen", params
                )
                await submitter.job(job_id, wait=True)
            # A fresh connection, after the job finished: attach must
            # replay the whole event history, not just live events.
            events = []
            async with ServiceClient(host, port) as late:
                job = await late.attach(job_id, on_event=events.append)
            await server.close()
            return job, events

        job, events = asyncio.run(run())
        assert job["status"] == "done"
        assert [event["event"] for event in events] == [
            "queued",
            "started",
            "done",
        ]
        served = from_payload(job["result"])
        direct = run_tracegen(normalize_params("tracegen", params))
        assert np.array_equal(served["voltages"], direct["voltages"])

    def test_attach_without_result_stays_lightweight(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                job_id = await client.submit_nowait(
                    "tracegen", {"traces": 12, "seed": 2}
                )
                job = await client.attach(job_id, include_result=False)
            await server.close()
            return job

        job = asyncio.run(run())
        assert job["status"] == "done"
        assert "result" not in job

    def test_attach_unknown_job_mentions_journal_window(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                try:
                    await client.attach("job-424242")
                except ServiceError as exc:
                    return str(exc)
                finally:
                    await server.close()

        message = asyncio.run(run())
        assert "job-424242" in message
        assert "journal window" in message


class TestGracefulShutdown:
    def test_shutdown_op_drains_and_stops(self):
        async def run():
            server = _serve()
            host, port = await server.start()
            async with ServiceClient(host, port) as client:
                job = await client.submit(
                    "tracegen", {"traces": 20, "seed": 2}
                )
                await client.shutdown()
            await asyncio.wait_for(
                server.serve_until_shutdown(), timeout=30
            )
            # After the drain no connection is accepted.
            with pytest.raises(ServiceError):
                async with ServiceClient(host, port) as late:
                    await late.ping()
            return job, server.scheduler

        job, scheduler = asyncio.run(run())
        assert job["status"] == "done"
        assert scheduler.accepting is False
        assert scheduler.metrics.counter("jobs_completed").value == 1

    @pytest.mark.timeout(120)
    def test_sigterm_with_a_fleet_worker_connected_drains_quietly(self):
        # A real ``repro serve`` with one ``repro worker`` registered:
        # SIGTERM must end in exit 0 and the metrics summary, with no
        # traceback from the worker connection's pending read.
        import signal
        import subprocess
        import sys
        import time

        from repro.experiments.drills import _subprocess_env
        from repro.service.client import fetch_metrics

        env = _subprocess_env()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        worker = None
        try:
            port = int(server.stdout.readline().rsplit(":", 1)[1])
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "127.0.0.1:%d" % port],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            deadline = time.monotonic() + 60
            while not fetch_metrics("127.0.0.1", port)["fleet"]["workers"]:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.1)
            server.send_signal(signal.SIGTERM)
            _out, err = server.communicate(timeout=60)
            assert server.returncode == 0
            assert "gauge fleet_workers" in err
            assert "Traceback" not in err
            assert "Exception in callback" not in err
            assert worker.wait(timeout=60) == 0
        finally:
            for proc in (server, worker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
