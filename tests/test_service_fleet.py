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
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.attacks.cpa import default_checkpoints
from repro.core.attack import STREAM_BLOCK
from repro.experiments.parallel import (
    SegmentPartials,
    plan_shards,
    segment_ends,
)
from repro.service.fleet import FleetConfig, FleetCoordinator
from repro.service.jobs import JobSpec
from repro.service.runners import (
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


async def _start_workers(
    host, port, scheduler, count, fault_plans=None, slots=1
):
    workers, tasks = [], []
    for index in range(count):
        plan = (fault_plans or {}).get(index)
        worker = FleetWorker(
            host,
            port,
            name="tw%d" % index,
            slots=slots,
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


class LeaseDispatch:
    """The fleet's campaign path without sockets: a dispatcher that runs
    every shard task of ``width`` through the lease route
    (``run_attack_shard`` / ``run_fullkey_shard``) on ``slots``
    threads and validates each result, as the coordinator does."""

    def __init__(self, kind, params, width, slots=1):
        self.run_shard = {
            "attack": run_attack_shard, "fullkey": run_fullkey_shard,
        }[kind]
        self.params = params
        self.width = width
        self.slots = slots
        self.tasks = []

    def lease(self, task):
        shard = task["shard"]
        return self.run_shard(
            self.params, shard.start, shard.end, task["segment_ends"]
        )

    def __call__(self, tasks, health, validate):
        self.tasks = tasks
        with ThreadPoolExecutor(self.slots) as pool:
            for task, result in zip(tasks, pool.map(self.lease, tasks)):
                validate(task, result)
                yield result


def lease_task(kind, params, num_shards, index=0):
    """Shard ``index`` of a ``num_shards`` plan, as the campaign loop
    hands it to a dispatcher."""
    traces = int(params["traces"])
    shard = plan_shards(traces, num_shards)[index]
    return {
        "shard": shard,
        "segment_ends": segment_ends(shard, default_checkpoints(traces)),
        "streams": 16 if kind == "fullkey" else None,
    }


class TestShardPlanAndMerge:
    """A fleet job's campaign: shards planned by the campaign loop,
    run as leases, merged by the loop."""

    def test_plan_is_chunk_aligned_and_covers_the_range(self):
        spec = _attack_spec()
        dispatch = LeaseDispatch("attack", spec.params, 4)
        run_attack(spec.params, dispatch=dispatch)
        shards = [task["shard"] for task in dispatch.tasks]
        assert len(shards) == 4
        assert shards[0].start == 0
        assert shards[-1].end == ATTACK_TRACES
        for shard, nxt in zip(shards, shards[1:]):
            assert shard.end == nxt.start
            assert shard.start % STREAM_BLOCK == 0
        points = {int(p) for p in default_checkpoints(ATTACK_TRACES)}
        covered = sorted(
            boundary
            for task in dispatch.tasks
            for boundary in task["segment_ends"]
            if boundary in points
        )
        assert covered == sorted(points)

    def test_merge_is_invariant_to_shard_count(self):
        spec = _attack_spec()
        baseline = _baseline(spec)
        for num_shards in (1, 2):
            merged = run_attack(
                spec.params,
                dispatch=LeaseDispatch("attack", spec.params, num_shards),
            )
            _assert_cpa_equal(merged, baseline)


class TestRouteIdentity:
    """The fleet route (plan -> lease -> merge) equals the direct run.

    One in-process worker serves the job.  With two slots the plan has
    four shards and the worker runs two leases at once, each on its
    own thread, both asking for the cold job's shard source.
    """

    SOURCES = {
        "analytic": {},
        "physical": {
            "jitter": "uniform:2",
            "preprocess": "align=correlation:4",
        },
    }

    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("source", ["analytic", "physical"])
    @pytest.mark.parametrize("kind", ["attack", "fullkey"])
    def test_fleet_route(self, kind, source, slots):
        from repro.service.codec import from_payload

        spec = JobSpec.create(
            kind,
            dict(self.SOURCES[source], traces=110_000, seed=5, fleet=True),
        )
        runner = run_attack if kind == "attack" else run_fullkey
        direct = runner(dict(spec.params, fleet=False))

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 1, slots=slots
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                (dispatch,) = [
                    event
                    for event in state.events
                    if event["event"] == "fleet_dispatch"
                ]
                assert dispatch["shards"] == 2 * slots
                return from_payload(scheduler.result(state))
            finally:
                await _teardown(workers, tasks, server)

        merged = asyncio.run(run())
        if kind == "attack":
            pairs = [(merged, direct)]
        else:
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


class TestOneLeaseOneThread:
    def test_nan_fault_fires_on_a_worker_serving_two_leases(self):
        # A lease runs its shard on the lease's own thread, so the
        # fault scope the worker installs reaches the recipe: every
        # first attempt is poisoned, the CPA's finite-ness guard
        # raises, and the reassigned attempts deliver the undisturbed
        # result.
        spec = _attack_spec()
        baseline = _baseline(spec)
        plans = {0: FaultPlan([FaultSpec("nan", attempts=1)], seed=3)}

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 1, fault_plans=plans, slots=2
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                errors = scheduler.metrics.counter("fleet_shard_errors")
                assert errors.value == 4  # two slots -> four shards
                from repro.service.codec import from_payload

                return from_payload(scheduler.result(state))
            finally:
                await _teardown(workers, tasks, server)

        _assert_cpa_equal(asyncio.run(run()), baseline)

    def test_leases_of_a_cold_job_build_its_source_once(self):
        # More lease threads than cores, over two cold keys, with a
        # short switch interval: each key's build runs exactly once and
        # every lease of a key gets the same object.
        import sys
        import threading
        import time
        from collections import Counter

        from repro.util.memo import BuildOnce

        cache = BuildOnce()
        calls = Counter()
        counted = threading.Lock()

        def build(key):
            with counted:
                calls[key] += 1
            time.sleep(0.05)  # every lease asks while the key is cold
            return object()

        gate = threading.Barrier(8)
        results = {}

        def lease(index):
            key = ("job", index % 2)
            gate.wait(timeout=10)
            results[index] = cache.get(key, lambda: build(key))

        threads = [
            threading.Thread(target=lease, args=(index,))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == {("job", 0): 1, ("job", 1): 1}
        for index in range(8):
            assert results[index] is results[index % 2]


class TestServerSide:
    def test_fresh_seed_dispatch_builds_no_sensor_on_the_server(
        self, monkeypatch
    ):
        # The server's campaign loop only merges: it reads the key and
        # the hypothesis table.  Every sensor a fresh-seed fleet job
        # builds is built inside a lease.
        import threading

        from repro.experiments.setup import ExperimentSetup
        from repro.service import runners

        leasing = threading.local()
        real_shard = runners._run_shard
        real_sensor = ExperimentSetup.sensor
        built = []

        def lease(*args):
            leasing.active = True
            try:
                return real_shard(*args)
            finally:
                leasing.active = False

        def sensor(self, circuit):
            built.append(getattr(leasing, "active", False))
            return real_sensor(self, circuit)

        monkeypatch.setattr(runners, "_run_shard", lease)
        monkeypatch.setattr(ExperimentSetup, "sensor", sensor)
        spec = JobSpec.create(
            "attack", {"traces": 2 * STREAM_BLOCK, "seed": 7211}
        )

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(host, port, scheduler, 1)
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                assert any(
                    e["event"] == "fleet_dispatch" for e in state.events
                )
            finally:
                await _teardown(workers, tasks, server)

        asyncio.run(run())
        assert built and all(built)


class TestBoundedMemos:
    """Per-configuration memos on the lease path stay bounded."""

    def test_fresh_seed_leases_keep_at_most_four_setups(self):
        from repro.core import calibration_cache
        from repro.service import runners
        from repro.service.jobs import normalize_params
        from repro.util.memo import MEMO_ENTRIES

        for seed in range(7001, 7007):
            params = normalize_params(
                "attack", {"traces": 2 * STREAM_BLOCK, "seed": seed}
            )
            task = lease_task("attack", params, 1)
            shard = task["shard"]
            run_attack_shard(
                params, shard.start, shard.end, task["segment_ends"]
            )
        assert len(runners._SETUPS) <= MEMO_ENTRIES == 4
        assert len(runners._SETUPS._key_locks) <= 4
        assert len(runners._INPUTS) <= 4
        assert len(calibration_cache._MEMORY) <= 4

    def test_a_trace_count_sweep_builds_one_setup(self, monkeypatch):
        from repro.service import runners
        from repro.service.jobs import normalize_params

        built = []
        real = runners.ExperimentSetup

        def counted(config):
            built.append(config)
            return real(config)

        monkeypatch.setattr(runners, "ExperimentSetup", counted)
        runners._SETUPS.clear()
        setups = {
            id(
                runners._Job(
                    "attack",
                    normalize_params(
                        "attack", {"traces": traces, "seed": 5}
                    ),
                ).setup
            )
            for traces in (40_000, 80_000, 120_000)
        }
        assert len(built) == 1 and len(setups) == 1

    def test_build_once_drops_the_locks_of_evicted_and_failed_keys(self):
        from repro.util.memo import MEMO_ENTRIES, BuildOnce

        cache = BuildOnce()
        keys = [(key,) for key in range(MEMO_ENTRIES + 3)]
        for key in keys:
            assert cache.get(key, lambda: key) == key
        assert list(cache._values) == keys[3:]
        assert sorted(cache._key_locks) == keys[3:]

        def fail():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get(("bad",), fail)
        assert sorted(cache._key_locks) == keys[3:]
        cache.get(keys[3], fail)  # a hit refreshes, never rebuilds
        assert list(cache._values) == keys[4:] + keys[3:4]
        cache.clear()
        assert len(cache) == 0 and not cache._key_locks

    def test_warm_keys_keep_the_newest_sixty_four(self, monkeypatch):
        from collections import OrderedDict

        from repro.service import runners

        monkeypatch.setattr(runners, "_WARM_KEYS", OrderedDict())
        for index in range(100):
            runners.note_warm_key("key-%03d" % index)
        assert runners.warm_cache_keys() == [
            "key-%03d" % index for index in range(36, 100)
        ]
        assert len(runners._WARM_KEYS) == runners.WARM_KEYS_LIMIT == 64


class TestLeaseValidation:
    """The coordinator checks each lease result against the job's
    statistic before storing it."""

    def test_attack_partials_must_cover_the_segment_ends(self):
        from repro.util.executors import TruncatedResultError

        spec = _attack_spec()
        task = lease_task("attack", spec.params, 2)
        (start, end), ends = (
            (task["shard"].start, task["shard"].end), task["segment_ends"]
        )
        partials = [
            [boundary, state]
            for boundary, state in run_attack_shard(
                spec.params, start, end, list(ends)
            )
        ]
        SegmentPartials.validate(task, partials)
        for bad in (partials[:-1], partials[1:], None, "junk"):
            with pytest.raises(TruncatedResultError):
                SegmentPartials.validate(task, bad)

    def test_fullkey_states_must_be_int64_sixteen_stream_states(self):
        from repro.util.executors import TruncatedResultError

        spec = JobSpec.create("fullkey", {"traces": 2_000, "seed": 1})
        task = lease_task("fullkey", spec.params, 1)
        (start, end), ends = (
            (task["shard"].start, task["shard"].end), task["segment_ends"]
        )
        partials = run_fullkey_shard(spec.params, start, end, ends)
        SegmentPartials.validate(task, partials)
        for defect in DEFECTS:
            bad = [
                [boundary, DEFECTS[defect](state) if index == 3 else state]
                for index, (boundary, state) in enumerate(partials)
            ]
            with pytest.raises(TruncatedResultError, match="segment end"):
                SegmentPartials.validate(task, bad)
        for bad in (partials[:-1], None, [[end, "junk"]]):
            with pytest.raises(TruncatedResultError):
                SegmentPartials.validate(task, bad)

    @pytest.mark.parametrize("defect", sorted(["float64", "rows", "count"]))
    def test_defective_lease_state_is_rejected_and_reassigned(
        self, monkeypatch, defect
    ):
        # The first lease a worker returns carries one defective
        # segment state; the coordinator must reject it before it
        # merges, and the reassigned lease ends the job bit-identical.
        import threading

        from repro.service import worker as worker_module

        spec = JobSpec.create(
            "fullkey", {"traces": 20_000, "seed": 1, "fleet": True}
        )
        baseline = run_fullkey(dict(spec.params, fleet=False))
        real = worker_module.run_fullkey_shard
        lock = threading.Lock()
        first = [True]

        def corrupting(*args):
            partials = real(*args)
            with lock:
                corrupt, first[0] = first[0], False
            if corrupt:
                boundary, state = partials[0]
                partials[0] = (boundary, DEFECTS[defect](state))
            return partials

        monkeypatch.setattr(worker_module, "run_fullkey_shard", corrupting)

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(host, port, scheduler, 2)
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                metrics = scheduler.metrics
                assert metrics.counter("fleet_invalid_results").value == 1
                from repro.service.codec import from_payload

                return from_payload(scheduler.result(state))
            finally:
                await _teardown(workers, tasks, server)

        result = asyncio.run(run())
        for got, want in zip(result.byte_results, baseline.byte_results):
            assert got.correlations.tobytes() == want.correlations.tobytes()


def _float64_state(state):
    return {key: np.asarray(value, np.float64) for key, value in state.items()}


def _missing_row_state(state):
    return dict(
        state,
        counts=state["counts"][:-1],
        sums=state["sums"][:-1],
        sum_x=state["sum_x"][:-1],
        sum_xx=state["sum_xx"][:-1],
    )


def _miscounted_state(state):
    counts = state["counts"].copy()
    counts[:, 0] += 1
    return dict(state, counts=counts)


#: The lease-state defects the coordinator must reject: a float64
#: state, a state with one stream row missing, and a state whose
#: per-value counts do not sum to its segment length.
DEFECTS = {
    "float64": _float64_state,
    "rows": _missing_row_state,
    "count": _miscounted_state,
}


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

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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
                # The job's health holds one record per lease attempt:
                # each failed first attempt, then its reassignment.
                attempts = state.health["attempts"]
                assert len(attempts) == (
                    metrics.counter("fleet_leases_issued").value
                )
                failed = [a for a in attempts if a["status"] != "ok"]
                assert len(failed) == (
                    metrics.counter("fleet_shard_errors").value
                )
                ok = {
                    (a["site"], a["attempt"])
                    for a in attempts
                    if a["status"] == "ok"
                }
                assert len(ok) == 4  # every shard of the plan, once
                for attempt in failed:
                    assert (attempt["site"], attempt["attempt"] + 1) in ok
                assert state.health["retries"] == len(failed)
                from repro.service.codec import from_payload

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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

                return from_payload(scheduler.result(state))
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

    @staticmethod
    def _fleet_job(coordinator, spec, num_shards):
        """A fleet job opened for ``num_shards`` leases, as the campaign
        loop opens it (on a running event loop)."""
        from repro.service.fleet import _FleetJob

        job = _FleetJob(coordinator, spec, "job-t", None)
        job.tasks = [
            lease_task("attack", spec.params, num_shards, index)
            for index in range(num_shards)
        ]
        job.pending.extend(range(num_shards))
        return job

    def _job(self, coordinator, spec):
        async def build():
            return self._fleet_job(coordinator, spec, 2)

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
        coordinator = FleetCoordinator()
        spec = _attack_spec()
        failed = self._worker(coordinator, "a", slots=1)
        busy = self._worker(coordinator, "b", slots=1)
        busy.leases["held"] = None  # b's only slot is taken
        sent = []

        async def record(message):
            sent.append(message["shard_index"])

        failed.send = record

        async def run():
            job = self._fleet_job(coordinator, spec, 4)
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
