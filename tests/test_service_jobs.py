"""Tests for the service job model: specs, normalization, queues."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.jobs import (
    JOB_KINDS,
    JobError,
    JobQueue,
    JobSpec,
    JobState,
    QueueFullError,
    normalize_params,
)


#: Values a client might send for any parameter: every JSON type, the
#: numbers that once slipped through, and strings each field accepts.
_PARAM_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2.5, 1e308, 4000.0, 0.0, -1.0, 2.0**53 + 2]),
    st.text(max_size=10),
    st.sampled_from([
        "alu", "c6288", "hamming_weight", "single_bit", "thread",
        "process", "auto", "numpy", "native", "aes=native",
        "uniform:2", "gaussian:1.5,drift=0.002", "uniform:0",
        "align=correlation:4;poi=sost:3", "resample=3/2",
        "000102030405060708090a0b0c0d0e0f",
    ]),
)


class TestNormalizeParams:
    def test_defaults_filled_for_every_kind(self):
        for kind in JOB_KINDS:
            params = normalize_params(kind)
            assert "seed" in params and "traces" in params

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            normalize_params("make-coffee")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(JobError, match="bogus"):
            normalize_params("tracegen", {"bogus": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(JobError, match="traces"):
            normalize_params("tracegen", {"traces": "many"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(JobError, match="seed"):
            normalize_params("tracegen", {"seed": True})

    def test_domain_checks(self):
        with pytest.raises(JobError, match="circuit"):
            normalize_params("attack", {"circuit": "cpu"})
        with pytest.raises(JobError, match="reduction"):
            normalize_params("attack", {"reduction": "cubic"})
        with pytest.raises(JobError, match="executor"):
            normalize_params("attack", {"executor": "fiber"})
        with pytest.raises(JobError, match="workers"):
            normalize_params("attack", {"workers": 0})
        with pytest.raises(JobError, match="key_hex"):
            normalize_params("tracegen", {"key_hex": "zz"})

    @pytest.mark.parametrize("kind", ["attack", "fullkey", "report"])
    def test_process_executor_rejected_as_removed(self, kind):
        with pytest.raises(JobError, match="process backend was removed"):
            normalize_params(kind, {"executor": "process"})

    @pytest.mark.parametrize("value", [None, "thread"])
    def test_thread_executor_still_normalizes(self, value):
        params = normalize_params("attack", {"executor": value})
        assert params["executor"] == value

    def test_int_promoted_to_float(self):
        params = normalize_params("attack", {"task_timeout": 30})
        assert params["task_timeout"] == 30.0
        assert isinstance(params["task_timeout"], float)

    @pytest.mark.parametrize("params", [
        {"task_timeout": float("nan")},
        {"task_timeout": float("inf")},
        {"traces": float("nan")},
        {"traces": float("inf")},
        {"traces": 1e308},
        {"workers": 2.5},
        {"traces": 4000.5},
        {"traces": None},
    ])
    def test_non_finite_and_fractional_numbers_rejected(self, params):
        # These once passed admission (NaN and inf deadlines, 1e308
        # traces), truncated silently (workers 2.5 -> 2) or escaped as
        # a bare ValueError (traces NaN).
        with pytest.raises(JobError, match=next(iter(params))):
            normalize_params("attack", params)

    def test_whole_floats_become_ints(self):
        params = normalize_params("attack", {"traces": 4000.0, "workers": 2.0})
        assert params["traces"] == 4000 and type(params["traces"]) is int
        assert params["workers"] == 2 and type(params["workers"]) is int

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(kind=st.sampled_from(JOB_KINDS), data=st.data())
    def test_any_params_normalize_or_raise_job_error(self, kind, data):
        names = st.sampled_from(sorted(normalize_params(kind)) + ["bogus"])
        params = data.draw(st.dictionaries(names, _PARAM_VALUES, max_size=6))
        try:
            normalized = normalize_params(kind, params)
        except JobError:
            return
        assert normalize_params(kind, normalized) == normalized

    def test_equal_requests_normalize_identically(self):
        a = normalize_params("attack", {"traces": 1000})
        b = normalize_params("attack", {"traces": 1000, "seed": 1})
        assert a == b
        assert list(a) == list(b), "stable field order"

    def test_unknown_parameter_error_names_the_valid_keys(self):
        """A typo'd ``--param`` must come back as one line that lists
        every key the job kind accepts, so the user can self-correct
        without reading the schema source."""
        with pytest.raises(JobError) as excinfo:
            normalize_params("attack", {"jiter": "uniform:2"})
        message = str(excinfo.value)
        assert "\n" not in message
        assert "jiter" in message
        assert "valid:" in message
        for key in ("jitter", "preprocess", "traces", "seed", "circuit"):
            assert key in message

    def test_unknown_parameter_message_lists_all_keys_per_kind(self):
        for kind in JOB_KINDS:
            with pytest.raises(JobError) as excinfo:
                normalize_params(kind, {"bogus": 1})
            tail = str(excinfo.value).split("valid: ")[1].rstrip(")")
            assert tail.split(", ") == sorted(normalize_params(kind))


class TestAcquisitionParams:
    def test_specs_canonicalized_not_echoed(self):
        params = normalize_params(
            "attack",
            {"jitter": "uniform:2,drift=0.000", "preprocess": "align=sad"},
        )
        assert params["jitter"] == "uniform:2"
        assert params["preprocess"] == "align=sad:8"

    def test_disabled_specs_normalize_to_none(self):
        params = normalize_params(
            "attack", {"jitter": "none", "preprocess": "none"}
        )
        assert params["jitter"] is None
        assert params["preprocess"] is None
        assert params == normalize_params("attack")

    def test_malformed_specs_rejected_as_job_errors(self):
        with pytest.raises(JobError, match="jitter"):
            normalize_params("attack", {"jitter": "sideways:2"})
        with pytest.raises(JobError, match="window"):
            normalize_params("attack", {"preprocess": "window=9"})

    def test_single_bit_with_acquisition_rejected_on_every_route(self):
        for extra in (
            {"jitter": "uniform:2"},
            {"preprocess": "align=correlation:4"},
        ):
            with pytest.raises(JobError, match="reduction=hamming_weight"):
                normalize_params(
                    "attack", dict(extra, reduction="single_bit")
                )
        # A param dict that skipped admission: the direct route, the
        # lease route and a fleet job's campaign reject it alike.
        from repro.service.runners import run_attack, run_attack_shard
        from tests.test_service_fleet import LeaseDispatch, lease_task

        params = dict(
            normalize_params(
                "attack", {"traces": 4000, "jitter": "uniform:2"}
            ),
            reduction="single_bit",
        )
        task = lease_task("attack", params, 1)
        routes = (
            lambda: run_attack(params),
            lambda: run_attack_shard(
                params, 0, 4000, list(task["segment_ends"])
            ),
            lambda: run_attack(
                params, dispatch=LeaseDispatch("attack", params, 1)
            ),
        )
        for route in routes:
            with pytest.raises(JobError, match="reduction=hamming_weight"):
                route()

    def test_tracegen_takes_jitter_but_not_preprocess(self):
        params = normalize_params("tracegen", {"jitter": "uniform:1"})
        assert params["jitter"] == "uniform:1"
        with pytest.raises(JobError, match="preprocess"):
            normalize_params("tracegen", {"preprocess": "align=sad"})


class TestCacheKey:
    def test_execution_knobs_do_not_change_the_key(self):
        plain = JobSpec.create("attack", {"traces": 1000})
        tuned = JobSpec.create(
            "attack",
            {
                "traces": 1000,
                "workers": 8,
                "executor": "thread",
                "retries": 5,
                "task_timeout": 3.0,
            },
            priority=1,
        )
        assert plain.cache_key == tuned.cache_key

    def test_content_params_change_the_key(self):
        base = JobSpec.create("attack", {"traces": 1000})
        assert (
            base.cache_key
            != JobSpec.create("attack", {"traces": 1001}).cache_key
        )
        assert (
            base.cache_key
            != JobSpec.create("attack", {"seed": 2, "traces": 1000}).cache_key
        )
        assert (
            base.cache_key
            != JobSpec.create(
                "attack", {"circuit": "c6288", "traces": 1000}
            ).cache_key
        )

    def test_kinds_never_collide(self):
        attack = JobSpec.create("attack", {"traces": 1000, "seed": 1})
        fullkey = JobSpec.create("fullkey", {"traces": 1000, "seed": 1})
        assert attack.cache_key != fullkey.cache_key

    def test_priority_not_part_of_identity(self):
        a = JobSpec.create("tracegen", priority=1)
        b = JobSpec.create("tracegen", priority=99)
        assert a.cache_key == b.cache_key


class TestJobQueue:
    def test_priority_order_with_fifo_ties(self):
        async def run():
            queue = JobQueue(maxsize=8)
            queue.put(5, "mid")
            queue.put(1, "first-urgent")
            queue.put(1, "second-urgent")
            queue.put(9, "low")
            return [await queue.get() for _ in range(4)]

        order = asyncio.run(run())
        assert order == ["first-urgent", "second-urgent", "mid", "low"]

    def test_backpressure_rejects_at_capacity(self):
        async def run():
            queue = JobQueue(maxsize=2)
            queue.put(1, "a")
            queue.put(1, "b")
            with pytest.raises(QueueFullError) as excinfo:
                queue.put(1, "c")
            assert excinfo.value.depth == 2
            assert excinfo.value.limit == 2
            assert "queue full" in str(excinfo.value)
            # Draining one slot readmits.
            await queue.get()
            queue.put(1, "c")
            return queue.depth

        assert asyncio.run(run()) == 2

    def test_zero_size_queue_rejected(self):
        with pytest.raises(ValueError):
            JobQueue(maxsize=0)


class TestJobState:
    def test_stream_yields_history_then_live_events(self):
        async def run():
            state = JobState("job-000001", JobSpec.create("tracegen"))
            state.add_event("queued")
            seen = []

            async def consume():
                async for event in state.stream():
                    seen.append(event["event"])

            task = asyncio.create_task(consume())
            await asyncio.sleep(0.01)
            state.add_event("started")
            await asyncio.sleep(0.01)
            state.status = "done"
            state.add_event("done")
            await asyncio.wait_for(task, timeout=2)
            return seen

        assert asyncio.run(run()) == ["queued", "started", "done"]

    def test_as_dict_hides_result_by_default(self):
        # The record owns no payload: its view has no result, and a
        # handed-off payload reaches only the futures waiting for it.
        async def run():
            state = JobState("job-000002", JobSpec.create("tracegen"))
            future = asyncio.get_running_loop().create_future()
            state.waiters.append(future)
            state.hand_off({"type": "tracegen"})
            return state, future.result()

        state, handed = asyncio.run(run())
        assert "result" not in state.as_dict()
        assert handed == {"type": "tracegen"}
        assert state.waiters == []
        assert not hasattr(state, "result")


class TestKernelsParameter:
    def test_accepted_on_every_campaign_kind(self):
        for kind in JOB_KINDS:
            params = normalize_params(kind, {"kernels": "numpy"})
            assert params["kernels"] == "numpy"

    def test_defaults_to_none(self):
        assert normalize_params("attack")["kernels"] is None

    def test_unknown_mode_rejected(self):
        # scipy was a backend once; it is now an unknown mode too.
        for mode in ("turbo", "scipy"):
            with pytest.raises(JobError, match=mode):
                normalize_params("attack", {"kernels": mode})

    def test_unknown_kernel_rejected(self):
        # One mode serves every kernel; a per-kernel map is not a mode.
        with pytest.raises(JobError, match="rsa"):
            normalize_params("tracegen", {"kernels": "rsa=native"})
        # resample left the kernels: the same error, at admission.
        with pytest.raises(JobError, match="unknown kernels mode 'resample"):
            normalize_params("attack", {"kernels": "resample=native"})

    def test_native_unavailable_names_dependency(self, monkeypatch):
        from repro.util import kernels_native

        # A host without a C compiler.
        monkeypatch.setattr(kernels_native, "_find_compiler", lambda: None)
        kernels_native._reset_for_tests()
        try:
            with pytest.raises(JobError, match="native.*compiler"):
                normalize_params("attack", {"kernels": "native"})
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_admission_enters_no_selection(self):
        from repro.util import kernels

        before = kernels.current_mode()
        normalize_params("attack", {"kernels": "numpy"})
        assert kernels.current_mode() == before

    def test_execution_knob_stays_out_of_cache_key(self):
        # Kernel backends are bit-identical by contract, so two specs
        # differing only in `kernels` must share one cached result.
        base = JobSpec.create("attack", {"traces": 1000})
        pinned = JobSpec.create(
            "attack", {"traces": 1000, "kernels": "numpy"}
        )
        assert "kernels" not in base.content_params()
        assert base.cache_key == pinned.cache_key
