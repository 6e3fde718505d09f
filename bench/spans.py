"""Outside-in span recorder for the benchmark's traced runs.

Wrappers are installed only in the benchmark's own processes — the
campaign child (:mod:`campaign`) and the traced ``repro serve`` /
``repro worker`` launcher (:mod:`traced`).  Class methods are patched
on their class; module functions are patched in the namespace of the
module that calls them, so the program's files are never modified and
an untraced run executes none of this code.

A span is ``(id, parent, name, thread, start, duration, self, top)``.
Its self time is its duration minus the time of the child spans open
inside it on the same thread.  A *top* span had no span open on its
thread when it started, so the top spans of every thread partition the
traced busy time, and that busy time equals the sum of all self times.
Work that runs inside a top span but outside every named layer is the
self time of the bounding spans in :data:`ROOTS`: it is reported as
``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Spans that only bound work (a campaign job, a pool task, a fleet
#: lease); their self time is the unattributed part of the ledger.
ROOTS = ("job", "task", "lease")

MAP_LAYER = "util.executors.map_ordered"

#: ``(layer, module, attribute)``: ``Class.method`` patches the class;
#: a bare function name patches that module's global, i.e. the name the
#: consumer resolves at call time.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("core.endpoint_sensor.sample_bits", "repro.core.endpoint_sensor",
     "BenignSensor.sample_bits"),
    ("preprocess.pipeline.apply", "repro.preprocess.pipeline",
     "ResolvedPreprocess.apply"),
    ("core.tracegen.apply_misalignment", "repro.core.tracegen",
     "PhysicalTraceGenerator.apply_misalignment"),
    ("core.tracegen.generate", "repro.core.tracegen",
     "PhysicalTraceGenerator.generate"),
    ("aes.batch.cycle_activity_and_ciphertexts", "repro.core.tracegen",
     "cycle_activity_and_ciphertexts"),
    ("pdn.model.integrate_batch", "repro.pdn.model",
     "PDNModel.integrate_batch"),
    ("attacks.cpa.update", "repro.attacks.cpa", "StreamingCPA.update"),
    ("attacks.cpa.merge", "repro.attacks.cpa", "StreamingCPA.merge"),
    ("attacks.cpa.correlations", "repro.attacks.cpa",
     "StreamingCPA.correlations"),
    ("attacks.models.single_bit_hypothesis", "repro.experiments.parallel",
     "single_bit_hypothesis"),
    ("attacks.models.single_bit_hypothesis", "repro.attacks.full_key",
     "single_bit_hypothesis"),
    ("attacks.full_key.recover_last_round_key",
     "repro.experiments.parallel", "recover_last_round_key"),
    ("attacks.full_key.recover_last_round_key", "repro.service.runners",
     "recover_last_round_key"),
    ("core.attack.campaign_inputs", "repro.core.attack",
     "AttackCampaign.campaign_inputs"),
    ("aes.leakage.column_voltages", "repro.aes.leakage",
     "LeakageModel.column_voltages"),
    ("core.attack.reduced_leakage_block", "repro.core.attack",
     "AttackCampaign.reduced_leakage_block"),
    ("core.attack.column_leakage_block", "repro.core.attack",
     "AttackCampaign.column_leakage_block"),
    # Construction publishes the arrays and registers the worker
    # context; close unregisters and unlinks.  __enter__ is a no-op.
    ("util.shm.ArrayFanout", "repro.util.shm", "ArrayFanout.__init__"),
    ("util.shm.ArrayFanout", "repro.util.shm", "ArrayFanout.close"),
    (MAP_LAYER, "repro.experiments.parallel", "map_ordered"),
    (MAP_LAYER, "repro.attacks.full_key", "map_ordered"),
    (MAP_LAYER, "repro.service.runners", "map_ordered"),
    ("service.journal.append", "repro.service.journal",
     "JobJournal.append"),
    ("service.cache.get", "repro.service.cache", "ResultCache.get"),
    ("service.cache.put", "repro.service.cache", "ResultCache.put"),
    ("service.codec.pack_message", "repro.service.codec", "pack_message"),
    ("service.codec.unpack_message", "repro.service.codec",
     "unpack_message"),
    ("service.runners.run_tracegen_batch", "repro.service.scheduler",
     "run_tracegen_batch"),
    ("service.runners.run_attack_shard", "repro.service.worker",
     "run_attack_shard"),
    ("service.runners.merge_attack_partials", "repro.service.fleet",
     "merge_attack_partials"),
    ("lease", "repro.service.worker", "FleetWorker._run_lease"),
)

#: Every named layer, in ledger order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        name for name, _module, _attr in PATCHES if name not in ROOTS
    )
)

_ANALYTIC = ("attack-analytic",)
_PHYSICAL = ("attack-physical-jitter",)
_SAMPLED = ("attack-analytic", "fullkey")
_CPA = ("fullkey", "attack-analytic")  # fullkey more than attack-analytic
_SERVICE = ("service-mixed",)

#: Which end-to-end metric each per-layer metric should move, and on
#: which workloads — written down before measuring, so a later change
#: can be checked against it.  Keys are layers (for their ``.self_s``
#: and ``.calls``) and counter names.  ``busy_s`` and
#: ``trace.overhead_share`` describe the trace itself and move nothing.
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "core.endpoint_sensor.sample_bits": ("traces_per_s", _SAMPLED),
    "preprocess.pipeline.apply": ("traces_per_s", _PHYSICAL),
    "core.tracegen.apply_misalignment": ("traces_per_s", _PHYSICAL),
    "core.tracegen.generate": ("traces_per_s", _PHYSICAL),
    "aes.batch.cycle_activity_and_ciphertexts": ("traces_per_s", _PHYSICAL),
    "pdn.model.integrate_batch": ("traces_per_s", _PHYSICAL),
    "attacks.cpa.update": ("traces_per_s", _CPA),
    "attacks.cpa.merge": ("traces_per_s", _CPA),
    "attacks.cpa.correlations": ("traces_per_s", _CPA),
    "attacks.models.single_bit_hypothesis": ("traces_per_s", _CPA),
    "attacks.full_key.recover_last_round_key": ("traces_per_s", _CPA),
    "core.attack.campaign_inputs": ("traces_per_s", _SAMPLED),
    "aes.leakage.column_voltages": ("traces_per_s", _SAMPLED),
    "core.attack.reduced_leakage_block": ("traces_per_s", _SAMPLED),
    "core.attack.column_leakage_block": ("traces_per_s", _SAMPLED),
    "util.shm.ArrayFanout": ("traces_per_s", _ANALYTIC),
    MAP_LAYER: ("traces_per_s", _ANALYTIC),
    "driver.wait_s": ("traces_per_s", _ANALYTIC),
    "unattributed_s": ("traces_per_s", _ANALYTIC),
    "service.journal.append": ("latency_p50_s", _SERVICE),
    "service.cache.get": ("jobs_per_s", _SERVICE),
    "service.cache.put": ("jobs_per_s", _SERVICE),
    "cache.hit_ratio": ("jobs_per_s", _SERVICE),
    "scheduler.coalesce_ratio": ("latency_p50_s", _SERVICE),
    "scheduler.queue_wait_s.mean": ("latency_p50_s", _SERVICE),
    "service.codec.pack_message": ("latency_p50_s", _SERVICE),
    "service.codec.unpack_message": ("latency_p50_s", _SERVICE),
    "service.runners.run_tracegen_batch": ("latency_p90_s", _SERVICE),
    "service.runners.run_attack_shard": ("latency_p90_s", _SERVICE),
    "service.runners.merge_attack_partials": ("latency_p90_s", _SERVICE),
    "service.fleet.leases_issued": ("latency_p90_s", _SERVICE),
    "service.server.cpu_s": ("cpu_ms_per_job", _SERVICE),
    "service.worker.cpu_s": ("cpu_ms_per_job", _SERVICE),
}
BOOKKEEPING = ("busy_s", "trace.overhead_share")

Span = Tuple[int, Optional[int], str, int, float, float, float, bool]


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List[Span]] = []
        self._ids = itertools.count(1)

    def _thread(self) -> Tuple[List[List[float]], List[Span]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._buffers.append(local.spans)
        return local.stack, local.spans

    def current(self) -> Optional[int]:
        """Id of the innermost span open on this thread."""
        stack, _spans = self._thread()
        return int(stack[-1][0]) if stack else None

    def call(
        self,
        name: str,
        parent: Optional[int],
        fn: Callable,
        *args: object,
        **kwargs: object,
    ) -> object:
        """``fn(*args, **kwargs)`` inside one span."""
        stack, spans = self._thread()
        span_id = next(self._ids)
        top = not stack
        if parent is None and stack:
            parent = int(stack[-1][0])
        frame = [span_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            spans.append(
                (span_id, parent, name, threading.get_ident(), start,
                 duration, duration - frame[1], top)
            )

    def spans(self) -> List[Span]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans(), handle)


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, None, fn, *args, **kwargs)

    return wrapper


def _wrap_map(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``map_ordered`` as a span whose tasks are spans of their own."""

    @functools.wraps(fn)
    def wrapper(task_fn, tasks, *args, **kwargs):
        def body():
            parent = recorder.current()

            def task(item):
                return recorder.call("task", parent, task_fn, item)

            return fn(task, tasks, *args, **kwargs)

        return recorder.call(name, None, body)

    return wrapper


def install(recorder: Recorder) -> None:
    """Patch every entry of :data:`PATCHES` to record into ``recorder``."""
    for name, module, attribute in PATCHES:
        owner = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        wrap = _wrap_map if name == MAP_LAYER else _wrap
        setattr(owner, leaf, wrap(recorder, name, getattr(owner, leaf)))


def load(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]  # type: ignore[misc]


def ledger(span_lists: Sequence[Sequence[Span]], jobs: int) -> Dict[str, float]:
    """Per-job layer self times and call counts, plus the residual.

    ``map_ordered``'s self time is the driver waiting on its pool and is
    reported as ``driver.wait_s``.  By construction the layer self
    times, ``driver.wait_s`` and ``unattributed_s`` add up to
    ``busy_s``; the benchmark's self-test checks that they do.
    """
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    busy = 0.0
    for records in span_lists:
        for _id, _parent, name, _thread, _start, duration, self_s, top in records:
            own[name] += self_s
            calls[name] += 1
            if top:
                busy += duration
    per_job = 1.0 / max(1, jobs)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == MAP_LAYER:
            metrics["driver.wait_s"] = own[layer] * per_job
        else:
            metrics[layer + ".self_s"] = own[layer] * per_job
        metrics[layer + ".calls"] = calls[layer] * per_job
    metrics["unattributed_s"] = sum(own[name] for name in ROOTS) * per_job
    metrics["busy_s"] = busy * per_job
    return metrics
