"""Shared job execution paths for the CLI and the campaign service.

Bit-identity between a service-run campaign and a direct CLI run is an
acceptance criterion, and the cheapest way to *guarantee* it is to make
both call the same function: the CLI commands (:mod:`repro.cli`) and
the scheduler's thread workers (:mod:`repro.service.scheduler`) both
execute through the runners here, which in turn route through the
fault-tolerant campaign loop (:func:`run_campaign`) and the figure
sweep (:func:`run_all_figures`) — so service jobs inherit retries,
task deadlines, and checkpoint/resume for free.

Fleet execution is the same computation split differently.  One
resolver (:class:`_Job`) turns an ``attack`` or ``fullkey`` job's
params into its campaign's shard source: the direct run hands it to
:func:`run_campaign`, a lease (:func:`run_attack_shard` /
:func:`run_fullkey_shard`) runs it through
:func:`repro.experiments.parallel.run_lease`, and the coordinator
merges (:func:`merge_attack_partials` / :func:`merge_fullkey_partials`)
reduce with the campaign's statistic — one shard contract on every
route.

Trace-generation jobs additionally support *coalescing*:
:func:`run_tracegen_batch` runs one deterministic pass (batched AES →
current waveform → PDN droop) over the concatenated plaintexts of many
requests and then applies each request's own seeded ambient-noise
block to its slice.  Because every deterministic stage is per-row and
the noise block depends only on ``(seed, shape)``, each fanned-out
result is bit-identical to :func:`run_tracegen` on that request alone
— this is what lets the scheduler's batching window merge compatible
requests into a single batched-AES call without changing any output.

All runners are plain synchronous functions of validated parameter
dicts (see :func:`repro.service.jobs.normalize_params`), safe to run on
``asyncio.to_thread`` workers.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aes.aes128 import AES128
from repro.attacks.cpa import CPAResult, default_checkpoints
from repro.attacks.full_key import (
    FullKeyResult,
    column_of_key_byte,
    # Full-key merges reduce through SegmentPartials; the name stays
    # importable here for the bench ledger's patch table (bench/spans.py).
    recover_last_round_key,  # noqa: F401
)
from repro.attacks.models import DEFAULT_TARGET_BYTE
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    SegmentPartials,
    Shard,
    ShardSource,
    hypothesis_table,
    plan_shards,
    run_campaign,
    run_lease,
    segment_ends,
)
from repro.preprocess.pipeline import ResolvedPreprocess, resolve_preprocess
from repro.preprocess.spec import MisalignmentSpec, PreprocessSpec
from repro.experiments.runner import FigureRecord, run_all_figures
from repro.experiments.setup import ExperimentSetup
from repro.service.jobs import check_acquisition_reduction
from repro.util import kernels
from repro.util.executors import (
    CampaignHealth,
    RetryPolicy,
    # Leases fan out through repro.experiments.parallel; the name stays
    # importable here for the bench ledger's patch table (bench/spans.py).
    map_ordered,  # noqa: F401
)
from repro.util.rng import derive_seed

__all__ = [
    "FleetShardPlan",
    "cached_setup",
    "merge_attack_partials",
    "merge_fullkey_partials",
    "note_warm_key",
    "plan_fleet_job",
    "retry_policy",
    "run_attack",
    "run_attack_shard",
    "run_fullkey",
    "run_fullkey_shard",
    "run_report",
    "run_tracegen",
    "run_tracegen_batch",
    "tracegen_compat_key",
    "warm_cache_keys",
]

class _BuildOnce:
    """A keyed cache that builds each value once, even when several
    threads ask for the same cold key at the same time: a miss builds
    under that key's own lock, so other keys still build concurrently.
    ``max_entries`` bounds the cache (LRU).
    """

    def __init__(self, max_entries: Optional[int] = None):
        self.max_entries = max_entries
        self._values: "OrderedDict[Tuple[object, ...], object]" = (
            OrderedDict()
        )
        self._key_locks: Dict[Tuple[object, ...], threading.Lock] = {}
        self._lock = threading.Lock()

    def get(self, key: Tuple[object, ...], build: Callable[[], object]):
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                if key in self._values:
                    self._values.move_to_end(key)
                    return self._values[key]
            value = build()
            with self._lock:
                self._values[key] = value
                while len(self._values) > (self.max_entries or math.inf):
                    self._values.popitem(last=False)
        return value


#: Experiment setups are expensive (placement + gate-level calibration)
#: and immutable in normal use; the service reuses one per
#: configuration, exactly like the CLI process would within one run.
#: The scheduler executes runners on concurrent ``asyncio.to_thread``
#: workers, so two simultaneous jobs with a fresh configuration must
#: not each pay the full calibration.
_SETUPS = _BuildOnce()


def cached_setup(config: ExperimentConfig) -> ExperimentSetup:
    """One shared :class:`ExperimentSetup` per configuration."""
    return _SETUPS.get((config,), lambda: ExperimentSetup(config))


def retry_policy(
    retries: Optional[int], task_timeout: Optional[float]
) -> Optional[RetryPolicy]:
    """A RetryPolicy when either knob is set, else None (the map's
    default :class:`RetryPolicy`)."""
    if retries is None and task_timeout is None:
        return None
    kwargs: Dict[str, object] = {}
    if retries is not None:
        kwargs["max_attempts"] = retries
    if task_timeout is not None:
        kwargs["timeout"] = task_timeout
    return RetryPolicy(**kwargs)  # type: ignore[arg-type]


def _experiment_config(params: Dict[str, object]) -> ExperimentConfig:
    return ExperimentConfig(
        seed=int(params["seed"]),  # type: ignore[arg-type]
        num_traces=int(params["traces"]),  # type: ignore[arg-type]
        max_workers=params.get("workers"),  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# Acquisition realism (the physical campaign route)
# ----------------------------------------------------------------------
#
# Jobs carrying a ``jitter`` and/or ``preprocess`` parameter route onto
# the end-to-end physical pipeline (PhysicalTraceGenerator → benign
# sensor → CPA) instead of the analytical leakage model: misalignment
# is an *acquisition* effect, so it only exists where traces are
# acquired.  The campaign seed is derived once per (config seed,
# circuit) and the plan resolution is a pure function of the job's
# content parameters — the precondition for local, fleet-sharded and
# merged executions staying bit-identical.


def _acquisition_specs(
    params: Dict[str, object],
) -> Tuple[Optional[MisalignmentSpec], Optional[PreprocessSpec]]:
    """Parsed (jitter, preprocess) specs of a normalized job."""
    jitter = params.get("jitter")
    pre = params.get("preprocess")
    misalignment = (
        MisalignmentSpec.from_string(str(jitter)) if jitter else None
    )
    spec = PreprocessSpec.from_string(str(pre)) if pre else None
    return misalignment, spec


#: Physical generators and resolved preprocessing plans, shared across
#: jobs like ``_SETUPS``: the generator caches its batched key schedule,
#: and a resolved plan costs a reference + pilot generation pass.
_PHYSICAL_GENERATORS = _BuildOnce()
_RESOLVED_PLANS = _BuildOnce()


def _physical_generator(
    cipher: AES128, misalignment: Optional[MisalignmentSpec]
) -> PhysicalTraceGenerator:
    key = (
        cipher.last_round_key.hex(),
        "" if misalignment is None else misalignment.to_string(),
    )
    return _PHYSICAL_GENERATORS.get(
        key, lambda: PhysicalTraceGenerator(cipher, misalignment=misalignment)
    )


def _resolved_plan(
    spec: Optional[PreprocessSpec],
    generator: PhysicalTraceGenerator,
    seed: int,
    columns: Tuple[int, ...],
) -> Optional[ResolvedPreprocess]:
    if spec is None or not spec.enabled:
        return None
    key = (
        generator.cipher.last_round_key.hex(),
        ""
        if generator.misalignment is None
        else generator.misalignment.to_string(),
        spec.to_string(),
        int(seed),
        tuple(int(c) for c in columns),
    )
    return _RESOLVED_PLANS.get(
        key,
        lambda: resolve_preprocess(spec, generator, seed, columns=columns),
    )


def _physical_seed(config: ExperimentConfig, circuit: str) -> int:
    """The physical campaign's seed namespace for one job family."""
    return derive_seed(config.seed, "physical-campaign", circuit)


#: ``(kind, physical) ->`` the constructor of the job's shard source,
#: the one its public driver builds.
_ROUTES = {
    ("attack", False): ShardSource.reduced,
    ("attack", True): ShardSource.physical,
    ("fullkey", False): ShardSource.per_column,
    ("fullkey", True): ShardSource.physical_columns,
}

#: The CPA streams of each fleet-dispatchable kind's states: one for
#: the single-byte attack, one per key byte for the full key.
_STREAMS = {"attack": None, "fullkey": 16}


class _Job:
    """An ``attack`` or ``fullkey`` job resolved from its params.

    The one place job params become campaign objects.  The direct run
    (:meth:`run`) and a lease (:meth:`source`) build the same shard
    source from the same arguments; the coordinator merges resolve
    here too, so the routes cannot drift apart.  Resolution is lazy: a
    merge that needs only the cipher never builds the sensor or the
    traces.
    """

    def __init__(self, kind: str, params: Dict[str, object]):
        check_acquisition_reduction(kind, params)
        self.kind = kind
        self.params = params
        self.config = _experiment_config(params)
        self.setup = cached_setup(self.config)
        self.circuit = str(params.get("circuit", "alu"))
        self.num_traces = int(params["traces"])  # type: ignore[arg-type]
        self.misalignment, self.spec = _acquisition_specs(params)
        self.physical = self.misalignment is not None or self.spec is not None
        self.seed = _physical_seed(self.config, self.circuit)

    @property
    def campaign(self):
        return self.setup.campaign(self.circuit)

    @property
    def generator(self) -> PhysicalTraceGenerator:
        return _physical_generator(self.setup.cipher, self.misalignment)

    def knobs(self, **runtime: object) -> Dict[str, object]:
        """The job's execution knobs, plus ``runtime`` ones."""
        return dict(
            max_workers=self.params.get("workers"),
            policy=retry_policy(
                self.params.get("retries"),  # type: ignore[arg-type]
                self.params.get("task_timeout"),  # type: ignore[arg-type]
            ),
            **runtime,
        )

    def _arguments(self) -> Dict[str, object]:
        """What the job's shard source is built from."""
        if not self.physical:
            arguments = {"campaign": self.campaign}
            if self.kind == "attack":
                arguments["reduction"] = str(self.params["reduction"])
            return dict(arguments, num_traces=self.num_traces)
        generator = self.generator
        columns = (
            (column_of_key_byte(DEFAULT_TARGET_BYTE),)
            if self.kind == "attack"
            else tuple(range(4))
        )
        return {
            "generator": generator,
            "sensor": self.campaign.sensor,
            "num_traces": self.num_traces,
            "seed": self.seed,
            "preprocess": _resolved_plan(
                self.spec, generator, self.seed, columns
            ),
        }

    def run(self, **runtime: object) -> object:
        """The direct route: the whole campaign, its source built for
        this job alone."""
        source = _ROUTES[self.kind, self.physical](**self._arguments())
        return run_campaign(source, **self.knobs(**runtime))

    def source(self) -> ShardSource:
        """The lease route: the campaign's shard source, cached per
        configuration because the leases of one job share it."""
        build = _ROUTES[self.kind, self.physical]
        campaign = self.campaign
        key = (
            self.kind,
            campaign.sensor.name,
            int(campaign.seed),
            self.num_traces,
            self.params.get("reduction"),
            self.params.get("jitter"),
            self.params.get("preprocess"),
        )
        return _INPUTS.get(key, lambda: build(**self._arguments()))


def run_attack(
    params: Dict[str, object],
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> CPAResult:
    """The ``repro attack`` campaign as a parameter-dict runner."""
    with kernels.use(params.get("kernels")):
        return _Job("attack", params).run(
            health=health,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )


def run_fullkey(
    params: Dict[str, object],
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> FullKeyResult:
    """The ``repro fullkey`` campaign as a parameter-dict runner."""
    with kernels.use(params.get("kernels")):
        return _Job("fullkey", params).run(
            health=health,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )


def run_report(
    params: Dict[str, object],
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> List[FigureRecord]:
    """The ``repro report`` figure sweep as a parameter-dict runner."""
    with kernels.use(params.get("kernels")):
        misalignment, spec = _acquisition_specs(params)
        return run_all_figures(
            _experiment_config(params),
            include_cpa=bool(params.get("cpa", False)),
            jitter=misalignment,
            preprocess=spec,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )


# ----------------------------------------------------------------------
# Trace generation (the batchable kind)
# ----------------------------------------------------------------------


#: One generator per cipher key: the generator itself is cheap, but it
#: caches its batched key schedule (and the PDN's lazily built filter
#: state), so reusing it across requests makes repeated service jobs
#: re-derive nothing per call.  Built once like ``_SETUPS`` because the
#: scheduler's thread workers race on first use.
_GENERATORS = _BuildOnce()


def _generator(key_hex: str) -> PhysicalTraceGenerator:
    return _GENERATORS.get(
        (key_hex,),
        lambda: PhysicalTraceGenerator(AES128(bytes.fromhex(key_hex))),
    )


def tracegen_compat_key(params: Dict[str, object]) -> str:
    """Batching-compatibility class of a tracegen request.

    Requests are coalescible when they share the deterministic pipeline
    — i.e. the cipher key and the (service-fixed) generator physics.
    Seeds and trace counts may differ freely: noise is applied per
    request after the shared deterministic pass.
    """
    digest = hashlib.sha256()
    digest.update(b"tracegen-v1:")
    digest.update(str(params["key_hex"]).encode("ascii"))
    return digest.hexdigest()[:16]


def _tracegen_plaintexts(params: Dict[str, object]) -> np.ndarray:
    return random_plaintexts(
        int(params["traces"]),  # type: ignore[arg-type]
        seed=derive_seed(int(params["seed"]), "service-pt"),  # type: ignore[arg-type]
    )


def run_tracegen(params: Dict[str, object]) -> Dict[str, np.ndarray]:
    """One trace-generation request, alone (the direct path)."""
    with kernels.use(params.get("kernels")):
        generator = _generator(str(params["key_hex"]))
        misalignment, _ = _acquisition_specs(params)
        seed = derive_seed(int(params["seed"]), "service-noise")  # type: ignore[arg-type]
        data = generator.generate(_tracegen_plaintexts(params), seed=seed)
        if misalignment is not None:
            # Explicit application (same seed as the noise block) is
            # bit-identical to a generator constructed with the spec:
            # the generator's own acquire step keys both streams on the
            # same seed.  Keeping the cached generator spec-free lets
            # requests with different jitter share one key schedule.
            data["voltages"] = generator.apply_misalignment(
                data["voltages"], seed, spec=misalignment
            )
        return data


def run_tracegen_batch(
    batch: Sequence[Dict[str, object]]
) -> List[Dict[str, np.ndarray]]:
    """Coalesced trace generation: one deterministic pass, fanned out.

    All requests must share one :func:`tracegen_compat_key`.  Returns
    one result per request, each bit-identical to
    ``run_tracegen(request)`` (asserted in the test suite): the
    deterministic stages are per-row, and each request's ambient-noise
    block is drawn from its own seed over its own slice shape.
    """
    if not batch:
        return []
    keys = {tracegen_compat_key(params) for params in batch}
    if len(keys) != 1:
        raise ValueError(
            "tracegen batch mixes %d compatibility classes" % len(keys)
        )
    # Backends are bit-identical, so the kernels knob never affects the
    # merged output; the first request's spec drives the shared pass.
    with kernels.use(batch[0].get("kernels")):
        generator = _generator(str(batch[0]["key_hex"]))
        plaintexts = [_tracegen_plaintexts(params) for params in batch]
        merged = generator.generate_deterministic(np.vstack(plaintexts))
    results: List[Dict[str, np.ndarray]] = []
    offset = 0
    for params, blocks in zip(batch, plaintexts):
        stop = offset + blocks.shape[0]
        seed = derive_seed(
            int(params["seed"]), "service-noise"  # type: ignore[arg-type]
        )
        voltages = generator.add_ambient_noise(
            merged["voltages"][offset:stop], seed
        )
        misalignment, _ = _acquisition_specs(params)
        if misalignment is not None:
            # Per-request acquisition distortion over the shared
            # deterministic pass: the misalignment streams key on the
            # request's own seed and slice shape, so this matches
            # run_tracegen(request) bit for bit — and requests with
            # different jitter specs still coalesce.
            voltages = generator.apply_misalignment(
                voltages, seed, spec=misalignment
            )
        results.append(
            {
                "ciphertexts": merged["ciphertexts"][offset:stop].copy(),
                "voltages": voltages,
            }
        )
        offset = stop
    return results


# ----------------------------------------------------------------------
# Fleet shard execution (the distributed campaign fabric)
# ----------------------------------------------------------------------
#
# The fleet protocol never ships trace arrays: campaign inputs are a
# pure function of the job's content parameters (seeded ciphertext and
# noise draws), and rebuilding them on the worker costs ~10ms per 40k
# traces against ~170ms of leakage compute — so a shard lease is a few
# hundred bytes, and the expensive direction (per-segment CPA states
# back to the coordinator) rides the binary frame codec.  Rebuilt
# inputs are cached per configuration below; the cache keys double as
# the worker's *warm set*, which is what the coordinator's cache-aware
# placement matches job config hashes against.

#: Lease shard sources (campaign input arrays plus the recipe's state)
#: rebuilt on this host, keyed per configuration.  A handful of entries
#: bounds memory (a 250k-trace campaign's inputs are a few MB); LRU
#: keeps the actively leased configs resident, and two leases of a
#: cold job served at once build its source once.
_INPUTS = _BuildOnce(max_entries=4)

#: Config hashes this process has done work for (insertion-ordered so
#: heartbeats report the most recent last).  Fed by completed leases
#: and, for CLI workers, seeded from an on-disk cache directory scan.
_WARM_KEYS: "OrderedDict[str, None]" = OrderedDict()
_WARM_LOCK = threading.Lock()


def note_warm_key(key: Optional[str]) -> None:
    """Record a config hash as warm on this host."""
    if not key:
        return
    with _WARM_LOCK:
        _WARM_KEYS[str(key)] = None
        _WARM_KEYS.move_to_end(str(key))


def warm_cache_keys(limit: int = 64) -> List[str]:
    """The most recently warmed config hashes (newest last)."""
    with _WARM_LOCK:
        keys = list(_WARM_KEYS)
    return keys[-limit:]


@dataclass(frozen=True)
class FleetShardPlan:
    """A job's block-aligned shard decomposition for fleet dispatch.

    ``segment_ends[i]`` are shard *i*'s internal merge boundaries —
    every campaign checkpoint falling inside the shard plus the shard
    end (:func:`repro.experiments.parallel.segment_ends`) — so the
    coordinator's trace-order merge reproduces the single-host
    checkpoint sequence bit for bit.
    """

    kind: str
    shards: Tuple[Tuple[int, int], ...]
    segment_ends: Tuple[Tuple[int, ...], ...]
    checkpoints: Tuple[int, ...]

    def validate(self, index: int, result: object) -> None:
        """Check shard ``index``'s lease result with the job statistic's
        validator (raises :class:`TruncatedResultError` if malformed)."""
        SegmentPartials.validate(
            {
                "shard": Shard(*self.shards[index]),
                "segment_ends": self.segment_ends[index],
                "streams": _STREAMS[self.kind],
            },
            result,
        )


def plan_fleet_job(
    kind: str, params: Dict[str, object], num_shards: int
) -> FleetShardPlan:
    """Block-aligned shard plan for one fleet-dispatched job.

    Shards are runs of whole stream blocks
    (:data:`~repro.core.attack.STREAM_BLOCK`, the seed grid of the
    single-host drivers), split as evenly as :func:`plan_shards` splits
    them for a local pool, so any fleet size reproduces the exact
    per-block seeds — the precondition for bit-identical merges.
    """
    if kind not in _STREAMS:
        raise ValueError("job kind %r is not fleet-dispatchable" % kind)
    num_traces = int(params["traces"])  # type: ignore[arg-type]
    shards = plan_shards(num_traces, max(1, int(num_shards)))
    points = default_checkpoints(num_traces)
    return FleetShardPlan(
        kind=kind,
        shards=tuple((s.start, s.end) for s in shards),
        segment_ends=tuple(
            tuple(segment_ends(shard, points)) for shard in shards
        ),
        checkpoints=tuple(int(p) for p in points),
    )


def _run_shard(
    kind: str,
    params: Dict[str, object],
    start: int,
    end: int,
    segment_ends: Sequence[int],
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    with kernels.use(params.get("kernels")):
        return run_lease(
            _Job(kind, params).source(),
            start,
            end,
            [int(p) for p in segment_ends],
        )


def run_attack_shard(
    params: Dict[str, object],
    start: int,
    end: int,
    segment_ends: Sequence[int],
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """One attack shard lease on this thread, as per-segment states.

    Rebuilds the campaign's shard source deterministically from the job
    parameters (cached per configuration), runs exactly the lease's
    trace range on the global stream-block grid through the local
    drivers' shard task, and returns one
    :meth:`~repro.attacks.cpa.StreamingCPA.state_arrays` dict per
    segment boundary, ready for the frame codec and the coordinator's
    merge.
    """
    return _run_shard("attack", params, start, end, segment_ends)


def run_fullkey_shard(
    params: Dict[str, object],
    start: int,
    end: int,
    segment_ends: Sequence[int],
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """One full-key shard lease: :func:`run_attack_shard`'s states with
    16 streams, one per key byte."""
    return _run_shard("fullkey", params, start, end, segment_ends)


def _merge_partials(
    plan: FleetShardPlan,
    partials_by_shard: Sequence[Sequence[Tuple[int, Dict[str, np.ndarray]]]],
) -> SegmentPartials:
    statistic = SegmentPartials(
        plan.checkpoints, hypothesis_table(), _STREAMS[plan.kind]
    )
    for partials in partials_by_shard:
        statistic.merge(partials)
    return statistic


def merge_attack_partials(
    params: Dict[str, object],
    plan: FleetShardPlan,
    partials_by_shard: Sequence[
        Sequence[Tuple[int, Dict[str, np.ndarray]]]
    ],
) -> CPAResult:
    """Trace-order merge of per-shard states → CPAResult.

    The single-host driver's reducer (:class:`SegmentPartials`): shards
    in plan order, segments in trace order, correlations evaluated at
    every checkpoint boundary.  The states are int64, so the result is
    bit-identical regardless of which workers computed them, in what
    interleaving, or after how many reassignments.
    """
    return _merge_partials(plan, partials_by_shard).result(
        _Job("attack", params).setup.cipher.last_round_key[
            DEFAULT_TARGET_BYTE
        ]
    )


def merge_fullkey_partials(
    params: Dict[str, object],
    plan: FleetShardPlan,
    partials_by_shard: Sequence[
        Sequence[Tuple[int, Dict[str, np.ndarray]]]
    ],
) -> FullKeyResult:
    """:func:`merge_attack_partials` for a full-key job's 16 streams."""
    return _merge_partials(plan, partials_by_shard).result(
        _Job("fullkey", params).setup.cipher.last_round_key
    )
