"""Sharded, mergeable, fault-tolerant CPA campaign driver.

A half-million-trace campaign decomposes naturally: trace generation
(sensor sampling) and hypothesis building are embarrassingly parallel
over disjoint trace ranges, and the CPA statistic is a set of running
sums, so per-shard :class:`~repro.attacks.cpa.StreamingCPA`
accumulators merge into exactly the single-stream state.

Determinism is preserved by construction:

* ciphertexts and victim voltages are drawn campaign-globally (one
  seeded draw for all N traces) before any sharding;
* shard boundaries are aligned to the campaign's
  :data:`~repro.core.attack.TRACE_CHUNK` grid, and each chunk's jitter
  seed is keyed on its *global* start index — the same derivation the
  serial collector uses — so every worker reproduces the exact leakage
  the serial path would have produced;
* leakage and hypothesis values are integer-valued, so the running
  sums are float-exact and merging is order-independent: the sharded
  result, accumulated by ciphertext-byte value
  (:meth:`~repro.attacks.cpa.StreamingCPA.update` with ``values``), is
  bit-identical to the dense :func:`repro.attacks.cpa.run_cpa`.

Workers run on either backend of
:func:`repro.util.executors.map_ordered`: the default thread pool (the
heavy kernels — waveform-bank sampling, the by-value CPA bincounts —
are numpy calls that release the GIL for most of their runtime) or, with ``executor="process"``, a process pool whose
shard tasks are module-level functions with picklable payloads,
buying real multi-core scaling for the Python-bound stages.  Both
backends produce bit-identical results at any worker count.

The same determinism is what makes the campaign *fault-tolerant*:
because every shard task is a pure function of its payload, the
runtime may retry a failed shard, rebuild a broken process pool, or
degrade ``process -> thread -> serial``
(:class:`repro.util.executors.RetryPolicy`) without any effect on the
result.  Passing ``checkpoint_path`` makes progress durable: after
every ``checkpoint_every`` completed shards the merged accumulator
state and a configuration-fingerprinted manifest are atomically
written (:mod:`repro.experiments.checkpoint`), and ``resume=True``
continues a killed campaign from the last checkpoint, bit-identical
to an uninterrupted run.  Deterministic fault injection for all of
these paths lives in :mod:`repro.util.faults`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aes.leakage import random_ciphertexts
from repro.attacks.cpa import (
    CPAResult,
    StreamingCPA,
    default_checkpoints,
)
from repro.attacks.full_key import (
    FullKeyResult,
    column_of_key_byte,
    recover_last_round_key,
)
from repro.attacks.models import (
    BYTE_VALUES,
    DEFAULT_TARGET_BIT,
    DEFAULT_TARGET_BYTE,
    single_bit_hypothesis,
)
from repro.core.attack import (
    REDUCTION_HW,
    TRACE_CHUNK,
    AttackCampaign,
)
from repro.core.endpoint_sensor import BenignSensor
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.experiments.checkpoint import (
    CampaignCheckpoint,
    CampaignManifest,
    load_checkpoint,
    save_checkpoint,
    split_rows,
    verify_manifest,
)
from repro.preprocess.pipeline import ResolvedPreprocess
from repro.util.executors import (
    CampaignHealth,
    RetryPolicy,
    TruncatedResultError,
    default_workers,
    map_ordered,
)
from repro.util.faults import FaultPlan, poison_leakage
from repro.util.rng import derive_seed
from repro.util.shm import ArrayFanout, fanout_state

__all__ = [
    "DEFAULT_CHUNK_WORKING_SET_BYTES",
    "Shard",
    "default_workers",
    "plan_chunk_size",
    "plan_shards",
    "sharded_attack",
    "sharded_full_key",
    "sharded_physical_attack",
    "sharded_physical_full_key",
]


@dataclass(frozen=True)
class Shard:
    """One worker's contiguous trace range ``[start, end)``."""

    start: int
    end: int

    @property
    def num_traces(self) -> int:
        return self.end - self.start

    @property
    def site(self) -> str:
        """Stable identity for fault keying and health reports."""
        return "shard[%d:%d]" % (self.start, self.end)


def plan_shards(
    num_traces: int,
    num_shards: Optional[int] = None,
    chunk_size: int = TRACE_CHUNK,
) -> List[Shard]:
    """Split ``[0, num_traces)`` into chunk-aligned contiguous shards.

    Shard boundaries land on multiples of ``chunk_size`` (except the
    final partial chunk), because per-chunk jitter seeds are keyed on
    the chunk grid; splitting mid-chunk would change the sampled noise
    relative to the serial path.
    """
    if num_traces < 1:
        raise ValueError("need at least one trace")
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    num_chunks = -(-num_traces // chunk_size)
    shards = min(num_shards or default_workers(), num_chunks)
    shards = max(1, shards)
    # Distribute whole chunks as evenly as possible.
    per_shard, extra = divmod(num_chunks, shards)
    plan: List[Shard] = []
    chunk_cursor = 0
    for index in range(shards):
        take = per_shard + (1 if index < extra else 0)
        start = chunk_cursor * chunk_size
        chunk_cursor += take
        end = min(chunk_cursor * chunk_size, num_traces)
        plan.append(Shard(start, end))
    return plan


#: Default per-chunk working-set budget.  A chunk's arrays (voltages,
#: sampled bits, jitter draws, currents/droops for the physical path)
#: should stay resident in a per-core last-level-cache slice while the
#: numpy kernels stream over them; a few MiB is the sweet spot on
#: commodity parts, and the exact value only shifts constant factors.
DEFAULT_CHUNK_WORKING_SET_BYTES = 4 << 20


def plan_chunk_size(
    num_traces: int,
    bytes_per_trace: int,
    workers: Optional[int] = None,
    target_bytes: int = DEFAULT_CHUNK_WORKING_SET_BYTES,
) -> int:
    """Trace-chunk length derived from working-set footprint.

    Sizing chunks as ``num_traces / k`` couples the working set to the
    campaign size: a 100k-trace campaign on 4 workers used to process
    12.5k-trace chunks whose temporaries spill every cache level.  This
    derives the chunk from how many traces *fit* instead:

    * at most ``target_bytes / bytes_per_trace`` traces per chunk, so
      one chunk's arrays stay cache-resident;
    * at least one chunk per worker (when ``num_traces`` allows), so
      the pool is saturated regardless of footprint;
    * never more than ``num_traces``.

    The chunk size feeds the campaign's jitter-seed grid, so the serial
    baseline of any comparison must be collected at the same chunk size
    — exactly as with a hand-picked value.

    Args:
        num_traces: campaign length.
        bytes_per_trace: per-trace footprint of the generation pipeline
            (see :meth:`AttackCampaign.working_set_bytes_per_trace` and
            :meth:`PhysicalTraceGenerator.working_set_bytes_per_trace`).
        workers: worker count (default :func:`default_workers`).
        target_bytes: per-chunk working-set budget.
    """
    if num_traces < 1:
        raise ValueError("need at least one trace")
    if bytes_per_trace < 1:
        raise ValueError("bytes_per_trace must be positive")
    if target_bytes < 1:
        raise ValueError("target_bytes must be positive")
    chunk = max(1, target_bytes // bytes_per_trace)
    count = workers if workers is not None else default_workers()
    if count > 1:
        chunk = min(chunk, -(-num_traces // count))
    return int(max(1, min(chunk, num_traces)))


def _normalize_checkpoints(
    checkpoints: Optional[Sequence[int]], num_traces: int
) -> np.ndarray:
    """Checkpoint grid with the same contract as :func:`run_cpa`."""
    if checkpoints is None:
        return default_checkpoints(num_traces)
    points = np.unique(np.asarray(checkpoints, dtype=np.int64))
    if points.size == 0 or points[0] < 2 or points[-1] > num_traces:
        raise ValueError("checkpoints must lie in [2, num_traces]")
    if points[-1] != num_traces:
        points = np.append(points, num_traces)
    return points


def _segment_ends(shard: Shard, points: np.ndarray) -> List[int]:
    """Shard-internal segment boundaries: checkpoints, then shard end."""
    inside = points[(points > shard.start) & (points < shard.end)]
    return [int(p) for p in inside] + [shard.end]


def _segment_partials(
    leakage: np.ndarray,
    ct_bytes: np.ndarray,
    start: int,
    segment_ends: Sequence[int],
    target_bit: int,
) -> List[Tuple[int, StreamingCPA]]:
    """One by-value CPA partial per segment of a shard's traces.

    ``leakage`` and ``ct_bytes`` cover the shard from global trace
    ``start``.  Each segment is accumulated from its ciphertext bytes
    and the 256-row single-bit table — no (N, 256) hypothesis matrix —
    into the exact state the dense matrix would give.
    """
    table = single_bit_hypothesis(BYTE_VALUES, bit=target_bit)
    partials: List[Tuple[int, StreamingCPA]] = []
    previous = start
    for segment_end in segment_ends:
        local = slice(previous - start, segment_end - start)
        engine = StreamingCPA(num_candidates=table.shape[1])
        engine.update(leakage[local], table, ct_bytes[local])
        partials.append((segment_end, engine))
        previous = segment_end
    return partials


def _attack_shard_task(
    task: Dict[str, object]
) -> List[Tuple[int, StreamingCPA]]:
    """One shard's trace generation + per-segment CPA accumulation.

    Module-level and picklable, but the payload is only a context id
    plus the shard descriptor: the campaign object arrives fork-once
    per worker, and the campaign-global input arrays are read in place
    (driver memory or a shared-memory mapping — see
    :class:`repro.util.shm.ArrayFanout`), so neither a task nor a
    retry re-serializes anything heavier than a few hundred bytes.
    """
    state = fanout_state(task["ctx"])
    campaign: AttackCampaign = state.heavy["campaign"]
    shard: Shard = task["shard"]
    voltages = state.array("voltages")
    ct_bytes = state.array("ct_bytes")
    segment_ends: List[int] = task["segment_ends"]
    chunk_size: int = state.heavy["chunk_size"]

    leakage = np.empty(shard.num_traces, dtype=np.float64)
    for start in range(shard.start, shard.end, chunk_size):
        end = min(start + chunk_size, shard.end)
        leakage[start - shard.start : end - shard.start] = (
            campaign.reduced_leakage_block(
                voltages[start:end],
                start,
                state.heavy["reduction"],
                state.heavy["mask"],
                state.heavy["bit"],
            )
        )
    return _segment_partials(
        poison_leakage(leakage),
        ct_bytes[shard.start : shard.end],
        shard.start,
        segment_ends,
        state.heavy["target_bit"],
    )


def _validate_partials(task: Dict[str, object], result: object) -> None:
    """Reject truncated/corrupt shard payloads before they merge."""
    expected = list(task["segment_ends"])
    shard: Shard = task["shard"]
    if not isinstance(result, (list, tuple)):
        raise TruncatedResultError(
            shard.site, "a list of partials", type(result).__name__
        )
    boundaries = [boundary for boundary, _ in result]
    if boundaries != expected:
        raise TruncatedResultError(
            shard.site,
            "segment boundaries %s" % expected,
            "%s" % boundaries,
        )


def _validate_column_block(
    task: Dict[str, object], result: object
) -> None:
    """Reject truncated column-leakage blocks before they stack."""
    shard: Shard = task["shard"]
    expected = (shard.num_traces, 1 if "column" in task else 4)
    shape = getattr(result, "shape", None)
    if shape != expected:
        raise TruncatedResultError(
            shard.site, "leakage block %s" % (expected,), "%s" % (shape,)
        )


def _run_checkpointed_cpa(
    task_fn: Callable[[Dict[str, object]], List[Tuple[int, StreamingCPA]]],
    tasks: List[Dict[str, object]],
    shards: List[Shard],
    points: np.ndarray,
    correct_key: int,
    manifest: CampaignManifest,
    max_workers: Optional[int],
    executor: Optional[str],
    policy: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    health: Optional[CampaignHealth],
    checkpoint_path: Optional[str],
    checkpoint_every: Optional[int],
    resume: bool,
    map_kwargs: Optional[Dict[str, object]] = None,
) -> CPAResult:
    """Shared group-wise execute/merge/checkpoint loop of the two CPA
    drivers.

    Shards run in groups of ``checkpoint_every``; after each group the
    merged running state becomes durable.  Because groups complete in
    trace order, the completed set is always a shard-plan prefix, and
    a resumed run replays the identical merge sequence.
    """
    running = StreamingCPA(num_candidates=256)
    rows: List[np.ndarray] = []
    completed = 0
    if resume and checkpoint_path is not None and os.path.exists(
        checkpoint_path
    ):
        stored = load_checkpoint(checkpoint_path)
        verify_manifest(checkpoint_path, stored.manifest, manifest)
        completed = stored.completed_shards
        running = StreamingCPA.from_state_arrays(
            {
                key[len("engine_"):]: value
                for key, value in stored.arrays.items()
                if key.startswith("engine_")
            }
        )
        rows = split_rows(stored.arrays["rows"])

    robust = (
        policy is not None
        or fault_plan is not None
        or health is not None
        or checkpoint_path is not None
    )
    group = len(tasks)
    if checkpoint_path is not None:
        # Default group = worker count, so durability costs no
        # parallelism (a group is one map_ordered call).
        group = max(1, checkpoint_every or max_workers or default_workers())
    checkpoint_set = {int(p) for p in points}
    while completed < len(tasks):
        stop = min(completed + group, len(tasks))
        kwargs: Dict[str, object] = {}
        if robust:
            kwargs = dict(
                policy=policy,
                fault_plan=fault_plan,
                sites=[shard.site for shard in shards[completed:stop]],
                health=health,
                validate=_validate_partials,
            )
        per_shard = map_ordered(
            task_fn,
            tasks[completed:stop],
            max_workers=max_workers,
            executor=executor,
            **dict(map_kwargs or {}),
            **kwargs,
        )
        for partials in per_shard:
            for boundary, engine in partials:
                running.merge(engine)
                if boundary in checkpoint_set:
                    rows.append(running.correlations())
        completed = stop
        if checkpoint_path is not None:
            arrays: Dict[str, np.ndarray] = {
                "rows": np.vstack(rows)
                if rows
                else np.zeros((0, running.num_candidates))
            }
            arrays.update(
                {
                    "engine_" + key: value
                    for key, value in running.state_arrays().items()
                }
            )
            save_checkpoint(
                checkpoint_path,
                CampaignCheckpoint(
                    manifest=manifest,
                    completed_shards=completed,
                    arrays=arrays,
                ),
            )
    return CPAResult(
        checkpoints=points,
        correlations=np.vstack(rows),
        correct_key=correct_key,
    )


def sharded_attack(
    campaign: AttackCampaign,
    num_traces: int,
    reduction: str = REDUCTION_HW,
    bit: Optional[int] = None,
    target_byte: int = DEFAULT_TARGET_BYTE,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = None,
    chunk_size: int = TRACE_CHUNK,
    executor: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
) -> CPAResult:
    """Parallel drop-in for :meth:`AttackCampaign.attack`.

    Trace generation and hypothesis building are sharded across
    workers; each worker accumulates one :class:`StreamingCPA` partial
    per checkpoint segment of its shard, and the driver merges the
    partials in trace order, evaluating correlations whenever a merge
    boundary is a checkpoint.  The result is bit-identical to the
    serial path for the same seed (see module docstring).

    Args:
        campaign: characterized attack campaign.
        num_traces / reduction / bit / target_byte / target_bit /
            checkpoints: as in :meth:`AttackCampaign.attack`.
        max_workers: worker count (default: :func:`default_workers`;
            pass 1 to force in-process serial execution).
        chunk_size: trace-generation block length; must stay on the
            campaign's chunk grid to reproduce the serial jitter seeds.
        executor: ``"thread"`` (default) or ``"process"`` — the
            :func:`repro.util.executors.map_ordered` backend.
        policy: retry/timeout/degradation policy; any fault-tolerance
            argument (also ``fault_plan``, ``health``,
            ``checkpoint_path``) switches shard execution into the
            resilient mode of :func:`map_ordered`.
        fault_plan: deterministic fault injection (tests only).
        health: accumulates the runtime's recovery events.
        checkpoint_path: write a durable checkpoint here after every
            ``checkpoint_every`` completed shards (atomic
            write-temp-then-rename).
        checkpoint_every: shards per checkpoint group (default: the
            worker count, so durability costs no parallelism).
        resume: continue from ``checkpoint_path`` if it exists; the
            stored manifest must fingerprint-match this configuration.
            The resumed result is bit-identical to an uninterrupted
            run.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    mask, bit = campaign.resolve_reduction(reduction, bit)
    ciphertexts, voltages = campaign.campaign_inputs(num_traces)
    points = _normalize_checkpoints(checkpoints, num_traces)
    shards = plan_shards(num_traces, max_workers, chunk_size)

    manifest = CampaignManifest(
        kind="attack",
        params={
            "campaign_seed": campaign.seed,
            "sensor": campaign.sensor.name,
            "last_round_key": campaign.cipher.last_round_key.hex(),
            "num_traces": int(num_traces),
            "reduction": reduction,
            "bit": None if bit is None else int(bit),
            "target_byte": int(target_byte),
            "target_bit": int(target_bit),
            "chunk_size": int(chunk_size),
        },
        shard_plan=tuple((s.start, s.end) for s in shards),
        checkpoints=tuple(int(p) for p in points),
    )
    with ArrayFanout(
        heavy={
            "campaign": campaign,
            "chunk_size": chunk_size,
            "reduction": reduction,
            "mask": mask,
            "bit": bit,
            "target_bit": target_bit,
        },
        arrays={
            "voltages": voltages,
            "ct_bytes": ciphertexts[:, target_byte],
        },
        executor=executor,
        workers=max_workers or default_workers(),
        num_tasks=len(shards),
    ) as fanout:
        tasks = [
            {
                "ctx": fanout.context_id,
                "shard": shard,
                "segment_ends": _segment_ends(shard, points),
            }
            for shard in shards
        ]
        return _run_checkpointed_cpa(
            _attack_shard_task,
            tasks,
            shards,
            points,
            campaign.cipher.last_round_key[target_byte],
            manifest,
            max_workers,
            executor,
            policy,
            fault_plan,
            health,
            checkpoint_path,
            checkpoint_every,
            resume,
            map_kwargs=fanout.map_kwargs,
        )


def _acquisition_manifest_params(
    generator: PhysicalTraceGenerator,
    preprocess: Optional[ResolvedPreprocess],
) -> Dict[str, object]:
    """Manifest entries for acquisition realism — only when active.

    Absent keys keep every pre-PR acquisition-free manifest (and hence
    config hash, checkpoint resume and service cache key) byte-stable.
    """
    params: Dict[str, object] = {}
    misalignment = getattr(generator, "misalignment", None)
    if misalignment is not None and misalignment.enabled:
        params["misalignment"] = misalignment.to_string()
    if preprocess is not None:
        params["preprocess"] = preprocess.spec.to_string()
    return params


def _physical_shard_task(
    task: Dict[str, object]
) -> List[Tuple[int, StreamingCPA]]:
    """One shard of the physical (waveform-level) campaign.

    Unlike :func:`_attack_shard_task`, the traces do not exist up
    front: each chunk is *generated* here — encryption, current
    waveform, PDN integration, sensor sampling — with its noise and
    jitter seeds keyed on the chunk's global start index, so any
    chunk-aligned sharding reproduces the identical campaign.
    """
    state = fanout_state(task["ctx"])
    generator: PhysicalTraceGenerator = state.heavy["generator"]
    sensor: BenignSensor = state.heavy["sensor"]
    shard: Shard = task["shard"]
    plaintexts = state.array("plaintexts")
    segment_ends: List[int] = task["segment_ends"]
    chunk_size: int = state.heavy["chunk_size"]
    seed: int = state.heavy["seed"]
    reference: bool = state.heavy["reference"]
    sample_index: int = state.heavy["sample_index"]
    preprocess: Optional[ResolvedPreprocess] = state.heavy.get("preprocess")

    generate = (
        generator.generate_reference if reference else generator.generate
    )
    leakage = np.empty(shard.num_traces, dtype=np.float64)
    ct_bytes = np.empty(shard.num_traces, dtype=np.uint8)
    for start in range(shard.start, shard.end, chunk_size):
        end = min(start + chunk_size, shard.end)
        local = slice(start - shard.start, end - shard.start)
        data = generate(
            plaintexts[start:end], seed=derive_seed(seed, "e2e-noise", start)
        )
        if preprocess is None:
            leakage[local] = sensor.sample_weight(
                data["voltages"][:, sample_index],
                seed=derive_seed(seed, "e2e-jitter", start),
                mask=state.heavy["mask"],
                reference=reference,
            )
        else:
            # Shard-local vectorized preprocessing: align/crop/resample
            # the chunk, then sum the sensor's readings over the
            # resolved POI set (one jitter stream per POI, keyed on the
            # chunk's global start like every other chunk stream).
            processed = preprocess.apply(data["voltages"])
            total = np.zeros(end - start, dtype=np.float64)
            for poi, sample in enumerate(state.heavy["samples"]):
                total += sensor.sample_weight(
                    processed[:, int(sample)],
                    seed=derive_seed(seed, "e2e-jitter", start, poi),
                    mask=state.heavy["mask"],
                    reference=reference,
                )
            leakage[local] = total
        ct_bytes[local] = data["ciphertexts"][:, state.heavy["target_byte"]]
    return _segment_partials(
        poison_leakage(leakage),
        ct_bytes,
        shard.start,
        segment_ends,
        state.heavy["target_bit"],
    )


def sharded_physical_attack(
    generator: PhysicalTraceGenerator,
    sensor: BenignSensor,
    num_traces: int,
    mask: Optional[np.ndarray] = None,
    target_byte: int = DEFAULT_TARGET_BYTE,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = None,
    chunk_size: int = TRACE_CHUNK,
    executor: Optional[str] = None,
    seed: int = 0,
    reference: bool = False,
    preprocess: Optional[ResolvedPreprocess] = None,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
) -> CPAResult:
    """CPA campaign over *physically generated* traces.

    Every trace is simulated end to end
    (:class:`repro.core.tracegen.PhysicalTraceGenerator`): plaintext →
    datapath activity → current waveform → PDN droop → sensor sample →
    Hamming-weight reduction — and the CPA targets the byte's aligned
    last-round cycle, exactly as the analytical campaign does.

    Args:
        generator: physical trace generator (holds cipher + PDN).
        sensor: benign sensor sampling the aligned supply voltage.
        mask: sensitive-bit mask for the Hamming-weight reduction
            (None: all endpoint bits).
        target_byte / target_bit / checkpoints / max_workers /
            chunk_size / executor: as in :func:`sharded_attack`.
        seed: campaign seed (plaintexts, ambient noise, jitter).
        reference: run every stage through its per-trace pure-Python
            reference path instead of the vectorized kernels.  Both
            paths are bit-identical; this is the baseline the e2e
            benchmark times the fast path against.
        preprocess: resolved preprocessing plan
            (:func:`repro.preprocess.pipeline.resolve_preprocess`);
            each chunk is aligned/cropped/resampled shard-locally and
            the leakage sums the sensor's readings over the resolved
            POI set.  None (the default) leaves the campaign untouched.
        policy / fault_plan / health / checkpoint_path /
            checkpoint_every / resume: fault-tolerant runtime knobs,
            as in :func:`sharded_attack`.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    plaintexts = random_plaintexts(
        num_traces, seed=derive_seed(seed, "e2e-pt")
    )
    sample_index = int(
        generator.last_round_sample_indices()[column_of_key_byte(target_byte)]
    )
    samples = (
        None
        if preprocess is None
        else preprocess.samples_for_column(column_of_key_byte(target_byte))
    )
    points = _normalize_checkpoints(checkpoints, num_traces)
    shards = plan_shards(num_traces, max_workers, chunk_size)
    params = {
        "seed": int(seed),
        "sensor": sensor.name,
        "last_round_key": generator.cipher.last_round_key.hex(),
        "num_traces": int(num_traces),
        "mask": None if mask is None else np.asarray(mask).tolist(),
        "target_byte": int(target_byte),
        "target_bit": int(target_bit),
        "chunk_size": int(chunk_size),
        "reference": bool(reference),
        "sample_index": sample_index,
    }
    # Acquisition-realism keys enter the manifest only when active, so
    # every pre-existing config hash (and with it checkpoint resume and
    # service cache keys) stays byte-identical.
    params.update(_acquisition_manifest_params(generator, preprocess))
    manifest = CampaignManifest(
        kind="physical",
        params=params,
        shard_plan=tuple((s.start, s.end) for s in shards),
        checkpoints=tuple(int(p) for p in points),
    )
    with ArrayFanout(
        heavy={
            "generator": generator,
            "sensor": sensor,
            "chunk_size": chunk_size,
            "seed": seed,
            "reference": reference,
            "sample_index": sample_index,
            "mask": mask,
            "target_byte": target_byte,
            "target_bit": target_bit,
            "preprocess": preprocess,
            "samples": samples,
        },
        arrays={"plaintexts": plaintexts},
        executor=executor,
        workers=max_workers or default_workers(),
        num_tasks=len(shards),
    ) as fanout:
        tasks = [
            {
                "ctx": fanout.context_id,
                "shard": shard,
                "segment_ends": _segment_ends(shard, points),
            }
            for shard in shards
        ]
        return _run_checkpointed_cpa(
            _physical_shard_task,
            tasks,
            shards,
            points,
            generator.cipher.last_round_key[target_byte],
            manifest,
            max_workers,
            executor,
            policy,
            fault_plan,
            health,
            checkpoint_path,
            checkpoint_every,
            resume,
            map_kwargs=fanout.map_kwargs,
        )


def _physical_column_shard_task(task: Dict[str, object]) -> np.ndarray:
    """One shard's column-resolved *physical* leakage, ``(num, 4)``.

    Each chunk is generated end to end once (noise seed keyed on the
    chunk's global start, exactly like :func:`_physical_shard_task`),
    optionally preprocessed shard-locally, then read at every column's
    resolved sample set with per-``(chunk, column, poi)`` jitter
    streams — so any chunk-aligned sharding (including the fleet's)
    reproduces the identical leakage block.
    """
    state = fanout_state(task["ctx"])
    generator: PhysicalTraceGenerator = state.heavy["generator"]
    sensor: BenignSensor = state.heavy["sensor"]
    shard: Shard = task["shard"]
    plaintexts = state.array("plaintexts")
    chunk_size: int = state.heavy["chunk_size"]
    seed: int = state.heavy["seed"]
    mask: Optional[np.ndarray] = state.heavy["mask"]
    preprocess: Optional[ResolvedPreprocess] = state.heavy.get("preprocess")
    column_samples: Dict[int, np.ndarray] = state.heavy["column_samples"]

    leakage = np.empty((shard.num_traces, 4), dtype=np.float64)
    for start in range(shard.start, shard.end, chunk_size):
        end = min(start + chunk_size, shard.end)
        local = slice(start - shard.start, end - shard.start)
        data = generator.generate(
            plaintexts[start:end], seed=derive_seed(seed, "e2e-noise", start)
        )
        voltages = (
            data["voltages"]
            if preprocess is None
            else preprocess.apply(data["voltages"])
        )
        for column in range(4):
            total = np.zeros(end - start, dtype=np.float64)
            for poi, sample in enumerate(column_samples[column]):
                total += sensor.sample_weight(
                    voltages[:, int(sample)],
                    seed=derive_seed(
                        seed, "e2e-col-jitter", start, column, poi
                    ),
                    mask=mask,
                )
            leakage[local, column] = total
    return poison_leakage(leakage)


def sharded_physical_full_key(
    generator: PhysicalTraceGenerator,
    sensor: BenignSensor,
    num_traces: int,
    mask: Optional[np.ndarray] = None,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[List[int]] = None,
    max_workers: Optional[int] = None,
    chunk_size: int = TRACE_CHUNK,
    executor: Optional[str] = None,
    seed: int = 0,
    preprocess: Optional[ResolvedPreprocess] = None,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
) -> FullKeyResult:
    """Full 16-byte key recovery over physically generated traces.

    The physical counterpart of :func:`sharded_full_key`: every trace
    is simulated end to end and all four last-round columns are read
    from the *same* generated chunk, so one waveform pass feeds all 16
    per-byte CPAs.  With ``preprocess`` set, each chunk is aligned /
    cropped / resampled shard-locally and every column reads its
    resolved POI set instead of the single nominal cycle sample.

    Sharding, checkpointing and fault tolerance mirror
    :func:`sharded_full_key`, except that a shard stays one task (its
    chunks are generated once for all four columns); results are
    bit-identical at any worker count because all chunk streams are
    keyed on global indices.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    if mask is not None:
        mask = np.asarray(mask)
    plaintexts = random_plaintexts(
        num_traces, seed=derive_seed(seed, "e2e-pt")
    )
    # Ciphertexts for the hypothesis stage come from a dedicated
    # encryption-only pass — the waveform chunks stay worker-side.
    ciphertexts = generator._batched_cipher().encrypt(plaintexts)
    aligned_indices = generator.last_round_sample_indices()
    column_samples = {
        column: (
            np.array([int(aligned_indices[column])], dtype=np.int64)
            if preprocess is None
            else preprocess.samples_for_column(column)
        )
        for column in range(4)
    }
    shards = plan_shards(num_traces, max_workers, chunk_size)
    params = {
        "seed": int(seed),
        "sensor": sensor.name,
        "last_round_key": generator.cipher.last_round_key.hex(),
        "num_traces": int(num_traces),
        "mask": None if mask is None else np.asarray(mask).tolist(),
        "target_bit": int(target_bit),
        "chunk_size": int(chunk_size),
        "sample_indices": [int(i) for i in aligned_indices],
    }
    params.update(_acquisition_manifest_params(generator, preprocess))
    manifest = CampaignManifest(
        kind="physical-fullkey",
        params=params,
        shard_plan=tuple((s.start, s.end) for s in shards),
        checkpoints=tuple(
            int(p) for p in (checkpoints if checkpoints else ())
        ),
    )

    with ArrayFanout(
        heavy={
            "generator": generator,
            "sensor": sensor,
            "chunk_size": chunk_size,
            "seed": seed,
            "mask": mask,
            "preprocess": preprocess,
            "column_samples": column_samples,
        },
        arrays={"plaintexts": plaintexts},
        executor=executor,
        workers=max_workers or default_workers(),
        num_tasks=len(shards),
    ) as fanout:
        leakage = _run_checkpointed_columns(
            _physical_column_shard_task,
            [{"ctx": fanout.context_id, "shard": shard} for shard in shards],
            shards,
            manifest,
            max_workers,
            executor,
            policy,
            fault_plan,
            health,
            checkpoint_path,
            checkpoint_every,
            resume,
            map_kwargs=fanout.map_kwargs,
        )
    return recover_last_round_key(
        leakage,
        ciphertexts,
        target_bit=target_bit,
        correct_key=generator.cipher.last_round_key,
        checkpoints=checkpoints,
        max_workers=max_workers,
        executor=executor,
        policy=policy,
        health=health,
    )


def _column_shard_task(task: Dict[str, object]) -> np.ndarray:
    """One shard's leakage at one last-round column, ``(num, 1)``.

    Chunk jitter seeds are keyed on the global ``(column, start)``
    grid, so the four columns of a shard are independent tasks (see
    :func:`_column_tasks`) that the pool balances across workers.
    Returns the block instead of writing into a shared array so the
    payload round-trips through a process pool unchanged.
    """
    state = fanout_state(task["ctx"])
    campaign: AttackCampaign = state.heavy["campaign"]
    shard: Shard = task["shard"]
    column: int = task["column"]
    voltages = state.array("voltages")
    mask: np.ndarray = state.heavy["mask"]
    chunk_size: int = state.heavy["chunk_size"]

    leakage = np.empty((shard.num_traces, 1), dtype=np.float64)
    for start in range(shard.start, shard.end, chunk_size):
        end = min(start + chunk_size, shard.end)
        leakage[start - shard.start : end - shard.start, 0] = (
            campaign.column_leakage_block(
                voltages[start:end, column], start, column, mask
            )
        )
    return poison_leakage(leakage)


def _column_tasks(
    context_id: str, shards: Sequence[Shard]
) -> List[Dict[str, object]]:
    """One :func:`_column_shard_task` per (shard, column), shard-major."""
    return [
        {"ctx": context_id, "shard": shard, "column": column}
        for shard in shards
        for column in range(4)
    ]


def _shard_blocks(
    results: Sequence[np.ndarray], per_shard: int
) -> List[np.ndarray]:
    """Each shard's ``per_shard`` consecutive task results, hstacked
    into its ``(num, 4)`` leakage block."""
    return [
        np.hstack(results[index : index + per_shard])
        for index in range(0, len(results), per_shard)
    ]


def _run_checkpointed_columns(
    task_fn: Callable[[Dict[str, object]], np.ndarray],
    tasks: List[Dict[str, object]],
    shards: List[Shard],
    manifest: CampaignManifest,
    max_workers: Optional[int],
    executor: Optional[str],
    policy: Optional[RetryPolicy],
    fault_plan: Optional[FaultPlan],
    health: Optional[CampaignHealth],
    checkpoint_path: Optional[str],
    checkpoint_every: Optional[int],
    resume: bool,
    map_kwargs: Optional[Dict[str, object]] = None,
) -> np.ndarray:
    """Shared group-wise collect/checkpoint loop of the two full-key
    drivers; returns the ``(N, 4)`` column leakage.

    ``tasks`` holds the same number of tasks for every shard, in shard
    order: four (one per column) for the analytic source, one for the
    physical source, which generates each chunk once for all columns.
    Every task carries its shard's fault site, and the leakage prefix
    becomes durable after every ``checkpoint_every`` whole shards, so
    the shard plan, manifest and checkpoint files do not depend on the
    split.
    """
    per_shard = len(tasks) // len(shards)
    blocks: List[np.ndarray] = []
    completed = 0
    if resume and checkpoint_path is not None and os.path.exists(
        checkpoint_path
    ):
        stored = load_checkpoint(checkpoint_path)
        verify_manifest(checkpoint_path, stored.manifest, manifest)
        completed = stored.completed_shards
        if completed:
            blocks.append(
                np.asarray(
                    stored.arrays["leakage_prefix"], dtype=np.float64
                )
            )

    robust = (
        policy is not None
        or fault_plan is not None
        or health is not None
        or checkpoint_path is not None
    )
    group = len(shards)
    if checkpoint_path is not None:
        # Default group = worker count, so durability costs no
        # parallelism (a group is one map_ordered call).
        group = max(1, checkpoint_every or max_workers or default_workers())
    while completed < len(shards):
        stop = min(completed + group, len(shards))
        kwargs: Dict[str, object] = {}
        if robust:
            kwargs = dict(
                policy=policy,
                fault_plan=fault_plan,
                sites=[
                    shard.site
                    for shard in shards[completed:stop]
                    for _ in range(per_shard)
                ],
                health=health,
                validate=_validate_column_block,
            )
        results = map_ordered(
            task_fn,
            tasks[completed * per_shard : stop * per_shard],
            max_workers=max_workers,
            executor=executor,
            **dict(map_kwargs or {}),
            **kwargs,
        )
        blocks.extend(_shard_blocks(results, per_shard))
        completed = stop
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                CampaignCheckpoint(
                    manifest=manifest,
                    completed_shards=completed,
                    arrays={"leakage_prefix": np.vstack(blocks)},
                ),
            )
    return np.vstack(blocks)


def sharded_full_key(
    campaign: AttackCampaign,
    num_traces: int,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[List[int]] = None,
    max_workers: Optional[int] = None,
    chunk_size: int = TRACE_CHUNK,
    executor: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    resume: bool = False,
) -> FullKeyResult:
    """Parallel drop-in for :meth:`AttackCampaign.attack_full_key`.

    Column-resolved trace collection fans out as one task per
    (shard, column) — chunk seeds are keyed on the global
    ``(column, start)`` grid, identical to the serial collector — and
    each shard's four columns are stacked back in order; then the 16
    per-byte CPAs run on the same backend.  With ``checkpoint_path``
    set, the collected leakage prefix becomes durable after every
    ``checkpoint_every`` shards, so a killed collection resumes without
    regenerating completed shards; the per-byte CPA stage is cheap and
    always recomputed.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    mask, _ = campaign.resolve_reduction(REDUCTION_HW)
    ciphertexts = random_ciphertexts(
        num_traces, seed=derive_seed(campaign.seed, "campaign-ct")
    )
    voltages = campaign.leakage.column_voltages(
        ciphertexts,
        campaign.cipher.last_round_key,
        seed=derive_seed(campaign.seed, "campaign-noise"),
    )
    shards = plan_shards(num_traces, max_workers, chunk_size)
    manifest = CampaignManifest(
        kind="fullkey",
        params={
            "campaign_seed": campaign.seed,
            "sensor": campaign.sensor.name,
            "last_round_key": campaign.cipher.last_round_key.hex(),
            "num_traces": int(num_traces),
            "target_bit": int(target_bit),
            "chunk_size": int(chunk_size),
        },
        shard_plan=tuple((s.start, s.end) for s in shards),
        checkpoints=tuple(
            int(p) for p in (checkpoints if checkpoints else ())
        ),
    )

    with ArrayFanout(
        heavy={
            "campaign": campaign,
            "mask": mask,
            "chunk_size": chunk_size,
        },
        arrays={"voltages": voltages},
        executor=executor,
        workers=max_workers or default_workers(),
        num_tasks=4 * len(shards),
    ) as fanout:
        leakage = _run_checkpointed_columns(
            _column_shard_task,
            _column_tasks(fanout.context_id, shards),
            shards,
            manifest,
            max_workers,
            executor,
            policy,
            fault_plan,
            health,
            checkpoint_path,
            checkpoint_every,
            resume,
            map_kwargs=fanout.map_kwargs,
        )
    return recover_last_round_key(
        leakage,
        ciphertexts,
        target_bit=target_bit,
        correct_key=campaign.cipher.last_round_key,
        checkpoints=checkpoints,
        max_workers=max_workers,
        executor=executor,
        policy=policy,
        health=health,
    )
