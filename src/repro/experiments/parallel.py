"""Sharded, mergeable, fault-tolerant campaign drivers: one shard contract.

A half-million-trace campaign decomposes naturally: trace generation
(sensor sampling) and hypothesis building are embarrassingly parallel
over disjoint trace ranges, and the statistics are running sums, so
per-shard results merge into exactly the single-stream state.  Every
campaign — the single-byte CPA of Fig. 10 and its 16-byte extension,
over the analytical leakage model or physically generated traces —
runs through one contract:

* a **recipe** computes one stream block's leakage and ciphertext
  bytes from ``(state, start, end)``: analytic reduced, analytic
  per-column, physical single-byte or physical 4-column.  Recipes are
  the only per-source code;
* a :class:`ShardSource` is a whole campaign: a recipe, the fan-out
  state and arrays it reads, and the campaign's manifest fingerprint,
  trace count, CPA streams and correct key;
* the one **statistic**, :class:`SegmentPartials`, holds one int64
  per-value CPA state (:class:`~repro.attacks.cpa.StreamingCPA`) per
  checkpoint segment — one stream for the single-byte attack, one per
  key byte for the full key — and owns its result validator, its one
  in-order reducer, its checkpoint arrays and its result;
* :func:`_shard_task` is the one task and :func:`run_campaign` the one
  campaign loop.  A fleet lease (:func:`run_lease`) is one shard, run
  by the same task on the lease's thread; the four public drivers are
  a source each run by :func:`run_campaign`, and the fleet
  coordinator's merge reduces through the same statistic.

Determinism is preserved by construction:

* ciphertexts, victim voltages and plaintexts are drawn
  campaign-globally (one seeded draw for all N traces) before any
  sharding;
* every random stream (sensor jitter, ambient noise, acquisition
  jitter) is seeded per :data:`~repro.core.attack.STREAM_BLOCK` of
  4,096 traces, keyed on the block's *global* start index — the same
  derivation the serial collector uses.  The block is also the unit of
  work: a shard is any run of whole blocks (:func:`plan_shards` splits
  the blocks evenly, so no shard is more than one block longer than
  another), and every worker reproduces the exact leakage the serial
  path would have produced;
* a shard returns int64 states, which merge to the same state in any
  order, so the sharded result equals :func:`repro.attacks.cpa.run_cpa`
  over the serial collector's traces.

Shards run on the thread pool of
:func:`repro.util.executors.map_ordered` (the heavy kernels release the
GIL) and read the campaign's objects and arrays in place through one
:class:`repro.util.shm.ArrayFanout`.  Results are bit-identical at any
worker count.

The same determinism is what makes the campaign *fault-tolerant*:
because the shard task is a pure function of its payload, the map's
retry loop (:class:`repro.util.executors.RetryPolicy`) may retry a
failed or hung shard, and rejects a malformed result through the
statistic's validator, without any effect on the result.  Results
stream out of the map in shard order as they land, so each shard merges
while later shards still run, and passing ``checkpoint_path`` makes
progress durable at no cost in parallelism: after every merged shard
the statistic's state and a configuration-fingerprinted manifest are
atomically written (:mod:`repro.experiments.checkpoint`), and
``resume=True`` continues a failed or killed campaign from the last
merged shard, bit-identical to an uninterrupted run.  Deterministic
fault injection for all of these paths lives in
:mod:`repro.util.faults`.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attacks.cpa import (
    CPAResult,
    StreamingCPA,
    checkpoint_grid,
    state_problem,
)
from repro.attacks.full_key import (
    KEY_BYTE_COLUMNS,
    FullKeyResult,
    column_of_key_byte,
    # The drivers reduce through SegmentPartials; the name stays
    # importable here for the bench ledger's patch table (bench/spans.py).
    recover_last_round_key,  # noqa: F401
)
from repro.attacks.models import (
    BYTE_VALUES,
    DEFAULT_TARGET_BIT,
    DEFAULT_TARGET_BYTE,
    single_bit_hypothesis,
)
from repro.core.attack import (
    REDUCTION_HW,
    STREAM_BLOCK,
    AttackCampaign,
)
from repro.core.endpoint_sensor import BenignSensor
from repro.core.tracegen import PhysicalTraceGenerator, campaign_plaintexts
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
from repro.util.shm import ArrayFanout

__all__ = [
    "SegmentPartials",
    "Shard",
    "ShardSource",
    "default_workers",
    "hypothesis_table",
    "plan_shards",
    "run_campaign",
    "run_lease",
    "segment_ends",
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
    num_traces: int, num_shards: Optional[int] = None
) -> List[Shard]:
    """Split ``[0, num_traces)`` into contiguous runs of whole stream
    blocks.

    Every boundary but the campaign's end lands on a multiple of
    :data:`STREAM_BLOCK`, because each block's random streams are keyed
    on its global start; splitting mid-block would change the sampled
    noise relative to the serial path.  The blocks are distributed as
    evenly as possible, so no shard is more than one block longer than
    another; the spare blocks go to the last shards, the ones that hold
    the campaign's partial last block, so the shards' trace counts come
    out as even as the grid allows.
    """
    if num_traces < 1:
        raise ValueError("need at least one trace")
    num_blocks = -(-num_traces // STREAM_BLOCK)
    shards = max(1, min(num_shards or default_workers(), num_blocks))
    per_shard, extra = divmod(num_blocks, shards)
    plan: List[Shard] = []
    block = 0
    for index in range(shards):
        start = block * STREAM_BLOCK
        block += per_shard + (1 if index >= shards - extra else 0)
        plan.append(Shard(start, min(block * STREAM_BLOCK, num_traces)))
    return plan


def segment_ends(shard: Shard, boundaries: Sequence[int]) -> List[int]:
    """A shard's merge boundaries: ``boundaries`` strictly inside it,
    then the shard end."""
    inside = [int(p) for p in boundaries if shard.start < int(p) < shard.end]
    return inside + [shard.end]


# ----------------------------------------------------------------------
# Recipes: one stream block's leakage, ``(state, start, end)``
# ----------------------------------------------------------------------
#
# Single-byte recipes return ``(leakage (num,), ciphertext bytes
# (num,))`` for the block; full-key recipes return ``(leakage (num, 4),
# ciphertexts (num, 16))``.  Every seed is keyed on the block's *global*
# start, so any block-aligned sharding reproduces the serial campaign.


def _reduced_recipe(
    state: ArrayFanout, start: int, end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic reduced leakage at the target byte's cycle."""
    heavy = state.heavy
    campaign: AttackCampaign = heavy["campaign"]
    leakage = campaign.reduced_leakage_block(
        state.arrays["voltages"][start:end],
        start,
        heavy["reduction"],
        heavy["mask"],
        heavy["bit"],
    )
    return leakage, state.arrays["ct_bytes"][start:end]


def _column_recipe(
    state: ArrayFanout, start: int, end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic Hamming-weight leakage at all four last-round columns,
    each column on its own ``(column, start)``-keyed streams."""
    campaign: AttackCampaign = state.heavy["campaign"]
    voltages = state.arrays["voltages"][start:end]
    leakage = np.empty((end - start, 4), dtype=np.float64)
    for column in range(4):
        leakage[:, column] = campaign.column_leakage_block(
            voltages[:, column], start, column, state.heavy["mask"]
        )
    return leakage, state.arrays["ciphertexts"][start:end]


def _physical_recipe(
    state: ArrayFanout, start: int, end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One generated block read at the target byte's cycle.

    The block is simulated end to end — encryption, current waveform,
    PDN integration, sensor sampling.  With a preprocessing plan the
    block is aligned shard-locally, only the resolved POI samples are
    cropped/resampled (:meth:`ResolvedPreprocess.read`), and the
    leakage sums the sensor's readings over them, one jitter stream per
    POI.
    """
    heavy = state.heavy
    generator: PhysicalTraceGenerator = heavy["generator"]
    sensor: BenignSensor = heavy["sensor"]
    seed: int = heavy["seed"]
    preprocess: Optional[ResolvedPreprocess] = heavy["preprocess"]
    data = generator.generate(
        state.arrays["plaintexts"][start:end],
        seed=derive_seed(seed, "e2e-noise", start),
    )
    if preprocess is None:
        voltages = data["voltages"]
        reads = [(heavy["sample_index"], (start,))]
    else:
        voltages = preprocess.read(data["voltages"], heavy["samples"])
        reads = [(poi, (start, poi)) for poi in range(voltages.shape[1])]
    leakage = np.zeros(end - start, dtype=np.float64)
    for sample, key in reads:
        leakage += sensor.sample_weight(
            voltages[:, int(sample)],
            seed=derive_seed(seed, "e2e-jitter", *key),
            mask=heavy["mask"],
        )
    return leakage, data["ciphertexts"][:, heavy["target_byte"]]


def _physical_columns_recipe(
    state: ArrayFanout, start: int, end: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One generated block read at all four last-round columns.

    The block is generated once, optionally preprocessed at the union
    of the columns' samples, then read at every column's sample set
    with per-``(block, column, poi)`` jitter streams, so one waveform
    pass feeds all 16 per-byte CPAs.
    """
    heavy = state.heavy
    generator: PhysicalTraceGenerator = heavy["generator"]
    sensor: BenignSensor = heavy["sensor"]
    seed: int = heavy["seed"]
    preprocess: Optional[ResolvedPreprocess] = heavy["preprocess"]
    data = generator.generate(
        state.arrays["plaintexts"][start:end],
        seed=derive_seed(seed, "e2e-noise", start),
    )
    voltages = data["voltages"]
    column_samples = heavy["column_samples"]
    if preprocess is not None:
        wanted = np.unique(np.concatenate(list(column_samples.values())))
        voltages = preprocess.read(voltages, wanted)
        column_samples = {
            col: np.searchsorted(wanted, samples)
            for col, samples in column_samples.items()
        }
    leakage = np.zeros((end - start, 4), dtype=np.float64)
    for col, samples in column_samples.items():
        for poi, sample in enumerate(samples):
            leakage[:, col] += sensor.sample_weight(
                voltages[:, int(sample)],
                seed=derive_seed(seed, "e2e-col-jitter", start, col, poi),
                mask=heavy["mask"],
            )
    return leakage, data["ciphertexts"]


@dataclass(frozen=True)
class ShardSource:
    """A whole campaign under the shard contract.

    ``heavy`` holds the recipe, the objects it reads and the
    single-bit hypothesis ``table`` its CPA states use; ``arrays`` the
    campaign-global inputs it slices.  ``kind`` and ``params`` are the
    campaign's manifest fingerprint (:class:`CampaignManifest`),
    ``streams`` is None for the single-byte attack and 16 for the full
    key, and ``key`` is the correct key the result is scored against
    (the target byte, or the whole last-round key).

    Build one with the constructor for its recipe; the public drivers
    and the fleet lease route call the same constructors, and
    :func:`run_campaign` runs any of them.
    """

    heavy: Dict[str, object]
    arrays: Dict[str, np.ndarray]
    kind: str
    params: Dict[str, object]
    num_traces: int
    streams: Optional[int]
    key: object

    @classmethod
    def reduced(
        cls,
        campaign: AttackCampaign,
        num_traces: int,
        reduction: str = REDUCTION_HW,
        bit: Optional[int] = None,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> "ShardSource":
        """Analytic reduced leakage for the single-byte CPA."""
        mask, bit = campaign.resolve_reduction(reduction, bit)
        ciphertexts, voltages = campaign.campaign_inputs(num_traces)
        return cls(
            heavy={
                "recipe": _reduced_recipe,
                "campaign": campaign,
                "reduction": reduction,
                "mask": mask,
                "bit": bit,
                "table": hypothesis_table(target_bit),
            },
            arrays={
                "voltages": voltages,
                "ct_bytes": ciphertexts[:, target_byte],
            },
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
            },
            num_traces=int(num_traces),
            streams=None,
            key=campaign.cipher.last_round_key[target_byte],
        )

    @classmethod
    def per_column(
        cls,
        campaign: AttackCampaign,
        num_traces: int,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> "ShardSource":
        """Analytic per-column leakage for the full-key recovery."""
        mask, _ = campaign.resolve_reduction(REDUCTION_HW)
        ciphertexts, voltages = campaign.column_inputs(num_traces)
        return cls(
            heavy={
                "recipe": _column_recipe,
                "campaign": campaign,
                "mask": mask,
                "table": hypothesis_table(target_bit),
            },
            arrays={"voltages": voltages, "ciphertexts": ciphertexts},
            kind="fullkey",
            params={
                "campaign_seed": campaign.seed,
                "sensor": campaign.sensor.name,
                "last_round_key": campaign.cipher.last_round_key.hex(),
                "num_traces": int(num_traces),
                "target_bit": int(target_bit),
            },
            num_traces=int(num_traces),
            streams=16,
            key=campaign.cipher.last_round_key,
        )

    @classmethod
    def physical(
        cls,
        generator: PhysicalTraceGenerator,
        sensor: BenignSensor,
        num_traces: int,
        seed: int = 0,
        mask: Optional[np.ndarray] = None,
        preprocess: Optional[ResolvedPreprocess] = None,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> "ShardSource":
        """Physically generated traces for the single-byte CPA."""
        column = column_of_key_byte(target_byte)
        sample_index = int(generator.last_round_sample_indices()[column])
        listed = None if mask is None else np.asarray(mask).tolist()
        return cls(
            heavy={
                "recipe": _physical_recipe,
                "generator": generator,
                "sensor": sensor,
                "seed": seed,
                "sample_index": sample_index,
                "mask": mask,
                "target_byte": target_byte,
                "table": hypothesis_table(target_bit),
                "preprocess": preprocess,
                "samples": None
                if preprocess is None
                else preprocess.samples_for_column(column),
            },
            arrays={"plaintexts": campaign_plaintexts(num_traces, seed)},
            kind="physical",
            params=dict(
                {
                    "seed": int(seed),
                    "sensor": sensor.name,
                    "last_round_key": generator.cipher.last_round_key.hex(),
                    "num_traces": int(num_traces),
                    "mask": listed,
                    "target_byte": int(target_byte),
                    "target_bit": int(target_bit),
                    "sample_index": sample_index,
                },
                **_acquisition_manifest_params(generator, preprocess),
            ),
            num_traces=int(num_traces),
            streams=None,
            key=generator.cipher.last_round_key[target_byte],
        )

    @classmethod
    def physical_columns(
        cls,
        generator: PhysicalTraceGenerator,
        sensor: BenignSensor,
        num_traces: int,
        seed: int = 0,
        mask: Optional[np.ndarray] = None,
        preprocess: Optional[ResolvedPreprocess] = None,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> "ShardSource":
        """Physically generated traces for the full-key recovery."""
        aligned = generator.last_round_sample_indices()
        mask = None if mask is None else np.asarray(mask)
        return cls(
            heavy={
                "recipe": _physical_columns_recipe,
                "generator": generator,
                "sensor": sensor,
                "seed": seed,
                "mask": mask,
                "table": hypothesis_table(target_bit),
                "preprocess": preprocess,
                "column_samples": {
                    column: (
                        np.array([int(aligned[column])], dtype=np.int64)
                        if preprocess is None
                        else preprocess.samples_for_column(column)
                    )
                    for column in range(4)
                },
            },
            arrays={"plaintexts": campaign_plaintexts(num_traces, seed)},
            kind="physical-fullkey",
            params=dict(
                {
                    "seed": int(seed),
                    "sensor": sensor.name,
                    "last_round_key": generator.cipher.last_round_key.hex(),
                    "num_traces": int(num_traces),
                    "mask": None if mask is None else mask.tolist(),
                    "target_bit": int(target_bit),
                    "sample_indices": [int(i) for i in aligned],
                },
                **_acquisition_manifest_params(generator, preprocess),
            ),
            num_traces=int(num_traces),
            streams=16,
            key=generator.cipher.last_round_key,
        )


def _acquisition_manifest_params(
    generator: PhysicalTraceGenerator,
    preprocess: Optional[ResolvedPreprocess],
) -> Dict[str, object]:
    """Manifest entries for acquisition realism — only when active.

    Absent keys keep every acquisition-free manifest (and hence config
    hash, checkpoint resume and service cache key) byte-stable.
    """
    params: Dict[str, object] = {}
    misalignment = getattr(generator, "misalignment", None)
    if misalignment is not None and misalignment.enabled:
        params["misalignment"] = misalignment.to_string()
    if preprocess is not None:
        params["preprocess"] = preprocess.spec.to_string()
    return params


# ----------------------------------------------------------------------
# The statistic: validator, in-order reducer, checkpoint arrays
# ----------------------------------------------------------------------


def hypothesis_table(target_bit: int = DEFAULT_TARGET_BIT) -> np.ndarray:
    """The single-bit hypothesis table of every campaign CPA state."""
    return single_bit_hypothesis(BYTE_VALUES, bit=target_bit)


class SegmentPartials:
    """Per-value CPA states, one per checkpoint segment, merged in trace
    order.

    Tasks split their shard at ``boundaries`` (a campaign's
    checkpoints) and return one :meth:`StreamingCPA.state_arrays` per
    segment.  The reducer merges each into a running state over
    ``table`` and snapshots the correlations at every boundary.
    ``streams`` is None for the single-byte attack and 16 for the full
    key (stream ``j`` is key byte ``j``).
    """

    def __init__(
        self,
        boundaries: Sequence[int],
        table: np.ndarray,
        streams: Optional[int] = None,
    ):
        self.points = np.asarray(boundaries, dtype=np.int64)
        self.table = table
        self.streams = streams
        self._snap_at = {int(p) for p in self.points}
        self.running = StreamingCPA(table, streams)
        self.snapshots: List[np.ndarray] = []

    def task_fields(self, shard: Shard) -> Dict[str, object]:
        return {
            "segment_ends": segment_ends(shard, self.points),
            "streams": self.streams,
        }

    @staticmethod
    def validate(task: Dict[str, object], result: object) -> None:
        """Reject a partial list whose boundaries are not the task's
        segment ends, or whose states are not int64 states of their
        segments' trace counts, before it merges."""
        shard: Shard = task["shard"]
        expected = [int(p) for p in task["segment_ends"]]
        if not isinstance(result, (list, tuple)):
            raise TruncatedResultError(
                shard.site, "a list of partials", type(result).__name__
            )
        try:
            boundaries = [int(boundary) for boundary, _ in result]
        except (TypeError, ValueError):
            boundaries = None
        if boundaries != expected:
            raise TruncatedResultError(
                shard.site,
                "segment boundaries %s" % expected,
                "%s" % boundaries,
            )
        streams = task.get("streams")
        shape = (() if streams is None else (int(streams),)) + (
            len(BYTE_VALUES),
        )
        previous = shard.start
        for boundary, state in result:
            problem = state_problem(state, shape, int(boundary) - previous)
            if problem is not None:
                raise TruncatedResultError(
                    shard.site,
                    "an int64 %s state of %d traces at segment end %d"
                    % (shape, int(boundary) - previous, int(boundary)),
                    problem,
                )
            previous = int(boundary)

    def merge(self, partials: Sequence[Tuple[int, Dict]]) -> None:
        """Fold one shard's partials, the next in trace order."""
        for boundary, state in partials:
            self.running.merge(
                StreamingCPA.from_state_arrays(state, self.table)
            )
            if int(boundary) in self._snap_at:
                self.snapshots.append(self.running.correlations())

    def arrays(self) -> Dict[str, np.ndarray]:
        arrays = {
            "rows": np.stack(self.snapshots)
            if self.snapshots
            else np.zeros((0,) + self.running.correlations().shape)
        }
        for key, value in self.running.state_arrays().items():
            arrays["engine_" + key] = value
        return arrays

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        self.running = StreamingCPA.from_state_arrays(
            {
                key[len("engine_"):]: value
                for key, value in arrays.items()
                if key.startswith("engine_")
            },
            self.table,
        )
        self.snapshots = list(split_rows(arrays["rows"]))

    def result(self, key) -> Union[CPAResult, FullKeyResult]:
        """A :class:`CPAResult` scored against the key byte ``key``, or,
        with 16 streams, a :class:`FullKeyResult` with one per key byte
        of the last-round key ``key``."""
        rows = np.stack(self.snapshots)
        if self.streams is None:
            return CPAResult(
                checkpoints=self.points, correlations=rows, correct_key=key,
            )
        return FullKeyResult(
            byte_results=[
                CPAResult(
                    checkpoints=self.points,
                    correlations=rows[:, index],
                    correct_key=key[index],
                )
                for index in range(rows.shape[1])
            ],
            true_last_round_key=key,
        )


# ----------------------------------------------------------------------
# The one shard task and the one campaign loop
# ----------------------------------------------------------------------


def _shard_task(
    state: ArrayFanout, task: Dict[str, object]
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """One shard: the source's recipe over the shard's stream blocks,
    reduced to one CPA state per segment.

    The payload is only the shard and its ``segment_ends``; the
    source's heavy objects and campaign-global arrays are read in place
    from ``state``.  Each block goes into the states of the segments it
    overlaps as it is computed, so no shard-long array is built.  A
    full-key block's ``(num, 4)`` leakage becomes 16 streams, key byte
    ``j`` reading its column's leakage.
    """
    recipe = state.heavy["recipe"]
    shard: Shard = task["shard"]
    ends = iter(int(p) for p in task["segment_ends"])
    segment_end = next(ends)
    engine = None
    partials = []
    for start in range(shard.start, shard.end, STREAM_BLOCK):
        leakage, values = recipe(
            state, start, min(start + STREAM_BLOCK, shard.end)
        )
        leakage = poison_leakage(np.asarray(leakage, dtype=np.float64))
        streams = None
        if values.ndim == 2:
            leakage = leakage[:, KEY_BYTE_COLUMNS]
            streams = values.shape[1]
        done = 0
        while done < len(values):
            if engine is None:
                engine = StreamingCPA(state.heavy["table"], streams)
            stop = min(len(values), segment_end - start)
            engine.update(leakage[done:stop], values[done:stop])
            if start + stop == segment_end:
                partials.append((segment_end, engine.state_arrays()))
                engine, segment_end = None, next(ends, None)
            done = stop
    return partials


def run_campaign(
    source: ShardSource,
    checkpoints: Optional[Sequence[int]] = None,
    max_workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    health: Optional[CampaignHealth] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> Union[CPAResult, FullKeyResult]:
    """Run a whole campaign: every shard of ``source``, merged in trace
    order.

    The campaign's traces are split by :func:`plan_shards`; every shard
    is one :func:`_shard_task` under the retry loop of
    :func:`map_ordered`, keyed on its fault site and checked by the
    statistic's validator.  Each shard merges into
    :class:`SegmentPartials` as soon as it and every earlier shard have
    landed, so the shards run at full width while the merged state only
    ever covers a prefix of the shard plan.

    Args:
        source: the campaign (:class:`ShardSource`).
        checkpoints: trace counts at which correlations are evaluated
            (:func:`~repro.attacks.cpa.checkpoint_grid`; default
            :func:`~repro.attacks.cpa.default_checkpoints`).
        max_workers: worker count, and the number of shards (default:
            :func:`default_workers`).
        policy: retry/timeout policy of :func:`map_ordered`, which
            runs every shard (default :class:`RetryPolicy`).
        fault_plan: deterministic fault injection (tests only).
        health: accumulates the runtime's recovery events.
        checkpoint_path: after every merged shard, atomically write the
            statistic's state and the campaign's configuration-
            fingerprinted manifest here
            (:mod:`repro.experiments.checkpoint`), so a failed or
            killed campaign keeps every finished prefix.
        resume: continue from ``checkpoint_path`` if it exists; the
            stored manifest must fingerprint-match this configuration.
            The resumed result is bit-identical to an uninterrupted
            run.

    Returns:
        :meth:`SegmentPartials.result`: a :class:`CPAResult`, or a
        :class:`FullKeyResult` for a 16-stream source.
    """
    if source.num_traces < 2:
        raise ValueError("need at least 2 traces")
    points = checkpoint_grid(checkpoints, source.num_traces)
    shards = plan_shards(source.num_traces, max_workers)
    manifest = CampaignManifest(
        kind=source.kind,
        params=source.params,
        shard_plan=tuple((s.start, s.end) for s in shards),
        checkpoints=tuple(int(p) for p in points),
    )
    statistic = SegmentPartials(points, source.heavy["table"], source.streams)
    completed = 0
    if resume and checkpoint_path is not None and os.path.exists(
        checkpoint_path
    ):
        stored = load_checkpoint(checkpoint_path)
        verify_manifest(checkpoint_path, stored.manifest, manifest)
        completed = stored.completed_shards
        if completed:
            statistic.restore(stored.arrays)
    remaining = shards[completed:]
    with ArrayFanout(source.heavy, source.arrays) as fanout, closing(
        map_ordered(
            partial(_shard_task, fanout),
            [
                dict({"shard": shard}, **statistic.task_fields(shard))
                for shard in remaining
            ],
            max_workers=max_workers,
            policy=policy,
            fault_plan=fault_plan,
            sites=[shard.site for shard in remaining],
            health=health,
            validate=statistic.validate,
        )
    ) as results:
        # Closing the map on the way out drops the shards still queued
        # when a merge or a save fails.
        for partials in results:
            statistic.merge(partials)
            completed += 1
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path,
                    CampaignCheckpoint(
                        manifest=manifest,
                        completed_shards=completed,
                        arrays=statistic.arrays(),
                    ),
                )
    return statistic.result(source.key)


# ----------------------------------------------------------------------
# Fleet leases
# ----------------------------------------------------------------------


def run_lease(
    source: ShardSource,
    start: int,
    end: int,
    segment_ends: Sequence[int],
) -> List[Tuple[int, Dict[str, np.ndarray]]]:
    """One fleet lease ``[start, end)`` of a campaign, on this thread.

    A lease is one shard: it runs :func:`_shard_task` directly, so a
    fault scope the caller installs reaches the recipe.  The result is
    one ``(boundary, state_arrays)`` per segment end, the same result a
    local shard over the lease's range returns.

    Raises:
        ValueError: the lease is off the stream-block grid, or its
            segment ends do not rise strictly inside it to its end.
    """
    lease = Shard(int(start), int(end))
    num_traces = source.num_traces
    if (
        not 0 <= lease.start < lease.end <= num_traces
        or lease.start % STREAM_BLOCK
        or (lease.end % STREAM_BLOCK and lease.end != num_traces)
    ):
        raise ValueError(
            "lease %s of a %d-trace campaign is off the %d-trace stream "
            "block grid" % (lease.site, num_traces, STREAM_BLOCK)
        )
    ends = [int(p) for p in segment_ends]
    if ends != sorted(set(ends)) or ends[-1:] != [lease.end] or (
        ends[0] <= lease.start
    ):
        raise ValueError(
            "segment ends %s do not rise inside lease %s to its end"
            % (ends, lease.site)
        )
    with ArrayFanout(source.heavy, source.arrays) as fanout:
        return _shard_task(fanout, {"shard": lease, "segment_ends": ends})


# ----------------------------------------------------------------------
# The four public drivers: a source each, run by run_campaign
# ----------------------------------------------------------------------


def sharded_attack(
    campaign: AttackCampaign,
    num_traces: int,
    reduction: str = REDUCTION_HW,
    bit: Optional[int] = None,
    target_byte: int = DEFAULT_TARGET_BYTE,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[Sequence[int]] = None,
    **runtime: object,
) -> CPAResult:
    """Parallel drop-in for :meth:`AttackCampaign.attack`.

    Trace generation is sharded across workers; each worker
    accumulates one :class:`StreamingCPA` state per checkpoint segment
    of its shard, and the driver merges the states in trace order,
    evaluating correlations whenever a merge boundary is a checkpoint.
    The result is bit-identical to the serial path for the same seed
    (see module docstring).  ``num_traces`` / ``reduction`` / ``bit`` /
    ``target_byte`` / ``target_bit`` / ``checkpoints`` are as in
    :meth:`AttackCampaign.attack`; ``runtime`` takes the knobs of
    :func:`run_campaign`.
    """
    return run_campaign(
        ShardSource.reduced(
            campaign, num_traces, reduction, bit, target_byte, target_bit
        ),
        checkpoints,
        **runtime,
    )


def sharded_physical_attack(
    generator: PhysicalTraceGenerator,
    sensor: BenignSensor,
    num_traces: int,
    mask: Optional[np.ndarray] = None,
    target_byte: int = DEFAULT_TARGET_BYTE,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[Sequence[int]] = None,
    seed: int = 0,
    preprocess: Optional[ResolvedPreprocess] = None,
    **runtime: object,
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
        target_byte / target_bit / checkpoints: as in
            :func:`sharded_attack`.
        seed: campaign seed (plaintexts, ambient noise, jitter).
        preprocess: resolved preprocessing plan
            (:func:`repro.preprocess.pipeline.resolve_preprocess`);
            each block is aligned/cropped/resampled shard-locally and
            the leakage sums the sensor's readings over the resolved
            POI set.  None (the default) leaves the campaign untouched.
        runtime: the knobs of :func:`run_campaign`.
    """
    return run_campaign(
        ShardSource.physical(
            generator, sensor, num_traces, seed, mask, preprocess,
            target_byte, target_bit,
        ),
        checkpoints,
        **runtime,
    )


def sharded_full_key(
    campaign: AttackCampaign,
    num_traces: int,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[List[int]] = None,
    **runtime: object,
) -> FullKeyResult:
    """Parallel drop-in for :meth:`AttackCampaign.attack_full_key`.

    One task per shard reads all four columns of its blocks — block
    seeds are keyed on the global ``(column, start)`` grid, identical
    to the serial collector — and reduces them to one 16-stream CPA
    state per checkpoint segment (:class:`SegmentPartials`, stream
    ``j`` for key byte ``j``), merged in trace order exactly as
    :func:`sharded_attack` merges its one stream.  Checkpoints default
    to :func:`default_checkpoints`; ``runtime`` takes the knobs of
    :func:`run_campaign`.
    """
    return run_campaign(
        ShardSource.per_column(campaign, num_traces, target_bit),
        checkpoints,
        **runtime,
    )


def sharded_physical_full_key(
    generator: PhysicalTraceGenerator,
    sensor: BenignSensor,
    num_traces: int,
    mask: Optional[np.ndarray] = None,
    target_bit: int = DEFAULT_TARGET_BIT,
    checkpoints: Optional[List[int]] = None,
    seed: int = 0,
    preprocess: Optional[ResolvedPreprocess] = None,
    **runtime: object,
) -> FullKeyResult:
    """Full 16-byte key recovery over physically generated traces.

    Every trace is simulated end to end and all four last-round columns
    are read from the *same* generated block, so one task per shard
    feeds all 16 per-byte CPAs.  With ``preprocess`` set, each block is
    aligned / cropped / resampled shard-locally and every column reads
    its resolved POI set instead of the single nominal cycle sample.
    The statistic and its checkpoints are those of
    :func:`sharded_full_key` and ``runtime`` takes the knobs of
    :func:`run_campaign`; results are bit-identical at any worker
    count because all block streams are keyed on global indices.
    """
    return run_campaign(
        ShardSource.physical_columns(
            generator, sensor, num_traces, seed, mask, preprocess,
            target_bit,
        ),
        checkpoints,
        **runtime,
    )
