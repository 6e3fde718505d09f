"""Property tests: a campaign's result does not depend on how it ran.

The campaign oracle draws a trace count spanning two to four stream
blocks (never a multiple of the block, so the last block is partial),
a worker count, whether to checkpoint and injected faults on shards.
It runs the analytic ALU campaign through :func:`sharded_attack`, and
the physical pipeline with trigger jitter, alignment and resampling
through :func:`sharded_physical_attack`, under one fault, and asserts
each result is byte-equal to the undisturbed single-worker run on the
numpy kernels.  The full-key drivers (:func:`sharded_full_key` and
:func:`sharded_physical_full_key`, the latter with trigger jitter) run
under two faults in one run and are held to an independent reference:
the serial column collector plus the in-memory
:func:`recover_last_round_key`.  The drawn worker count moves the shard
split points over the block grid, and every recovery path of the
thread pool (retry, deadline, validation, checkpointing) has to
reproduce the reference exactly.  A checkpointed run is killed first,
by a drawn shard that fails every attempt, and then resumed from its
checkpoint at a worker count drawn independently of the killed run's:
the checkpoint records the merged trace prefix, so the resumed run
re-plans the rest at its own width.  Its last save covers the whole
campaign and holds the reference's correlation rows.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aes import AES128
from repro.attacks import recover_last_round_key
from repro.core import BenignSensor
from repro.core.attack import STREAM_BLOCK
from repro.core.tracegen import PhysicalTraceGenerator, campaign_plaintexts
from repro.experiments.checkpoint import load_checkpoint
from repro.experiments.parallel import (
    plan_shards,
    sharded_attack,
    sharded_full_key,
    sharded_physical_attack,
    sharded_physical_full_key,
)
from repro.preprocess.pipeline import resolve_preprocess
from repro.preprocess.spec import MisalignmentSpec, PreprocessSpec
from repro.util import kernels
from repro.util.executors import RetryPolicy, ShardError
from repro.util.faults import (
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_NAN,
    FAULT_TRUNCATE,
    FaultPlan,
    FaultSpec,
)
from repro.util.rng import derive_seed

#: Deterministic and small: every example runs a whole campaign.
ORACLE = settings(
    derandomize=True,
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def runs(draw, faults=1):
    """One way to run a campaign: sizes, pool, checkpoints and
    ``faults`` faults, each on a drawn shard."""
    blocks = draw(st.integers(min_value=2, max_value=4))
    traces = (blocks - 1) * STREAM_BLOCK + draw(
        st.integers(min_value=1, max_value=STREAM_BLOCK - 1)
    )
    workers = draw(st.integers(min_value=1, max_value=4))
    checkpointed = draw(st.booleans())
    shards = plan_shards(traces, workers)
    specs = []
    for _ in range(faults):
        site = shards[draw(st.integers(0, len(shards) - 1))].site
        kind = draw(
            st.sampled_from(
                [FAULT_EXCEPTION, FAULT_HANG, FAULT_NAN, FAULT_TRUNCATE]
            )
        )
        specs.append(FaultSpec(kind, site=site, hang_seconds=3.0))
    # The deadline sits well above a healthy shard's run time (at most
    # four blocks) and well below the hang.
    policy = RetryPolicy(
        max_attempts=3,
        backoff_base=0.0,
        timeout=1.0 if any(s.kind == FAULT_HANG for s in specs) else None,
    )
    run = {
        "traces": traces,
        "workers": workers,
        "checkpointed": checkpointed,
        "plan": FaultPlan(specs, seed=7),
        "policy": policy,
    }
    if checkpointed:
        # The killed run also loses a drawn shard on every attempt; the
        # resumed run draws its width independently of the killed one.
        killed = shards[draw(st.integers(0, len(shards) - 1))].site
        run["kill"] = FaultPlan(
            specs + [FaultSpec(FAULT_EXCEPTION, site=killed, attempts=10**6)],
            seed=7,
        )
        run["resume_workers"] = draw(st.integers(min_value=1, max_value=4))
    return run


def _run(driver, subject, run, checkpoint_dir, **kwargs):
    """``driver`` under the drawn run's pool and faults; a checkpointed
    run is killed at its drawn shard, then resumed at its drawn width."""

    def attempt(workers, plan, **checkpointing):
        return driver(
            *subject,
            run["traces"],
            max_workers=workers,
            policy=run["policy"],
            fault_plan=plan,
            **checkpointing,
            **kwargs,
        )

    if not run["checkpointed"]:
        return attempt(run["workers"], run["plan"])
    path = os.path.join(checkpoint_dir, "campaign.npz")
    with pytest.raises(ShardError):
        attempt(run["workers"], run["kill"], checkpoint_path=path)
    return attempt(
        run["resume_workers"], run["plan"], checkpoint_path=path,
        resume=True,
    )


def _assert_stored_prefix(checkpoint_dir, run, rows):
    """A checkpointed run's last save covers the whole campaign and
    holds the reference's correlation ``rows``: the resumed run
    recovers every drawn fault within the retry budget."""
    if not run["checkpointed"]:
        return
    stored = load_checkpoint(os.path.join(checkpoint_dir, "campaign.npz"))
    assert stored.merged_traces == run["traces"]
    assert stored.arrays["rows"].tobytes() == rows.tobytes()


def _reference(driver, subject, run, **kwargs):
    """The undisturbed single-worker run on the numpy kernels."""
    with kernels.use("numpy"):
        return driver(*subject, run["traces"], max_workers=1, **kwargs)


@pytest.fixture(scope="module")
def physical():
    """The bench's physical workload: ``jitter=uniform:2`` and
    ``align=correlation:4;resample=3/2`` on the default generator."""
    generator = PhysicalTraceGenerator(
        AES128(bytes(range(16))),
        misalignment=MisalignmentSpec.from_string("uniform:2"),
    )
    plan = resolve_preprocess(
        PreprocessSpec.from_string("align=correlation:4;resample=3/2"),
        generator,
        3,
        columns=(3,),
    )
    return (generator, BenignSensor.from_name("alu")), {
        "seed": 3, "preprocess": plan,
    }


def _physical_columns_serially(generator, sensor, num_traces, seed):
    """The physical full-key campaign's traces, block after block: each
    generated block read at every column's aligned last-round sample,
    on the ``(block, column)`` jitter stream."""
    plaintexts = campaign_plaintexts(num_traces, seed)
    samples = generator.last_round_sample_indices()
    leakage = np.empty((num_traces, 4))
    ciphertexts = np.empty((num_traces, 16), dtype=np.uint8)
    for start in range(0, num_traces, STREAM_BLOCK):
        end = min(start + STREAM_BLOCK, num_traces)
        data = generator.generate(
            plaintexts[start:end], seed=derive_seed(seed, "e2e-noise", start)
        )
        ciphertexts[start:end] = data["ciphertexts"]
        for column in range(4):
            leakage[start:end, column] = sensor.sample_weight(
                data["voltages"][:, int(samples[column])],
                seed=derive_seed(seed, "e2e-col-jitter", start, column, 0),
            )
    return leakage, ciphertexts


def _full_key_reference(leakage, ciphertexts, key):
    """The in-memory recovery over serial traces, and its correlations
    as full-key checkpoint rows (one entry per key byte)."""
    with kernels.use("numpy"):
        reference = recover_last_round_key(
            leakage, ciphertexts, correct_key=key
        )
    rows = np.stack(
        [byte.correlations for byte in reference.byte_results], axis=1
    )
    return reference, rows


def _assert_same_full_key(result, reference):
    """``result`` equals the in-memory recovery over serial traces."""
    assert result.recovered_last_round_key == (
        reference.recovered_last_round_key
    )
    for got, want in zip(result.byte_results, reference.byte_results):
        assert got.checkpoints.tobytes() == want.checkpoints.tobytes()
        assert got.correlations.tobytes() == want.correlations.tobytes()
        assert got.correct_key == want.correct_key


def _assert_same_cpa(result, reference):
    assert result.checkpoints.tobytes() == reference.checkpoints.tobytes()
    assert result.correlations.tobytes() == reference.correlations.tobytes()
    assert result.correct_key == reference.correct_key


@pytest.mark.timeout(600)
class TestCampaignOracle:
    @ORACLE
    @given(run=runs())
    def test_sharded_attack_matches_the_serial_numpy_reference(
        self, alu_campaign, run
    ):
        subject = (alu_campaign,)
        reference = _reference(sharded_attack, subject, run)
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(sharded_attack, subject, run, checkpoint_dir)
            _assert_stored_prefix(
                checkpoint_dir, run, reference.correlations
            )
        _assert_same_cpa(result, reference)

    @ORACLE
    @given(run=runs(faults=2))
    def test_sharded_full_key_matches_the_serial_numpy_reference(
        self, alu_campaign, run
    ):
        with kernels.use("numpy"):
            data = alu_campaign.collect_column_traces(run["traces"])
        reference, rows = _full_key_reference(
            data["leakage"], data["ciphertexts"],
            alu_campaign.cipher.last_round_key,
        )
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(
                sharded_full_key, (alu_campaign,), run, checkpoint_dir
            )
            _assert_stored_prefix(checkpoint_dir, run, rows)
        _assert_same_full_key(result, reference)

    @settings(ORACLE, max_examples=3)
    @given(run=runs(faults=2))
    def test_sharded_physical_full_key_matches_the_serial_numpy_reference(
        self, physical, run
    ):
        (generator, sensor), kwargs = physical
        with kernels.use("numpy"):
            leakage, ciphertexts = _physical_columns_serially(
                generator, sensor, run["traces"], kwargs["seed"]
            )
        reference, rows = _full_key_reference(
            leakage, ciphertexts, generator.cipher.last_round_key
        )
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(
                sharded_physical_full_key, (generator, sensor), run,
                checkpoint_dir, seed=kwargs["seed"],
            )
            _assert_stored_prefix(checkpoint_dir, run, rows)
        _assert_same_full_key(result, reference)

    @settings(ORACLE, max_examples=3)
    @given(run=runs())
    def test_sharded_physical_attack_matches_the_serial_numpy_reference(
        self, physical, run
    ):
        subject, kwargs = physical
        reference = _reference(sharded_physical_attack, subject, run, **kwargs)
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(
                sharded_physical_attack, subject, run, checkpoint_dir,
                **kwargs,
            )
            _assert_stored_prefix(
                checkpoint_dir, run, reference.correlations
            )
        _assert_same_cpa(result, reference)
