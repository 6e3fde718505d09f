"""Property tests: a campaign's result does not depend on how it ran.

The campaign oracle draws a trace count spanning two to four stream
blocks (never a multiple of the block, so the last block is partial),
a worker count, a checkpoint grouping and one injected fault on one
shard.  It runs the analytic ALU campaign through
:func:`sharded_attack` and :func:`sharded_full_key`, and the physical
pipeline with trigger jitter, alignment and resampling through
:func:`sharded_physical_attack`, and asserts each result is byte-equal
to the undisturbed single-worker run on the numpy kernels.  The drawn
worker count moves the shard split points over the block grid, and
every recovery path of the thread pool (retry, deadline, validation,
checkpointing) has to reproduce the reference exactly.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aes import AES128
from repro.core import BenignSensor
from repro.core.attack import STREAM_BLOCK
from repro.core.tracegen import PhysicalTraceGenerator
from repro.experiments.parallel import (
    plan_shards,
    sharded_attack,
    sharded_full_key,
    sharded_physical_attack,
)
from repro.preprocess.pipeline import resolve_preprocess
from repro.preprocess.spec import MisalignmentSpec, PreprocessSpec
from repro.util import kernels
from repro.util.executors import RetryPolicy
from repro.util.faults import (
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_NAN,
    FAULT_TRUNCATE,
    FaultPlan,
    FaultSpec,
)

#: Deterministic and small: every example runs a whole campaign.
ORACLE = settings(
    derandomize=True,
    deadline=None,
    max_examples=6,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def runs(draw):
    """One way to run a campaign: sizes, pool, checkpoints and a fault."""
    blocks = draw(st.integers(min_value=2, max_value=4))
    traces = (blocks - 1) * STREAM_BLOCK + draw(
        st.integers(min_value=1, max_value=STREAM_BLOCK - 1)
    )
    workers = draw(st.integers(min_value=1, max_value=4))
    every = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
    shards = plan_shards(traces, workers)
    site = shards[draw(st.integers(0, len(shards) - 1))].site
    kind = draw(
        st.sampled_from([FAULT_EXCEPTION, FAULT_HANG, FAULT_NAN, FAULT_TRUNCATE])
    )
    # The deadline sits well above a healthy shard's run time (at most
    # four blocks) and well below the hang.
    fault = FaultSpec(kind, site=site, hang_seconds=3.0)
    policy = RetryPolicy(
        max_attempts=3,
        backoff_base=0.0,
        timeout=1.0 if kind == FAULT_HANG else None,
    )
    return {
        "traces": traces,
        "workers": workers,
        "every": every,
        "plan": FaultPlan([fault], seed=7),
        "policy": policy,
    }


def _run(driver, subject, run, checkpoint_dir, **kwargs):
    """``driver`` under the drawn run's pool, checkpoints and fault."""
    return driver(
        *subject,
        run["traces"],
        max_workers=run["workers"],
        policy=run["policy"],
        fault_plan=run["plan"],
        checkpoint_path=None
        if run["every"] is None
        else os.path.join(checkpoint_dir, "campaign.npz"),
        checkpoint_every=run["every"],
        **kwargs,
    )


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
        _assert_same_cpa(result, reference)

    @ORACLE
    @given(run=runs())
    def test_sharded_full_key_matches_the_serial_numpy_reference(
        self, alu_campaign, run
    ):
        subject = (alu_campaign,)
        reference = _reference(sharded_full_key, subject, run)
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(sharded_full_key, subject, run, checkpoint_dir)
        assert (
            result.recovered_last_round_key
            == reference.recovered_last_round_key
        )
        for got, want in zip(result.byte_results, reference.byte_results):
            assert got.correlations.tobytes() == want.correlations.tobytes()

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
        _assert_same_cpa(result, reference)
