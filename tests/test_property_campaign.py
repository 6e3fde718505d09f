"""Property tests: a campaign's result does not depend on how it ran.

The campaign oracle draws a trace count, a chunk size, a worker count,
a checkpoint grouping and one injected fault on one shard, runs the
analytic ALU campaign through :func:`sharded_attack` and
:func:`sharded_full_key`, and asserts the result is byte-equal to the
undisturbed single-worker run on the numpy kernels.  Every recovery
path of the thread pool (retry, deadline, validation, checkpointing)
therefore has to reproduce the reference exactly.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import (
    plan_shards,
    sharded_attack,
    sharded_full_key,
)
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
    traces = draw(st.integers(min_value=1500, max_value=4000))
    chunk = draw(st.sampled_from([500, 700, 1000]))
    workers = draw(st.integers(min_value=1, max_value=3))
    every = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
    shards = plan_shards(traces, workers, chunk)
    site = shards[draw(st.integers(0, len(shards) - 1))].site
    kind = draw(
        st.sampled_from([FAULT_EXCEPTION, FAULT_HANG, FAULT_NAN, FAULT_TRUNCATE])
    )
    fault = FaultSpec(kind, site=site, hang_seconds=0.3)
    policy = RetryPolicy(
        max_attempts=3,
        backoff_base=0.0,
        timeout=0.1 if kind == FAULT_HANG else None,
    )
    return {
        "traces": traces,
        "chunk": chunk,
        "workers": workers,
        "every": every,
        "plan": FaultPlan([fault], seed=7),
        "policy": policy,
    }


def _run(driver, campaign, run, checkpoint_dir):
    """``driver`` under the drawn run's pool, checkpoints and fault."""
    return driver(
        campaign,
        run["traces"],
        max_workers=run["workers"],
        chunk_size=run["chunk"],
        policy=run["policy"],
        fault_plan=run["plan"],
        checkpoint_path=None
        if run["every"] is None
        else os.path.join(checkpoint_dir, "campaign.npz"),
        checkpoint_every=run["every"],
    )


def _reference(driver, campaign, run):
    """The undisturbed single-worker run on the numpy kernels."""
    with kernels.use("numpy"):
        return driver(
            campaign, run["traces"], max_workers=1, chunk_size=run["chunk"]
        )


@pytest.mark.timeout(600)
class TestCampaignOracle:
    @ORACLE
    @given(run=runs())
    def test_sharded_attack_matches_the_serial_numpy_reference(
        self, alu_campaign, run
    ):
        reference = _reference(sharded_attack, alu_campaign, run)
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(sharded_attack, alu_campaign, run, checkpoint_dir)
        assert result.checkpoints.tobytes() == reference.checkpoints.tobytes()
        assert (
            result.correlations.tobytes() == reference.correlations.tobytes()
        )
        assert result.correct_key == reference.correct_key

    @ORACLE
    @given(run=runs())
    def test_sharded_full_key_matches_the_serial_numpy_reference(
        self, alu_campaign, run
    ):
        reference = _reference(sharded_full_key, alu_campaign, run)
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = _run(sharded_full_key, alu_campaign, run, checkpoint_dir)
        assert (
            result.recovered_last_round_key
            == reference.recovered_last_round_key
        )
        for got, want in zip(result.byte_results, reference.byte_results):
            assert got.correlations.tobytes() == want.correlations.tobytes()
