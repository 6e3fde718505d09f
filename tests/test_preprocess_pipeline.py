"""End-to-end tests for acquisition realism + preprocessing.

The contracts under test, in increasing scope:

* misaligned acquisition is deterministic (same spec + seed → same
  traces) and strictly opt-in (a disabled spec is bit-identical to no
  spec at all);
* :func:`resolve_preprocess` is a pure function of
  ``(spec, generator, seed)`` and its plan is picklable — the
  precondition for every worker deriving the identical plan;
* the preprocessed physical campaign is bit-identical at any worker
  count and across the fleet shard/merge path (satellite: 1 vs 4
  workers vs fleet(2));
* at a fixed misalignment severity the raw campaign fails and the
  correlation-aligned one recovers the key (the CI smoke contract).
"""

import asyncio
import pickle

import numpy as np
import pytest

from repro.aes import AES128
from repro.core.endpoint_sensor import BenignSensor
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.experiments.parallel import (
    sharded_physical_attack,
    sharded_physical_full_key,
)
from repro.preprocess import (
    MisalignmentSpec,
    PreprocessError,
    PreprocessSpec,
    resolve_preprocess,
)

KEY = bytes(range(16))
JITTER = MisalignmentSpec(shift_mode="uniform", shift_samples=2)
ALIGN = PreprocessSpec(align="correlation", max_shift=4)


@pytest.fixture(scope="module")
def sensor():
    return BenignSensor.from_name("alu")


def _generator(misalignment=None, **kwargs):
    return PhysicalTraceGenerator(
        AES128(KEY), misalignment=misalignment, **kwargs
    )


class TestAcquisitionRealism:
    def test_misaligned_generation_is_deterministic(self):
        pts = random_plaintexts(64, seed=3)
        a = _generator(JITTER).generate(pts, seed=9)
        b = _generator(JITTER).generate(pts, seed=9)
        assert np.array_equal(a["voltages"], b["voltages"])
        assert np.array_equal(a["ciphertexts"], b["ciphertexts"])

    def test_disabled_spec_is_bit_identical_to_no_spec(self):
        pts = random_plaintexts(64, seed=3)
        plain = _generator().generate(pts, seed=9)
        disabled = _generator(MisalignmentSpec()).generate(pts, seed=9)
        assert np.array_equal(plain["voltages"], disabled["voltages"])

    def test_jitter_actually_moves_samples(self):
        pts = random_plaintexts(64, seed=3)
        plain = _generator().generate(pts, seed=9)
        jittered = _generator(JITTER).generate(pts, seed=9)
        assert not np.array_equal(plain["voltages"], jittered["voltages"])
        # Ciphertexts are acquisition-independent.
        assert np.array_equal(
            plain["ciphertexts"], jittered["ciphertexts"]
        )

    def test_explicit_spec_matches_constructed_generator(self):
        """``apply_misalignment(..., spec=...)`` after the fact equals a
        generator built with the spec — the identity the service's
        tracegen coalescing relies on."""
        pts = random_plaintexts(64, seed=3)
        built_in = _generator(JITTER).generate(pts, seed=9)
        plain_gen = _generator()
        data = plain_gen.generate(pts, seed=9)
        voltages = plain_gen.apply_misalignment(
            data["voltages"], 9, spec=JITTER
        )
        assert np.array_equal(built_in["voltages"], voltages)

    def test_drift_and_glitch_streams_are_seed_separated(self):
        spec = MisalignmentSpec(
            shift_mode="uniform",
            shift_samples=1,
            drift=0.01,
            glitch_rate=0.02,
        )
        pts = random_plaintexts(64, seed=3)
        a = _generator(spec).generate(pts, seed=9)
        b = _generator(spec).generate(pts, seed=10)
        assert not np.array_equal(a["voltages"], b["voltages"])


class TestCheckpointIdentity:
    def test_resume_refuses_a_spec_that_differs_below_g_precision(
        self, sensor, tmp_path
    ):
        # The manifest names the campaign's jitter by its canonical
        # string; two drifts that %g printed alike once shared it.
        from repro.experiments.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.npz")
        kwargs = dict(seed=5, checkpoint_path=path)
        first = MisalignmentSpec("gaussian", 1.5, drift=0.02)
        second = MisalignmentSpec("gaussian", 1.5, drift=0.020000049)
        sharded_physical_attack(
            _generator(first), sensor, 2000, **kwargs
        )
        with pytest.raises(CheckpointError):
            sharded_physical_attack(
                _generator(second), sensor, 2000, resume=True, **kwargs
            )


class TestResolvePreprocess:
    def test_none_and_disabled_stay_none(self):
        generator = _generator()
        assert resolve_preprocess(None, generator, 1) is None
        assert resolve_preprocess(
            PreprocessSpec(), generator, 1
        ) is None

    def test_resolution_is_deterministic_and_picklable(self):
        generator = _generator(JITTER)
        spec = PreprocessSpec.from_string(
            "align=correlation:4;poi=sost:3@256"
        )
        a = resolve_preprocess(spec, generator, 7, columns=(0, 3))
        b = resolve_preprocess(spec, generator, 7, columns=(0, 3))
        assert np.array_equal(a.reference, b.reference)
        for column in (0, 3):
            assert np.array_equal(
                a.samples_for_column(column),
                b.samples_for_column(column),
            )
        clone = pickle.loads(pickle.dumps(a))
        assert np.array_equal(clone.reference, a.reference)

    def test_unresolved_column_is_an_error(self):
        generator = _generator()
        plan = resolve_preprocess(ALIGN, generator, 1, columns=(3,))
        with pytest.raises(PreprocessError, match="column 1"):
            plan.samples_for_column(1)

    def test_window_must_fit_the_generator(self):
        generator = _generator()  # 72 samples
        with pytest.raises(PreprocessError, match="window"):
            resolve_preprocess(
                PreprocessSpec(window=(0, 100)), generator, 1
            )

    def test_max_shift_must_fit_the_window(self):
        generator = _generator()
        with pytest.raises(PreprocessError, match="max_shift"):
            resolve_preprocess(
                PreprocessSpec(align="correlation", max_shift=72),
                generator,
                1,
            )

    def test_apply_rejects_wrong_geometry(self):
        generator = _generator()
        plan = resolve_preprocess(ALIGN, generator, 1, columns=(3,))
        with pytest.raises(PreprocessError, match="trace batch"):
            plan.apply(np.zeros((4, 16)))


class TestWorkerCountBitIdentity:
    """Satellite: 1 vs 4 workers (and the fleet path, below) must be
    bit-identical with jitter + alignment enabled."""

    def test_attack_identical_at_1_and_4_workers(self, sensor):
        generator = _generator(JITTER)
        plan = resolve_preprocess(ALIGN, generator, 5, columns=(3,))
        results = [
            sharded_physical_attack(
                generator,
                sensor,
                6_000,
                max_workers=workers,
                seed=5,
                preprocess=plan,
            )
            for workers in (1, 4)
        ]
        assert np.array_equal(
            results[0].correlations, results[1].correlations
        )
        assert np.array_equal(
            results[0].checkpoints, results[1].checkpoints
        )

    def test_full_key_identical_at_1_and_2_workers(self, sensor):
        generator = _generator(JITTER)
        plan = resolve_preprocess(
            ALIGN, generator, 5, columns=tuple(range(4))
        )
        results = [
            sharded_physical_full_key(
                generator,
                sensor,
                3_000,
                max_workers=workers,
                seed=5,
                preprocess=plan,
            )
            for workers in (1, 2)
        ]
        assert (
            results[0].recovered_last_round_key
            == results[1].recovered_last_round_key
        )
        for mine, theirs in zip(
            results[0].byte_results, results[1].byte_results
        ):
            assert np.array_equal(mine.correlations, theirs.correlations)


class TestServiceShardPath:
    """The fleet shard/merge route must equal the single-host driver
    for jitter + preprocess jobs (satellite: fleet(2) identity)."""

    PARAMS = {
        "traces": 100_000,
        "seed": 5,
        "jitter": "uniform:2",
        "preprocess": "align=correlation:4",
    }

    def test_fleet_of_two_workers_is_bit_identical(self):
        from tests.test_service_fleet import (
            _run_job,
            _start_service,
            _start_workers,
            _teardown,
        )
        from repro.service.codec import from_payload
        from repro.service.jobs import JobSpec
        from repro.service.runners import run_attack

        spec = JobSpec.create(
            "attack", dict(self.PARAMS, fleet=True)
        )
        baseline = run_attack(dict(spec.params, fleet=False))

        async def run():
            scheduler, server, host, port = await _start_service()
            workers, tasks = await _start_workers(
                host, port, scheduler, 2
            )
            try:
                state = await _run_job(scheduler, spec)
                assert state.status == "done", state.error
                return from_payload(state.result)
            finally:
                await _teardown(workers, tasks, server)

        result = asyncio.run(run())
        assert np.array_equal(
            result.correlations, baseline.correlations
        )


class TestAlignmentRecoversTheKey:
    """The CI smoke contract: at a fixed severity the raw campaign
    fails and the correlation-aligned one recovers the key byte.

    Stated as rates over ten seeds: at 40k traces the aligned attack
    sits at its disclosure threshold, so a single seed's verdict there
    is one draw of the noise, not a property of alignment."""

    SEEDS = range(10)

    def test_aligned_recovers_where_raw_fails(self, sensor):
        # Tail margin so trigger shifts displace content instead of
        # clipping it at the trace edge (the realistic setting; the
        # default 72-sample geometry puts the last round at the edge).
        jitter = MisalignmentSpec(
            shift_mode="uniform", shift_samples=2
        )
        generator = _generator(
            jitter, start_sample=12, num_samples=88
        )
        # Seeds on which each attack ranks the key first, at 40k / 80k.
        raw = np.zeros(2, dtype=int)
        aligned = np.zeros(2, dtype=int)
        for seed in self.SEEDS:
            plan = resolve_preprocess(ALIGN, generator, seed, columns=(3,))
            for counts, preprocess in ((raw, None), (aligned, plan)):
                result = sharded_physical_attack(
                    generator,
                    sensor,
                    80_000,
                    seed=seed,
                    preprocess=preprocess,
                    checkpoints=(40_000, 80_000),
                )
                counts += result.key_ranks() == 0
        verdict = "recovered on %s (raw) vs %s (aligned) of %d seeds" % (
            raw.tolist(), aligned.tolist(), len(self.SEEDS)
        )
        assert aligned[0] > raw[0], verdict
        assert aligned[1] == len(self.SEEDS), verdict
        assert raw[1] < len(self.SEEDS) / 2, verdict
