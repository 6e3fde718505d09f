"""Seed-era regression: pre-acquisition-realism outputs are frozen.

The acquisition-realism layer rewired the physical trace path (noise →
misalignment tail, preprocess hooks in every campaign driver) with the
promise that every configuration *without* a misalignment/preprocess
spec stays bit-identical to the pre-change code.  The golden arrays in
``tests/golden/seed_era_pr10.npz`` were captured from the repository
at the commit immediately before that layer landed; this module
replays the same configurations against today's code and compares
bitwise; all of them are at most one 4,096-trace stream block long,
so keying the streams on that block left them untouched.  The service
cache keys are pinned too: a drifting key would silently orphan every
previously cached campaign result.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.aes.aes128 import AES128
from repro.core.tracegen import PhysicalTraceGenerator
from repro.experiments.parallel import (
    sharded_attack,
    sharded_physical_attack,
)
from repro.experiments.setup import ExperimentSetup
from repro.service.jobs import JobSpec
from repro.util.rng import make_rng

GOLDEN = Path(__file__).parent / "golden" / "seed_era_pr10.npz"

# Cache keys of the default job of every kind under checkpoint format 2
# (every random stream keyed on the 4,096-trace stream block).  They
# must never drift within a format: the journal replays completed jobs
# by key, and a changed key silently invalidates every cached result.
GOLDEN_CACHE_KEYS = {
    "tracegen": (
        "a13f7b96b90de4a06cc4fcce202140d8"
        "91d398619051794eadb7e5205996a0b4"
    ),
    "attack": (
        "e83117c8bd98349ba376cd08088dbad8"
        "92ecf25e129aafc4d9f7993c0bb04dd3"
    ),
    "fullkey": (
        "ff2a82a26e8b3c7c0a00b9754138e439"
        "563233fbbc7bcfb723a7c4c43caf1e68"
    ),
    "report": (
        "5905b7bb45463db5c79bcb01a7f61ab3"
        "3e8c2f8355eca72e1198e8a143d66b43"
    ),
}

# The same jobs' keys under format 1 (the 50k chunk grid), captured
# from the seed era.  Results cached under them were drawn from other
# streams and must never be served again.
FORMAT_1_CACHE_KEYS = {
    "tracegen": (
        "215df9a6757bab6b9ef89b2940ff809a"
        "8a309d3992480129c2cad57db3235d42"
    ),
    "attack": (
        "7a74aae8aea0d6601860daf4661a0213"
        "fb220abd5f0ba77142e913a3b830e32a"
    ),
    "fullkey": (
        "f37b002034ce46d88fb933c05ed5e9e5"
        "85c51eb9f5823b48646a2387c669bfd4"
    ),
    "report": (
        "9110d33b15b453b6d79579a9fee345bf"
        "f2aaccd9d0c9a45ea654d21f0b03a36f"
    ),
}


@pytest.fixture(scope="module")
def golden():
    return np.load(GOLDEN)


class TestSeedEraBitIdentity:
    def test_physical_trace_generation_unchanged(self, golden):
        generator = PhysicalTraceGenerator(AES128(bytes(range(16))))
        pts = make_rng(1234, "golden-pt").integers(
            0, 256, size=(16, 16), dtype=np.uint8
        )
        data = generator.generate(pts, seed=777)
        assert np.array_equal(data["voltages"], golden["voltages"])
        assert np.array_equal(
            data["ciphertexts"], golden["ciphertexts"]
        )

    def test_analytical_campaign_unchanged(self, golden):
        setup = ExperimentSetup()
        campaign = setup.campaign("alu")
        result = sharded_attack(
            campaign,
            num_traces=4000,
            checkpoints=[4000],
            max_workers=2,
        )
        assert np.array_equal(
            result.correlations, golden["analytical_corr"]
        )

    def test_physical_campaign_unchanged(self, golden):
        generator = PhysicalTraceGenerator(AES128(bytes(range(16))))
        sensor = ExperimentSetup().sensor("alu")
        result = sharded_physical_attack(
            generator,
            sensor,
            num_traces=1500,
            mask=None,
            checkpoints=[1500],
            max_workers=2,
            seed=4242,
        )
        assert np.array_equal(
            result.correlations, golden["physical_corr"]
        )


class TestSeedEraCacheKeys:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_CACHE_KEYS))
    def test_default_job_cache_key_unchanged(self, kind):
        assert (
            JobSpec.create(kind, {}).cache_key
            == GOLDEN_CACHE_KEYS[kind]
        )

    @pytest.mark.parametrize("kind", sorted(FORMAT_1_CACHE_KEYS))
    def test_format_1_cache_key_retired(self, kind):
        assert JobSpec.create(kind, {}).cache_key != (
            FORMAT_1_CACHE_KEYS[kind]
        )

    @pytest.mark.parametrize("kind", ["attack", "fullkey", "report"])
    def test_disabled_specs_share_the_default_key(self, kind):
        """``jitter=none`` / ``preprocess=none`` canonicalize to the
        unset params, so they hit the same cache entry."""
        spec = JobSpec.create(
            kind, {"jitter": "none", "preprocess": "none"}
        )
        assert spec.cache_key == GOLDEN_CACHE_KEYS[kind]

    def test_enabled_specs_change_the_key(self):
        spec = JobSpec.create("attack", {"jitter": "uniform:2"})
        assert spec.cache_key != GOLDEN_CACHE_KEYS["attack"]
