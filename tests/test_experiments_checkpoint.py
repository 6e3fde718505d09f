"""Tests for crash-safe campaign checkpoints."""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.experiments.checkpoint import (
    CampaignCheckpoint,
    CampaignManifest,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    split_rows,
    verify_manifest,
)
from repro.util.fileio import atomic_write


def make_manifest(**overrides):
    fields = dict(
        kind="attack",
        params={"seed": 1, "num_traces": 4000},
        checkpoints=(1000, 2000, 4000),
    )
    fields.update(overrides)
    return CampaignManifest(**fields)


class TestAtomicWrite:
    def test_writes_full_content(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write(path, lambda handle: handle.write(b"payload"))
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"

    def test_failure_leaves_previous_content(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write(path, lambda handle: handle.write(b"good"))

        def explode(handle):
            handle.write(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            atomic_write(path, explode)
        with open(path, "rb") as handle:
            assert handle.read() == b"good"
        assert [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ] == []


class TestManifest:
    def test_json_roundtrip(self):
        manifest = make_manifest()
        back = CampaignManifest.from_json(manifest.to_json())
        assert back == manifest
        assert back.config_hash == manifest.config_hash

    def test_hash_sensitive_to_every_field(self):
        base = make_manifest()
        assert (
            make_manifest(kind="physical").config_hash != base.config_hash
        )
        assert (
            make_manifest(
                params={"seed": 2, "num_traces": 4000}
            ).config_hash
            != base.config_hash
        )
        assert (
            make_manifest(checkpoints=(4000,)).config_hash
            != base.config_hash
        )

    def test_hash_independent_of_param_insertion_order(self):
        a = CampaignManifest("attack", {"x": 1, "y": 2})
        b = CampaignManifest("attack", {"y": 2, "x": 1})
        assert a.config_hash == b.config_hash


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "c.npz")
        checkpoint = CampaignCheckpoint(
            manifest=make_manifest(),
            merged_traces=2000,
            arrays={
                "rows": np.arange(12.0).reshape(3, 4),
                "engine_count": np.int64(2000),
            },
        )
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.manifest == checkpoint.manifest
        assert loaded.merged_traces == 2000
        assert np.array_equal(
            loaded.arrays["rows"], checkpoint.arrays["rows"]
        )
        assert int(loaded.arrays["engine_count"]) == 2000

    def test_float64_payload_bit_exact(self, tmp_path):
        path = str(tmp_path / "c.npz")
        rng = np.random.default_rng(0)
        sums = rng.normal(size=256) * 1e9
        save_checkpoint(
            path,
            CampaignCheckpoint(make_manifest(), 1, {"sum_h": sums}),
        )
        assert np.array_equal(load_checkpoint(path).arrays["sum_h"], sums)

    def test_reserved_array_keys_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            CampaignCheckpoint(
                make_manifest(), 0, {"__manifest__": np.zeros(1)}
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such file"):
            load_checkpoint(str(tmp_path / "absent.npz"))

    def test_corrupt_file(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable or corrupt"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_checkpoint(
            path, CampaignCheckpoint(make_manifest(), 1, {})
        )
        with open(path, "rb") as handle:
            payload = handle.read()
        truncated = str(tmp_path / "t.npz")
        with open(truncated, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(truncated)

    def test_valid_npz_that_is_no_checkpoint(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_out_of_range_completed_count(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_checkpoint(
            path, CampaignCheckpoint(make_manifest(), 3, {})
        )
        # Corrupt the counter beyond the campaign's traces.
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["__merged_traces__"] = np.int64(7000)
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="outside"):
            load_checkpoint(path)

    def test_save_is_atomic_over_existing(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_checkpoint(
            path, CampaignCheckpoint(make_manifest(), 1000, {})
        )
        save_checkpoint(
            path, CampaignCheckpoint(make_manifest(), 2000, {})
        )
        assert load_checkpoint(path).merged_traces == 2000
        assert [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ] == []


class TestVerifyManifest:
    def test_match_passes(self):
        verify_manifest("p", make_manifest(), make_manifest())

    def test_mismatch_names_parameter(self):
        with pytest.raises(CheckpointError, match="'num_traces'"):
            verify_manifest(
                "p",
                make_manifest(),
                make_manifest(params={"seed": 1, "num_traces": 8000}),
            )

    def test_mismatch_names_kind(self):
        with pytest.raises(CheckpointError, match="kind"):
            verify_manifest(
                "p", make_manifest(), make_manifest(kind="fullkey")
            )

    def test_mismatch_names_checkpoint_grid(self):
        with pytest.raises(CheckpointError, match="checkpoint grid"):
            verify_manifest(
                "p",
                make_manifest(),
                make_manifest(checkpoints=(2000, 4000)),
            )


class TestRowAccounting:
    def test_split_rows_roundtrip(self):
        stacked = np.arange(12.0).reshape(3, 4)
        rows = split_rows(stacked)
        assert len(rows) == 3
        assert np.array_equal(np.vstack(rows), stacked)
        rows[0][0] = -1.0
        assert stacked[0, 0] == 0.0, "rows must be independent copies"
