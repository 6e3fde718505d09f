"""Crash-safe campaign checkpoints.

A multi-hour sharded campaign must survive the driver process dying —
OOM, preemption, a Ctrl-C — without losing hours of trace generation.
The campaign drivers in :mod:`repro.experiments.parallel` periodically
serialize their durable state through this module:

* a :class:`CampaignManifest` — everything that determines the
  campaign's output (kind, seeds and parameters, the shard plan, the
  checkpoint grid), fingerprinted by a SHA-256 ``config_hash`` so a
  resume against a *different* configuration is rejected instead of
  silently producing garbage;
* a :class:`CampaignCheckpoint` — the manifest plus the number of
  completed shards and the driver's merged numeric state (running
  :class:`~repro.attacks.cpa.StreamingCPA` sums, emitted correlation
  rows, collected leakage prefixes).

Files are written atomically — serialized to a temporary file in the
destination directory, fsynced, then ``os.replace``d over the target —
so a crash mid-write can never leave a truncated checkpoint behind;
the previous durable state simply survives.  Because shard merges are
order-independent and every stream block's randomness is keyed on
global trace indices, a campaign resumed from any checkpoint
reproduces the uninterrupted result bit for bit.

The serialized payload is a single ``.npz``: reserved double-
underscore keys carry the manifest and progress counter, every other
key is a caller-owned numpy array (``np.savez`` round-trips float64
payloads exactly, which is what makes resume bit-identical).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.util.errors import ReproError
from repro.util.fileio import atomic_write

__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignCheckpoint",
    "CampaignManifest",
    "CheckpointError",
    "atomic_write",
    "load_checkpoint",
    "save_checkpoint",
]

#: Bumped whenever the on-disk layout, or the random streams a stored
#: state was drawn from, changes incompatibly.  Version 2 keys every
#: stream on the 4,096-trace stream block instead of the 50k chunk grid,
#: so a version-1 checkpoint must not resume.  The version is part of
#: :attr:`CampaignManifest.config_hash`, hence of every service cache
#: key.
CHECKPOINT_VERSION = 2

#: Reserved keys inside the ``.npz`` payload.
_KEY_MANIFEST = "__manifest__"
_KEY_COMPLETED = "__completed_shards__"
_KEY_VERSION = "__version__"


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, corrupt, or mismatched."""

    def __init__(self, path: str, reason: str):
        super().__init__("checkpoint %s: %s" % (path, reason))
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class CampaignManifest:
    """Everything that determines a campaign's output.

    Attributes:
        kind: campaign flavor (``"attack"``, ``"physical"``,
            ``"fullkey"``, ``"report"``).
        params: JSON-serializable campaign parameters (seeds, trace
            budget, targets, ...).
        shard_plan: the ``(start, end)`` trace range of every shard,
            in execution order.
        checkpoints: the correlation-evaluation grid.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    shard_plan: Tuple[Tuple[int, int], ...] = ()
    checkpoints: Tuple[int, ...] = ()

    def to_json(self) -> str:
        """Canonical JSON form (stable key order → stable hash)."""
        return json.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "kind": self.kind,
                "params": self.params,
                "shard_plan": [list(pair) for pair in self.shard_plan],
                "checkpoints": list(self.checkpoints),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CampaignManifest":
        data = json.loads(payload)
        return cls(
            kind=data["kind"],
            params=data["params"],
            shard_plan=tuple(
                (int(a), int(b)) for a, b in data["shard_plan"]
            ),
            checkpoints=tuple(int(p) for p in data["checkpoints"]),
        )

    @property
    def config_hash(self) -> str:
        """SHA-256 fingerprint of the canonical manifest."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass
class CampaignCheckpoint:
    """One durable snapshot of campaign progress.

    Attributes:
        manifest: the campaign configuration fingerprint.
        completed_shards: shards fully merged into ``arrays`` — always
            a prefix of ``manifest.shard_plan``, because the drivers
            merge in trace order.
        arrays: driver-owned numeric state (running accumulator sums,
            emitted correlation rows, leakage prefixes...).
    """

    manifest: CampaignManifest
    completed_shards: int
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key in self.arrays:
            if key.startswith("__"):
                raise ValueError(
                    "array key %r collides with reserved checkpoint "
                    "keys" % key
                )


def save_checkpoint(path: str, checkpoint: CampaignCheckpoint) -> None:
    """Atomically persist a checkpoint (write-temp-then-rename)."""
    payload: Dict[str, np.ndarray] = {
        _KEY_MANIFEST: np.frombuffer(
            checkpoint.manifest.to_json().encode("utf-8"), dtype=np.uint8
        ),
        _KEY_COMPLETED: np.int64(checkpoint.completed_shards),
        _KEY_VERSION: np.int64(CHECKPOINT_VERSION),
    }
    payload.update(checkpoint.arrays)
    atomic_write(path, lambda handle: np.savez(handle, **payload))


def load_checkpoint(path: str) -> CampaignCheckpoint:
    """Read a checkpoint, raising :class:`CheckpointError` on damage."""
    if not os.path.exists(path):
        raise CheckpointError(path, "no such file")
    try:
        with np.load(path) as data:
            version = int(data[_KEY_VERSION])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    path,
                    "version %d not supported (expected %d)"
                    % (version, CHECKPOINT_VERSION),
                )
            manifest = CampaignManifest.from_json(
                bytes(data[_KEY_MANIFEST]).decode("utf-8")
            )
            completed = int(data[_KEY_COMPLETED])
            arrays = {
                key: data[key]
                for key in data.files
                if not key.startswith("__")
            }
    except CheckpointError:
        raise
    except (
        zipfile.BadZipFile,
        KeyError,
        ValueError,
        EOFError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        raise CheckpointError(
            path, "unreadable or corrupt (%s)" % exc
        ) from exc
    if not 0 <= completed <= len(manifest.shard_plan):
        raise CheckpointError(
            path,
            "completed shard count %d outside the %d-shard plan"
            % (completed, len(manifest.shard_plan)),
        )
    return CampaignCheckpoint(
        manifest=manifest, completed_shards=completed, arrays=arrays
    )


def verify_manifest(
    path: str,
    stored: CampaignManifest,
    expected: CampaignManifest,
) -> None:
    """Reject a resume whose configuration differs from the checkpoint.

    Compares the SHA-256 config hashes and names the first differing
    field in the error to make the mismatch actionable.
    """
    if stored.config_hash == expected.config_hash:
        return
    detail = "configuration hash mismatch"
    if stored.kind != expected.kind:
        detail = "campaign kind %r != %r" % (stored.kind, expected.kind)
    else:
        for key in sorted(set(stored.params) | set(expected.params)):
            if stored.params.get(key) != expected.params.get(key):
                detail = "parameter %r: checkpoint has %r, run has %r" % (
                    key,
                    stored.params.get(key),
                    expected.params.get(key),
                )
                break
        else:
            if stored.shard_plan != expected.shard_plan:
                detail = "shard plan differs (%d vs %d shards)" % (
                    len(stored.shard_plan),
                    len(expected.shard_plan),
                )
            elif stored.checkpoints != expected.checkpoints:
                detail = "checkpoint grid differs"
    raise CheckpointError(
        path,
        "%s — refusing to resume a different campaign" % detail,
    )


def split_rows(rows_array: np.ndarray) -> List[np.ndarray]:
    """Checkpoint rows array back into the driver's list-of-rows form."""
    return [np.array(row, copy=True) for row in rows_array]
