"""Crash-safe campaign checkpoints.

A multi-hour campaign must survive its driver dying — OOM, preemption,
a Ctrl-C, a SIGKILLed server — without losing hours of trace
generation.  The campaign loop
(:func:`repro.experiments.parallel.run_campaign`) serializes its
durable state through this module after every merged shard, on the
local pool and on the fleet alike:

* a :class:`CampaignManifest` — everything that determines the
  campaign's output (kind, seeds and parameters, the checkpoint grid),
  fingerprinted by a SHA-256 ``config_hash`` so a resume against a
  *different* configuration is rejected instead of silently producing
  garbage;
* a :class:`CampaignCheckpoint` — the manifest plus the number of
  traces merged so far (a prefix of the campaign: shards merge in trace
  order; no shard plan, so the rest is re-planned on resume at any
  width, on either route) and the merged numeric state (the running
  int64 :class:`~repro.attacks.cpa.StreamingCPA` state and the emitted
  correlation rows).

Files are written atomically — serialized to a temporary file in the
destination directory, fsynced, then ``os.replace``d over the target —
so a crash mid-write can never leave a truncated checkpoint behind;
the previous durable state simply survives.  Because every stream
block's randomness is keyed on global trace indices and the int64
state merges exactly, a campaign resumed from any checkpoint
reproduces the uninterrupted result bit for bit.

The serialized payload is a single ``.npz``: reserved double-
underscore keys carry the manifest and progress counter, every other
key is a caller-owned numpy array (``np.savez`` round-trips arrays
exactly, which is what makes resume bit-identical).
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
#: state was drawn from, changes incompatibly.  Version 2 keyed every
#: stream on the 4,096-trace stream block instead of the 50k chunk grid;
#: version 3 stores the int64 per-value CPA state (and full-key
#: campaigns store it instead of a leakage prefix), so an older
#: checkpoint must not resume; version 4 records the merged trace
#: prefix instead of a shard count and drops the shard plan from the
#: manifest, so a campaign resumes at any width and on either route.
#: The version is part of :attr:`CampaignManifest.config_hash`, hence
#: of every service cache key.
CHECKPOINT_VERSION = 4

#: Reserved keys inside the ``.npz`` payload.
_KEY_MANIFEST = "__manifest__"
_KEY_MERGED = "__merged_traces__"
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
            ``"fullkey"``, ``"report"``, or ``"service-KIND"`` for a
            job run through :mod:`repro.service.runners`).
        params: JSON-serializable campaign parameters (seeds, trace
            budget, targets, ...).
        checkpoints: the correlation-evaluation grid.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)
    checkpoints: Tuple[int, ...] = ()

    def to_json(self) -> str:
        """Canonical JSON form (stable key order → stable hash)."""
        return json.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "kind": self.kind,
                "params": self.params,
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
        merged_traces: traces merged into ``arrays`` — always a prefix
            ``[0, merged_traces)`` of the campaign, because shards merge
            in trace order.
        arrays: driver-owned numeric state (the running CPA state and
            the emitted correlation rows).
    """

    manifest: CampaignManifest
    merged_traces: int
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
        _KEY_MERGED: np.int64(checkpoint.merged_traces),
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
            merged = int(data[_KEY_MERGED])
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
    # The grid always ends at the campaign's trace count.
    total = manifest.checkpoints[-1] if manifest.checkpoints else 0
    if not 0 <= merged <= total:
        raise CheckpointError(
            path,
            "merged trace count %d outside the %d-trace campaign"
            % (merged, total),
        )
    return CampaignCheckpoint(
        manifest=manifest, merged_traces=merged, arrays=arrays
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
            if stored.checkpoints != expected.checkpoints:
                detail = "checkpoint grid differs"
    raise CheckpointError(
        path,
        "%s — refusing to resume a different campaign" % detail,
    )


def split_rows(rows_array: np.ndarray) -> List[np.ndarray]:
    """Checkpoint rows array back into the driver's list-of-rows form."""
    return [np.array(row, copy=True) for row in rows_array]
