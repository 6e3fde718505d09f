"""Keyed cache for gate-level sensor calibrations.

Calibrating one placed benign circuit means running the event-driven
simulator's one event loop over the full reset→measure transition
(:func:`repro.timing.event_sim.endpoint_waveforms`) — hundredths of a
second for the ALU, seconds per C6288 instance.  A cached calibration
is the bytes that loop produced; ``tests/test_core_calibration.py``
pins them for both paper sensors, so a change to the loop that moves
them fails there before it could meet a stale on-disk entry.
Experiment drivers, benches and the CLI all rebuild the same few
sensors over and over; this module memoizes the resulting
:class:`~repro.core.calibration.SensorCalibration` so the gate-level
run happens once per (circuit, implementation, overclock).

The cache key is a digest over everything the calibration depends on:

* a cache format version,
* caller context (circuit spec name, implementation seed),
* the sampling period (i.e. the overclock),
* both stimulus assignments and the endpoint list,
* the delay model parameters, and
* the exact per-gate delay table of the annotation.

Hashing the delay table makes the key self-validating: any change to
the placement model, cell library or routing draw changes the digest,
so a stale entry can never be returned for a different implementation.

Two layers:

* **in-process**: an LRU of :data:`repro.util.memo.MEMO_ENTRIES`
  calibrations, always on; repeated sensor builds in one process
  (test session, figure sweep) share one calibration object,
  including its lazily built waveform bank, while a long-running
  service worker that meets a new implementation seed per job keeps
  only the recent few.
* **on-disk**: ``.npz`` files under ``$REPRO_CACHE_DIR``, only active
  when that variable is set (so ordinary runs never write outside the
  repo); entries survive across processes.

``REPRO_CALIBRATION_CACHE=0`` disables both layers.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.calibration import (
    EndpointWaveform,
    SensorCalibration,
    calibrate_endpoints,
)
from repro.timing.delay_model import DelayAnnotation
from repro.util.memo import BuildOnce

#: Bump when the on-disk layout or calibration semantics change.
CACHE_VERSION = 1

#: Calibrations kept in process, least recently used first.
_MEMORY = BuildOnce()


@dataclass
class CacheStats:
    """Hit/miss counters (reset via :func:`clear_calibration_cache`)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0


_STATS = CacheStats()


def cache_enabled() -> bool:
    """False when ``REPRO_CALIBRATION_CACHE=0`` is exported."""
    return os.environ.get("REPRO_CALIBRATION_CACHE", "1") != "0"


def cache_dir() -> Optional[Path]:
    """On-disk cache directory, or None when disk caching is off."""
    value = os.environ.get("REPRO_CACHE_DIR")
    return Path(value) if value else None


def calibration_stats() -> CacheStats:
    """Current cache counters (shared process-wide)."""
    return _STATS


def clear_calibration_cache() -> None:
    """Drop the in-process layer and reset the counters."""
    _MEMORY.clear()
    _STATS.memory_hits = 0
    _STATS.disk_hits = 0
    _STATS.misses = 0


def calibration_cache_key(
    annotation: DelayAnnotation,
    reset_inputs: Mapping[str, int],
    measure_inputs: Mapping[str, int],
    endpoint_nets: Sequence[str],
    sample_period_ps: float,
    context: Sequence[object] = (),
) -> str:
    """Digest of every input the calibration result depends on."""
    digest = hashlib.sha256()
    header = {
        "version": CACHE_VERSION,
        "context": [str(item) for item in context],
        "sample_period_ps": float(sample_period_ps),
        "reset": sorted(
            (str(k), int(v)) for k, v in reset_inputs.items()
        ),
        "measure": sorted(
            (str(k), int(v)) for k, v in measure_inputs.items()
        ),
        "endpoints": [str(net) for net in endpoint_nets],
        "model": [
            annotation.model.nominal_voltage,
            annotation.model.threshold_voltage,
            annotation.model.alpha,
        ],
    }
    digest.update(json.dumps(header, sort_keys=True).encode())
    # Exact per-gate delay table, in a stable order.  This is what ties
    # the entry to one specific implementation run.
    for net in sorted(annotation.gate_delay_ps):
        digest.update(net.encode())
        digest.update(np.float64(annotation.gate_delay_ps[net]).tobytes())
    return digest.hexdigest()


def _disk_path(key: str, context: Sequence[object]) -> Optional[Path]:
    directory = cache_dir()
    if directory is None:
        return None
    prefix = "-".join(str(item) for item in context) or "calibration"
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in prefix)
    return directory / ("%s-%s.npz" % (safe, key[:16]))


def _save_to_disk(path: Path, calibration: SensorCalibration, key: str) -> None:
    lengths = [w.edge_times_ps.shape[0] for w in calibration.waveforms]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        key=np.array(key),
        offsets=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        edge_times_ps=np.concatenate(
            [w.edge_times_ps for w in calibration.waveforms]
        ),
        values_after_edge=np.concatenate(
            [w.values_after_edge for w in calibration.waveforms]
        ).astype(np.uint8),
        nets=np.array([w.net for w in calibration.waveforms]),
        sample_period_ps=np.float64(calibration.sample_period_ps),
    )


def _load_from_disk(
    path: Path, key: str, annotation: DelayAnnotation
) -> Optional[SensorCalibration]:
    if not path.is_file():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            offsets = data["offsets"]
            times = data["edge_times_ps"]
            values = data["values_after_edge"]
            nets = data["nets"]
            sample_period_ps = float(data["sample_period_ps"])
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    waveforms: List[EndpointWaveform] = []
    for i, net in enumerate(nets):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        waveforms.append(
            EndpointWaveform(str(net), times[lo:hi], values[lo:hi])
        )
    return SensorCalibration(
        waveforms=waveforms,
        sample_period_ps=sample_period_ps,
        delay_model=annotation.model,
    )


def cached_calibrate_endpoints(
    annotation: DelayAnnotation,
    reset_inputs: Mapping[str, int],
    measure_inputs: Mapping[str, int],
    endpoint_nets: Sequence[str],
    sample_period_ps: float,
    context: Sequence[object] = (),
) -> SensorCalibration:
    """:func:`calibrate_endpoints` behind the two cache layers.

    Args:
        annotation / reset_inputs / measure_inputs / endpoint_nets /
            sample_period_ps: forwarded to the calibrator on a miss.
        context: human-readable key components (circuit spec name,
            implementation seed); they prefix the on-disk filename and
            are folded into the digest.

    Returns:
        the calibration; on an in-process hit this is the *same*
        object previous callers received (calibrations are read-only
        in normal use, and sharing reuses the precomputed bank).
    """
    if not cache_enabled():
        return calibrate_endpoints(
            annotation,
            reset_inputs,
            measure_inputs,
            endpoint_nets,
            sample_period_ps,
        )
    key = calibration_cache_key(
        annotation,
        reset_inputs,
        measure_inputs,
        endpoint_nets,
        sample_period_ps,
        context,
    )
    path = _disk_path(key, context)
    built = False

    def build() -> SensorCalibration:
        nonlocal built
        built = True
        if path is not None:
            loaded = _load_from_disk(path, key, annotation)
            if loaded is not None:
                _STATS.disk_hits += 1
                return loaded
        _STATS.misses += 1
        calibration = calibrate_endpoints(
            annotation,
            reset_inputs,
            measure_inputs,
            endpoint_nets,
            sample_period_ps,
        )
        if path is not None:
            _save_to_disk(path, calibration, key)
        return calibration

    calibration = _MEMORY.get(key, build)
    if not built:
        _STATS.memory_hits += 1
    return calibration
