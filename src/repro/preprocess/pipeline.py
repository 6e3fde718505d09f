"""Resolving a :class:`PreprocessSpec` against a concrete campaign.

A spec is declarative; before a campaign can run it must be *resolved*
against the generator's geometry into a :class:`ResolvedPreprocess`:
the alignment reference trace, the processed-space length, and — per
last-round column — the sample indices the sensor will read.  The
resolution is a pure function of ``(spec, generator config, seed)``:

* the reference trace is the mean of a small seeded batch of
  *noise-free, misalignment-free* deterministic traces
  (``derive_seed(seed, "preprocess-reference")``);
* POI ranking draws a seeded pilot batch through the full acquisition
  path — including the generator's misalignment, so the ranking sees
  exactly the distortion the campaign will see — and ranks candidates
  inside each target column's cycle neighbourhood
  (``derive_seed(seed, "preprocess-pilot")`` /
  ``"preprocess-pilot-noise"``).

Every worker therefore derives the identical plan, and the resolved
object rides the shard fan-out's heavy state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.preprocess.align import apply_shifts, crop, estimate_shifts
from repro.preprocess.poi import select_poi
from repro.preprocess.resample import (
    map_resampled_index,
    polyphase_resample,
    resampled_length,
)
from repro.preprocess.spec import PreprocessError, PreprocessSpec
from repro.util.rng import derive_seed

__all__ = [
    "REFERENCE_TRACES",
    "ResolvedPreprocess",
    "resolve_preprocess",
]

#: Pilot batch size for the alignment reference trace (mean of a seeded
#: noise-free batch; small, since the deterministic path has no noise
#: to average out — the mean only smooths over plaintext-dependent
#: activity).
REFERENCE_TRACES = 64


@dataclass(frozen=True)
class ResolvedPreprocess:
    """A spec bound to one campaign's trace geometry.

    Attributes:
        spec: the originating declarative spec.
        reference: full-length alignment reference trace (None when
            the spec has no alignment stage).
        num_samples: expected raw trace length.
        processed_samples: trace length after crop + resample.
        column_samples: per last-round column, the processed-space
            sample indices whose sensor readings are summed into the
            campaign's leakage series.
    """

    spec: PreprocessSpec
    reference: Optional[np.ndarray]
    num_samples: int
    processed_samples: int
    column_samples: Dict[int, np.ndarray] = field(default_factory=dict)

    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """Run the align → crop → resample chain on a trace batch."""
        v = np.asarray(voltages, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.num_samples:
            raise PreprocessError(
                "expected a (num, %d) trace batch, got %s"
                % (self.num_samples, (v.shape,))
            )
        if self.spec.align != "none":
            shifts = estimate_shifts(
                v, self.reference, self.spec.max_shift, self.spec.align
            )
            v = apply_shifts(v, shifts)
        if self.spec.window is not None:
            v = crop(v, *self.spec.window)
        if self.spec.resample is not None:
            v = polyphase_resample(v, *self.spec.resample)
        return v

    def samples_for_column(self, column: int) -> np.ndarray:
        """Processed-space sample indices for one last-round column."""
        samples = self.column_samples.get(int(column))
        if samples is None:
            raise PreprocessError(
                "preprocessing was resolved without column %d "
                "(resolved columns: %s)"
                % (column, sorted(self.column_samples))
            )
        return samples


def _map_index(spec: PreprocessSpec, index: int, length: int) -> int:
    """An original sample index in the processed time base."""
    p = int(index)
    if spec.window is not None:
        start, end = spec.window
        if not start <= p < end:
            raise PreprocessError(
                "window %d:%d excludes the last-round sample %d"
                % (start, end, p)
            )
        p -= start
    if spec.resample is not None:
        p = map_resampled_index(p, *spec.resample)
    return p


def _byte_for_column(column: int, target_byte: int) -> int:
    """A key byte whose last-round CPA reads the given column."""
    from repro.attacks.full_key import column_of_key_byte  # noqa: PLC0415

    if column_of_key_byte(target_byte) == column:
        return int(target_byte)
    for byte in range(16):
        if column_of_key_byte(byte) == column:
            return byte
    raise PreprocessError("no key byte maps to column %d" % column)


def _hamming_weights(values: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(np.asarray(values, dtype=np.uint8)[:, None], axis=1)
    return bits.sum(axis=1)


def resolve_preprocess(
    spec: Optional[PreprocessSpec],
    generator,
    seed: int,
    columns: Sequence[int] = (),
    target_byte: int = 0,
) -> Optional[ResolvedPreprocess]:
    """Bind a spec to a generator's geometry (None stays None).

    Args:
        spec: declarative preprocessing spec, or None.
        generator: :class:`repro.core.tracegen.PhysicalTraceGenerator`
            whose geometry (and misalignment, for POI pilots) applies.
        seed: campaign seed; the reference and pilot draws derive
            private streams from it.
        columns: last-round columns the campaign will read (the attack
            path passes its target byte's column; full-key passes all
            four).
        target_byte: preferred ciphertext byte for SOST labelling.

    Returns:
        A :class:`ResolvedPreprocess`, or None when ``spec`` is None
        or entirely disabled.
    """
    if spec is None or not spec.enabled:
        return None
    from repro.core.tracegen import random_plaintexts  # noqa: PLC0415

    num_samples = int(generator.num_samples)
    if spec.window is not None and spec.window[1] > num_samples:
        raise PreprocessError(
            "window %d:%d does not fit the generator's %d samples"
            % (spec.window[0], spec.window[1], num_samples)
        )
    if spec.align != "none" and spec.max_shift >= num_samples:
        raise PreprocessError(
            "max_shift=%d must be smaller than the %d-sample window"
            % (spec.max_shift, num_samples)
        )
    length = (
        spec.window[1] - spec.window[0]
        if spec.window is not None
        else num_samples
    )
    processed = (
        resampled_length(length, *spec.resample)
        if spec.resample is not None
        else length
    )

    reference = None
    if spec.align != "none":
        pilots = random_plaintexts(
            REFERENCE_TRACES, seed=derive_seed(seed, "preprocess-reference")
        )
        reference = (
            generator.generate_deterministic(pilots)["voltages"]
            .mean(axis=0)
        )

    resolved = ResolvedPreprocess(
        spec=spec,
        reference=reference,
        num_samples=num_samples,
        processed_samples=int(processed),
    )

    aligned_indices = generator.last_round_sample_indices()
    nominal = {
        int(column): min(
            _map_index(spec, int(aligned_indices[int(column)]), num_samples),
            int(processed) - 1,
        )
        for column in columns
    }
    if spec.poi == "none":
        column_samples = {
            column: np.array([index], dtype=np.int64)
            for column, index in nominal.items()
        }
    else:
        pilot_pts = random_plaintexts(
            spec.poi_traces, seed=derive_seed(seed, "preprocess-pilot")
        )
        pilot = generator.generate(
            pilot_pts, seed=derive_seed(seed, "preprocess-pilot-noise")
        )
        pilot_processed = resolved.apply(pilot["voltages"])
        # Candidate pool: the column's cycle neighbourhood in processed
        # space — POI selection refines *where inside the cycle* the
        # sensor should latch, it must not wander to another column's
        # (stronger) cycle.
        scale = (
            spec.resample[0] / spec.resample[1]
            if spec.resample is not None
            else 1.0
        )
        radius = max(1, int(round(generator.samples_per_cycle * scale / 2)))
        column_samples = {}
        for column, index in nominal.items():
            pool = np.arange(
                max(0, index - radius),
                min(int(processed), index + radius + 1),
                dtype=np.int64,
            )
            classes = None
            if spec.poi == "sost":
                byte = _byte_for_column(column, target_byte)
                classes = _hamming_weights(pilot["ciphertexts"][:, byte])
            column_samples[column] = select_poi(
                pilot_processed,
                spec.poi,
                spec.num_poi,
                classes=classes,
                candidates=pool,
            )
    object.__setattr__(resolved, "column_samples", column_samples)
    return resolved
