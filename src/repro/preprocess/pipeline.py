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

No campaign route builds the whole processed trace.  The sensor reads
one to a few processed samples per column, so the campaign recipes and
the POI pilot call :meth:`ResolvedPreprocess.read`: shifts are
estimated on the full raw traces, then only the raw samples the
requested outputs' filter taps touch are gathered and summed — in the
order the full align → crop → resample chain would sum them, so the
values are bit-identical to that chain's at those samples.
:meth:`ResolvedPreprocess.apply` is ``read`` over every sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.preprocess.align import estimate_shifts
from repro.preprocess.poi import select_poi
from repro.preprocess.resample import (
    map_resampled_index,
    output_taps,
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

    def read(
        self, voltages: np.ndarray, samples: Sequence[int]
    ) -> np.ndarray:
        """The align → crop → resample chain's output at ``samples``.

        Shifts are estimated on the full traces.  Then only the raw
        samples each requested output's filter taps touch are gathered
        — edge-clamped like :func:`apply_shifts` and offset by the crop
        window — and summed in the resampler's order (from ``0.0``,
        highest tap first, out-of-range taps skipped), so every value
        is bit-identical to the full chain's at that sample.  A
        resample factor that reduces to ``1/1`` is the identity.

        Args:
            voltages: ``(num, num_samples)`` raw trace batch.
            samples: processed-space sample indices, in any order.

        Returns:
            ``(num, len(samples))`` float64, a transposed view: each
            requested sample's column is contiguous.
        """
        v = np.asarray(voltages, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.num_samples:
            raise PreprocessError(
                "expected a (num, %d) trace batch, got %s"
                % (self.num_samples, (v.shape,))
            )
        wanted = np.asarray(samples, dtype=np.int64).reshape(-1)
        if wanted.size and not (
            0 <= wanted.min() and wanted.max() < self.processed_samples
        ):
            raise PreprocessError(
                "samples outside the %d-sample processed trace"
                % self.processed_samples
            )
        spec = self.spec
        offset, length = 0, self.num_samples
        if spec.window is not None:
            offset, length = spec.window[0], spec.window[1] - spec.window[0]
        if spec.resample is None or spec.resample[0] == spec.resample[1]:
            terms = [(None, np.array([j])) for j in wanted]
        else:
            terms = [output_taps(length, *spec.resample, j) for j in wanted]
        inputs = np.unique(
            np.concatenate([np.empty(0, np.int64)] + [t[1] for t in terms])
        )
        num = v.shape[0]
        shifts = (
            estimate_shifts(v, self.reference, spec.max_shift, spec.align)
            if spec.align != "none"
            else np.zeros(num, dtype=np.int64)
        )
        # One flat gather per input sample into a contiguous (num,) row.
        flat = v.ravel()
        rows = np.arange(num, dtype=np.int64) * self.num_samples
        gathered = np.empty((inputs.size, num))
        for k, index in enumerate(offset + inputs):
            source = shifts + index
            np.clip(source, 0, self.num_samples - 1, out=source)
            np.take(flat, source + rows, out=gathered[k])
        out = np.zeros((wanted.size, num))
        for k, (taps, sources) in enumerate(terms):
            positions = np.searchsorted(inputs, sources)
            if taps is None:
                out[k] = gathered[positions[0]]
                continue
            for tap, position in zip(taps, positions):
                out[k] += tap * gathered[position]
        return out.T

    def apply(self, voltages: np.ndarray) -> np.ndarray:
        """The whole processed trace: :meth:`read` at every sample."""
        return self.read(voltages, np.arange(self.processed_samples))

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
        pools = {
            column: np.arange(
                max(0, index - radius),
                min(int(processed), index + radius + 1),
                dtype=np.int64,
            )
            for column, index in nominal.items()
        }
        # Rank on the pools' samples only, then map back.  numpy reduces
        # a row-major (num, k) batch over its rows in one order for
        # every k >= 2, so each score equals the one the whole
        # processed batch would give (a one-sample pool needs no
        # ranking).
        pooled = np.unique(
            np.concatenate([np.empty(0, np.int64)] + list(pools.values()))
        )
        pilot_read = np.ascontiguousarray(
            resolved.read(pilot["voltages"], pooled)
        )
        column_samples = {}
        for column, pool in pools.items():
            classes = None
            if spec.poi == "sost":
                byte = _byte_for_column(column, target_byte)
                classes = _hamming_weights(pilot["ciphertexts"][:, byte])
            column_samples[column] = pooled[
                select_poi(
                    pilot_read,
                    spec.poi,
                    spec.num_poi,
                    classes=classes,
                    candidates=np.searchsorted(pooled, pool),
                )
            ]
    object.__setattr__(resolved, "column_samples", column_samples)
    return resolved
