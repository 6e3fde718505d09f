"""Batched waveform-bank sampling kernel.

:class:`WaveformBank` flattens the ragged per-endpoint
:class:`~repro.core.calibration.EndpointWaveform` list of one sensor
instance into dense arrays so that an entire ``(cycle x endpoint)``
block of latched values is computed by vectorized numpy kernels instead
of a per-endpoint Python loop.

Two kernels cover the two sampling regimes:

* **Common query time** (zero per-register jitter; shared capture-clock
  jitter is folded into the query time before the bank is consulted):
  all endpoints are sampled at the same nominal-scale instant per
  cycle, so the latched word only depends on which *global interval*
  between consecutive edge times the query falls into.  The bank
  precomputes the sorted union of all finite edge times and a
  ``(num_intervals, num_bits)`` word table; sampling is then one
  ``np.searchsorted`` over the union plus one row gather — about 20x
  faster than the legacy loop on the 192-endpoint ALU.

* **Per-register jitter**: every ``(cycle, endpoint)`` pair has its own
  query time.  The jitter matrix is drawn in one call with the exact
  same generator stream the legacy loop consumed (row ``i`` of a
  ``(num_bits, n)`` draw equals endpoint ``i``'s sequential draw), so
  results stay bit-identical.  For banks whose endpoints have few
  transitions (the ALU: at most a handful) the latch interval index is
  accumulated with one vectorized comparison per padded edge slot; deep
  banks (the C6288's multiply tree has 10^4-edge endpoints) fall back
  to a per-endpoint ``searchsorted`` over the flat arrays, which is
  what the legacy loop did minus the Python object overhead.

Both kernels reproduce :meth:`EndpointWaveform.value_at` semantics
exactly, including the inclusive tie rule (a query landing exactly on
an edge time observes the post-edge value); the test suite asserts
bit-exact equivalence against the legacy loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.calibration import EndpointWaveform

#: Endpoints with at most this many finite edges use the padded
#: comparison kernel under per-register jitter; deeper waveforms use a
#: per-endpoint binary search instead.
PADDED_EDGE_LIMIT = 16


class WaveformBank:
    """Flattened, vectorized view of one instance's endpoint waveforms.

    Attributes:
        num_bits: number of endpoints in the bank.
        offsets: (num_bits + 1,) slice bounds of each endpoint's edges
            within the flat arrays.
        flat_times_ps: concatenated ascending edge times (the leading
            ``-inf`` carrier entries of the source waveforms are kept,
            so ``flat_times_ps[offsets[i]]`` is ``-inf``).
        flat_values: concatenated post-edge values, aligned with
            ``flat_times_ps``.
    """

    def __init__(self, waveforms: Sequence["EndpointWaveform"]):
        if not waveforms:
            raise ValueError("bank needs at least one waveform")
        self.num_bits = len(waveforms)
        lengths = np.array(
            [w.edge_times_ps.shape[0] for w in waveforms], dtype=np.int64
        )
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.flat_times_ps = np.concatenate(
            [np.asarray(w.edge_times_ps, dtype=float) for w in waveforms]
        )
        self.flat_values = np.concatenate(
            [np.asarray(w.values_after_edge, dtype=np.uint8) for w in waveforms]
        )
        self.initial_values = self.flat_values[self.offsets[:-1]].copy()

        # Global interval table: sorted union of all finite edge times.
        finite = self.flat_times_ps[np.isfinite(self.flat_times_ps)]
        self.interval_times_ps = np.unique(finite)
        self._interval_words: np.ndarray | None = None

        # Per-endpoint finite-edge counts drive the jittered-path kernel
        # choice; values alternate for real transition histories, which
        # lets the padded kernel recover values from index parity alone.
        self._finite_counts = lengths - np.array(
            [1 if not np.isfinite(w.edge_times_ps[0]) else 0 for w in waveforms],
            dtype=np.int64,
        )
        self.max_edges = int(self._finite_counts.max())
        self._alternating = all(
            w.values_after_edge.shape[0] < 2
            or np.all(w.values_after_edge[1:] != w.values_after_edge[:-1])
            for w in waveforms
        )
        self._padded_times: np.ndarray | None = None
        self._waveforms = list(waveforms)

    # ------------------------------------------------------------------
    # Lazy precomputed tables
    # ------------------------------------------------------------------
    @property
    def num_intervals(self) -> int:
        """Rows of the word table (one per inter-edge interval)."""
        return self.interval_times_ps.shape[0] + 1

    @property
    def interval_words(self) -> np.ndarray:
        """(num_intervals, num_bits) latched word per global interval.

        Row 0 is the pre-first-edge (initial) word; row ``k >= 1`` is
        the word valid on ``[interval_times_ps[k-1],
        interval_times_ps[k])`` — matching the inclusive-edge rule of
        :meth:`EndpointWaveform.value_at`.
        """
        if self._interval_words is None:
            words = np.empty((self.num_intervals, self.num_bits), dtype=np.uint8)
            words[0] = self.initial_values
            if self.interval_times_ps.size:
                for i, waveform in enumerate(self._waveforms):
                    words[1:, i] = waveform.value_at(self.interval_times_ps)
            self._interval_words = words
        return self._interval_words

    @property
    def padded_times(self) -> np.ndarray:
        """(max_edges, num_bits) finite edge times, padded with +inf.

        Edge-major layout keeps each comparison slab contiguous in the
        padded kernel's inner loop.
        """
        if self._padded_times is None:
            padded = np.full((self.max_edges, self.num_bits), np.inf)
            for i in range(self.num_bits):
                lo = self.offsets[i]
                hi = self.offsets[i + 1]
                times = self.flat_times_ps[lo:hi]
                times = times[np.isfinite(times)]
                padded[: times.shape[0], i] = times
            self._padded_times = padded
        return self._padded_times

    # ------------------------------------------------------------------
    # Sampling kernels
    # ------------------------------------------------------------------
    def sample(
        self,
        times_ps: np.ndarray,
        jitter_ps: float = 0.0,
        seed: int = 0,
    ) -> np.ndarray:
        """Latched endpoint words at the given nominal-scale times.

        Args:
            times_ps: (N,) per-cycle query time; shared capture-clock
                jitter must already be folded in by the caller.
            jitter_ps: sigma of the per-(cycle, endpoint) Gaussian
                jitter.  The draw consumes the same generator stream as
                the legacy per-endpoint loop, so outputs are
                bit-identical for a given seed.
            seed: jitter seed (ignored when ``jitter_ps <= 0``).

        Returns:
            uint8 array (N, num_bits).
        """
        tau = np.asarray(times_ps, dtype=float)
        if tau.ndim != 1:
            raise ValueError("query times must be 1-D")
        if jitter_ps <= 0:
            return self._sample_common(tau)
        rng = make_rng(seed, "endpoint-jitter")
        if self._alternating and self.max_edges <= PADDED_EDGE_LIMIT:
            return self._sample_padded(tau, jitter_ps, rng)
        return self._sample_per_endpoint(tau, jitter_ps, rng)

    def _sample_common(self, tau: np.ndarray) -> np.ndarray:
        """All endpoints share the query time: table row lookup."""
        index = np.searchsorted(self.interval_times_ps, tau, side="right")
        return self.interval_words[index]

    #: Endpoint rows drawn/evaluated per slab in the padded kernel;
    #: bounds temporaries to a few MB so they stay cache-resident.
    _PADDED_BLOCK = 16

    def _sample_padded(
        self, tau: np.ndarray, jitter_ps: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Few-edge banks: count crossed edges per (bit, cycle).

        The latch interval index is the number of edges at or before
        the jittered query (ties inclusive, matching
        ``searchsorted(..., side="right")``); alternation turns index
        parity plus the initial value into the latched bit without a
        gather.  A ``(block, N)`` draw consumes the generator stream in
        the same order as sequential per-endpoint draws, so results are
        bit-identical to the reference loop.
        """
        n = tau.shape[0]
        padded = self.padded_times
        bits = np.empty((n, self.num_bits), dtype=np.uint8)
        for start in range(0, self.num_bits, self._PADDED_BLOCK):
            end = min(start + self._PADDED_BLOCK, self.num_bits)
            queries = rng.normal(0.0, jitter_ps, size=(end - start, n))
            queries += tau[None, :]
            index = np.zeros((end - start, n), dtype=np.uint8)
            for k in range(self.max_edges):
                index += queries >= padded[k, start:end, None]
            bits[:, start:end] = (
                self.initial_values[start:end, None] ^ (index & 1)
            ).T
        return bits

    def _sample_per_endpoint(
        self, tau: np.ndarray, jitter_ps: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Deep banks: binary search each endpoint's own edge list."""
        n = tau.shape[0]
        bits = np.empty((n, self.num_bits), dtype=np.uint8)
        for i in range(self.num_bits):
            queries = tau + rng.normal(0.0, jitter_ps, size=n)
            lo = self.offsets[i]
            hi = self.offsets[i + 1]
            index = np.searchsorted(
                self.flat_times_ps[lo:hi], queries, side="right"
            )
            bits[:, i] = self.flat_values[lo:hi][
                np.clip(index - 1, 0, None)
            ]
        return bits


def masked_weight_numpy(
    bank: WaveformBank,
    times_ps: np.ndarray,
    jitter_ps: float,
    seed: int,
    mask: np.ndarray,
) -> np.ndarray:
    """Reference ``sensor`` op: sample the full word, sum masked bits.

    The native form (:mod:`repro.util.kernels_native`) draws the same
    jitter stream and latches each masked endpoint in one pass,
    without materialising the ``(N, num_bits)`` word.
    """
    return bank.sample(times_ps, jitter_ps=jitter_ps, seed=seed)[
        :, np.asarray(mask, dtype=bool)
    ].sum(axis=1, dtype=np.int64)

