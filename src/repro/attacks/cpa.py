"""Correlation Power Analysis engine.

Implements textbook CPA (Brier et al.): Pearson correlation between a
measured leakage series and a hypothesis matrix over 256 key-byte
candidates, with *progress tracking* — correlations re-evaluated at
growing trace counts — to produce the paper's
"correlation progress over 500k traces" figures and the
measurements-to-disclosure metric.

The implementation streams over trace blocks and keeps only running
sums (O(256) state), so half-million-trace campaigns fit comfortably in
memory regardless of checkpoint density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.models import _validate_ct_bytes
from repro.util import kernels
from repro.util.errors import ReproError


def _accumulate_numpy(x: np.ndarray, h: np.ndarray):
    """Reference CPA accumulate: block sums, or None on non-finite.

    Returns ``(sum_x, sum_xx, sum_h, sum_hh, sum_xh)`` for a finite
    block.  Returning None (instead of raising) keeps the op contract
    backend-agnostic; :meth:`StreamingCPA.update` re-runs the finite
    checks to raise the exact :class:`NonFiniteValuesError`, and no
    accumulator state is touched either way.
    """
    h = np.asarray(h, dtype=np.float64)
    if not np.isfinite(x).all() or not np.isfinite(h).all():
        return None
    return (
        x.sum(),
        (x * x).sum(),
        h.sum(axis=0),
        (h * h).sum(axis=0),
        h.T @ x,
    )



class _TraceValuesError(ReproError):
    """Values the accumulator rejects, named by trace index.

    Attributes:
        which: ``"leakage"`` or ``"hypotheses"``.
        indices: offending trace indices, offset by the accumulator's
            trace count at update time (i.e. global indices for a
            single-stream consumer, segment-relative for shard
            workers).
    """

    problem = ""

    def __init__(self, which: str, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        shown = ", ".join(str(i) for i in indices[:8])
        if indices.size > 8:
            shown += ", ... (%d total)" % indices.size
        super().__init__(
            "%s %s values at trace indices [%s]"
            % (self.problem, which, shown)
        )
        self.which = which
        self.indices = indices


class NonFiniteValuesError(_TraceValuesError):
    """NaN/Inf values reached the CPA accumulator.

    A single non-finite leakage or hypothesis value silently poisons
    every correlation downstream (the running sums all become NaN), so
    :meth:`StreamingCPA.update` rejects the block instead and names
    the offending trace indices.
    """

    problem = "non-finite"


class NonIntegralValuesError(_TraceValuesError):
    """Fractional leakage reached the by-value accumulator.

    The by-value statistic equals the dense one bit for bit, and merges
    in any order, only because every sum of integer-valued float64
    leakage is exact.  :meth:`StreamingCPA.update` therefore rejects a
    by-value block holding a finite non-integral value and names its
    traces.
    """

    problem = "non-integral"


@dataclass
class CPAResult:
    """Outcome of a CPA run.

    Attributes:
        checkpoints: trace counts at which correlations were evaluated.
        correlations: array (num_checkpoints, 256): Pearson correlation
            of each key candidate at each checkpoint.
        correct_key: the true key byte, if provided (for metrics).
    """

    checkpoints: np.ndarray
    correlations: np.ndarray
    correct_key: Optional[int] = None

    @property
    def final_correlations(self) -> np.ndarray:
        """|corr| of all candidates after all traces (paper's plot (a))."""
        return np.abs(self.correlations[-1])

    @property
    def best_guess(self) -> int:
        """Candidate with the highest final absolute correlation."""
        return int(np.argmax(self.final_correlations))

    def key_rank_at(self, checkpoint_index: int) -> int:
        """Rank of the correct key at a checkpoint (0 = disclosed)."""
        return int(self.key_ranks()[checkpoint_index])

    def key_ranks(self) -> np.ndarray:
        """Correct-key rank at every checkpoint.

        A checkpoint with an all-zero correlation row (degenerate
        leakage, e.g. a constant sensor bit) is reported at worst rank
        rather than the spurious rank 0 a plain comparison would give.
        """
        if self.correct_key is None:
            raise ValueError("result carries no correct key")
        corr = np.abs(self.correlations)
        correct = corr[:, self.correct_key][:, None]
        ranks = (corr > correct).sum(axis=1)
        degenerate = corr.max(axis=1) <= 0
        ranks[degenerate] = corr.shape[1] - 1
        return ranks

    def measurements_to_disclosure(self) -> Optional[int]:
        """Smallest checkpoint from which the correct key stays rank 0.

        Returns None when the key is not (stably) disclosed within the
        available traces.  This is the number the paper quotes as
        "revealed after about 150k traces".
        """
        ranks = self.key_ranks()
        disclosed_from = None
        for index in range(len(ranks) - 1, -1, -1):
            if ranks[index] == 0:
                disclosed_from = index
            else:
                break
        if disclosed_from is None:
            return None
        return int(self.checkpoints[disclosed_from])

    @property
    def disclosed(self) -> bool:
        """Whether the correct key ends at rank 0."""
        if self.correct_key is None:
            raise ValueError("result carries no correct key")
        return bool(self.key_ranks()[-1] == 0)


def default_checkpoints(num_traces: int, count: int = 60) -> np.ndarray:
    """Logarithmically spaced evaluation points up to ``num_traces``.

    The grid normally starts at 50 traces (correlations below that are
    pure noise).  For campaigns of at most 50 traces that start is
    clamped so the grid still spans ``[2, num_traces]`` ascending — a
    descending ``logspace`` would otherwise be filtered down to the
    single point ``num_traces``.
    """
    if num_traces < 2:
        raise ValueError("need at least 2 traces")
    start = min(50, num_traces)
    if start >= num_traces:
        start = 2
    points = np.unique(
        np.round(
            np.logspace(np.log10(start), np.log10(num_traces), count)
        ).astype(np.int64)
    )
    points = points[(points >= 2) & (points <= num_traces)]
    if points[-1] != num_traces:
        points = np.append(points, num_traces)
    return points


class StreamingCPA:
    """Accumulates CPA statistics over trace blocks.

    Usage: feed ``(leakage_block, hypothesis_block)`` pairs via
    :meth:`update`, call :meth:`correlations` whenever a checkpoint is
    reached.  :func:`run_cpa` wraps the common in-memory case.
    """

    def __init__(self, num_candidates: int = 256):
        self.num_candidates = num_candidates
        self.count = 0
        self._sum_x = 0.0
        self._sum_xx = 0.0
        self._sum_h = np.zeros(num_candidates)
        self._sum_hh = np.zeros(num_candidates)
        self._sum_xh = np.zeros(num_candidates)

    def update(
        self,
        leakage: np.ndarray,
        hypotheses: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> None:
        """Add a block of traces.

        Args:
            leakage: (B,) measured leakage values.
            hypotheses: (B, num_candidates) hypothesis values or, with
                ``values``, a by-value table of shape
                (256, num_candidates) whose row ``v`` holds the
                hypotheses of a trace with byte value ``v``.
            values: (B,) byte value (e.g. ciphertext byte) of every
                trace.  ``update(x, table, values)`` adds exactly the
                state of ``update(x, table[values])`` without building
                the (B, num_candidates) matrix; the leakage must then
                be integer-valued (:class:`NonIntegralValuesError`).
        """
        x = np.asarray(leakage, dtype=np.float64)
        h = np.asarray(hypotheses)
        if values is not None:
            self._update_by_value(x, h, values)
            return
        if x.ndim != 1 or h.shape != (x.shape[0], self.num_candidates):
            raise ValueError(
                "shape mismatch: leakage %r vs hypotheses %r"
                % (x.shape, h.shape)
            )
        # The fused accumulate runs under the selected kernel backend
        # (int8 hypothesis blocks skip the float64 materialization on
        # the native path).  Campaign leakage/hypotheses are
        # integer-valued, so the float64 sums are exact and therefore
        # identical across backends and accumulation orders — the same
        # property merge() relies on.
        op = kernels.native_op("cpa", "accumulate") or _accumulate_numpy
        sums = op(x, h)
        if sums is None:
            # Re-run the finite checks in numpy to name the offending
            # traces; the accumulator state was never touched.
            finite_x = np.isfinite(x)
            if not finite_x.all():
                raise NonFiniteValuesError(
                    "leakage", self.count + np.flatnonzero(~finite_x)
                )
            finite_h = np.isfinite(
                np.asarray(h, dtype=np.float64)
            ).all(axis=1)
            raise NonFiniteValuesError(
                "hypotheses", self.count + np.flatnonzero(~finite_h)
            )
        sum_x, sum_xx, sum_h, sum_hh, sum_xh = sums
        self.count += x.shape[0]
        self._sum_x += sum_x
        self._sum_xx += sum_xx
        self._sum_h += sum_h
        self._sum_hh += sum_hh
        self._sum_xh += sum_xh

    def _update_by_value(
        self, x: np.ndarray, table: np.ndarray, values: np.ndarray
    ) -> None:
        """The by-value statistic: per-value trace counts and leakage
        sums, folded through the table.

        With ``cnt[v]`` traces of value ``v`` whose leakage sums to
        ``sx[v]``, the dense sums are ``sum_h = cnt @ T``,
        ``sum_hh = cnt @ T**2`` and ``sum_xh = sx @ T``.  For
        integer-valued leakage and tables every term is an integer
        below 2**53, so both routes compute the same exact float64
        sums — bit-identical state, in any accumulation order.
        """
        values = _validate_ct_bytes(values)
        if x.ndim != 1 or values.shape != x.shape:
            raise ValueError(
                "shape mismatch: leakage %r vs values %r"
                % (x.shape, values.shape)
            )
        if table.shape != (256, self.num_candidates):
            raise ValueError(
                "by-value table must be (256, %d), got %r"
                % (self.num_candidates, table.shape)
            )
        finite_x = np.isfinite(x)
        if not finite_x.all():
            raise NonFiniteValuesError(
                "leakage", self.count + np.flatnonzero(~finite_x)
            )
        finite_rows = np.isfinite(table).all(axis=1)
        if not finite_rows.all():
            raise NonFiniteValuesError(
                "hypotheses",
                self.count + np.flatnonzero(~finite_rows[values]),
            )
        integral = x == np.floor(x)
        if not integral.all():
            raise NonIntegralValuesError(
                "leakage", self.count + np.flatnonzero(~integral)
            )
        t = table.astype(np.float64)
        index = values.astype(np.intp)
        counts = np.bincount(index, minlength=256).astype(np.float64)
        sums = np.bincount(index, weights=x, minlength=256)
        self.count += x.shape[0]
        self._sum_x += x.sum()
        self._sum_xx += (x * x).sum()
        self._sum_h += counts @ t
        self._sum_hh += counts @ (t * t)
        self._sum_xh += sums @ t

    def merge(self, other: "StreamingCPA") -> "StreamingCPA":
        """Fold another accumulator's traces into this one (in place).

        Running sums are additive, so accumulators built over disjoint
        trace blocks — by parallel workers, checkpointed shards, or
        resumed campaigns — combine into exactly the single-stream
        state (integer-valued leakage and hypotheses make the sums
        float-exact, hence order-independent).

        Returns:
            self, for chaining.
        """
        if other.num_candidates != self.num_candidates:
            raise ValueError(
                "cannot merge %d-candidate accumulator into %d"
                % (other.num_candidates, self.num_candidates)
            )
        self.count += other.count
        self._sum_x += other._sum_x
        self._sum_xx += other._sum_xx
        self._sum_h += other._sum_h
        self._sum_hh += other._sum_hh
        self._sum_xh += other._sum_xh
        return self

    def copy(self) -> "StreamingCPA":
        """Independent snapshot of the accumulated state."""
        clone = StreamingCPA(num_candidates=self.num_candidates)
        clone.count = self.count
        clone._sum_x = self._sum_x
        clone._sum_xx = self._sum_xx
        clone._sum_h = self._sum_h.copy()
        clone._sum_hh = self._sum_hh.copy()
        clone._sum_xh = self._sum_xh.copy()
        return clone

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The running sums as plain arrays, for checkpoint files.

        The mapping round-trips bit-exactly through
        :meth:`from_state_arrays` (and through ``np.savez`` /
        ``np.load``, which preserve float64 payloads exactly), so a
        resumed campaign continues from the identical accumulator
        state an uninterrupted run would have had.
        """
        return {
            "count": np.int64(self.count),
            "sum_x": np.float64(self._sum_x),
            "sum_xx": np.float64(self._sum_xx),
            "sum_h": self._sum_h.copy(),
            "sum_hh": self._sum_hh.copy(),
            "sum_xh": self._sum_xh.copy(),
        }

    @classmethod
    def from_state_arrays(
        cls, state: Dict[str, np.ndarray]
    ) -> "StreamingCPA":
        """Rebuild an accumulator from :meth:`state_arrays` output."""
        sum_h = np.asarray(state["sum_h"], dtype=np.float64)
        engine = cls(num_candidates=int(sum_h.shape[0]))
        engine.count = int(state["count"])
        engine._sum_x = float(state["sum_x"])
        engine._sum_xx = float(state["sum_xx"])
        engine._sum_h = sum_h.copy()
        engine._sum_hh = np.asarray(
            state["sum_hh"], dtype=np.float64
        ).copy()
        engine._sum_xh = np.asarray(
            state["sum_xh"], dtype=np.float64
        ).copy()
        return engine

    def correlations(self) -> np.ndarray:
        """Pearson correlation of every candidate over all seen traces."""
        n = self.count
        if n < 2:
            return np.zeros(self.num_candidates)
        cov = self._sum_xh - self._sum_x * self._sum_h / n
        var_x = self._sum_xx - self._sum_x * self._sum_x / n
        var_h = self._sum_hh - self._sum_h * self._sum_h / n
        denom = np.sqrt(np.maximum(var_x, 0.0) * np.maximum(var_h, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom > 0, cov / denom, 0.0)
        return corr


def run_cpa(
    leakage: np.ndarray,
    hypotheses: np.ndarray,
    checkpoints: Optional[Sequence[int]] = None,
    correct_key: Optional[int] = None,
    values: Optional[np.ndarray] = None,
) -> CPAResult:
    """Full CPA with progress over trace count.

    Args:
        leakage: (N,) measured leakage (Hamming weight of sensor bits,
            a single sensor bit, a TDC readout, ...).
        hypotheses: (N, 256) hypothesis matrix from
            :mod:`repro.attacks.models` or, with ``values``, a
            (256, 256) by-value table (see :meth:`StreamingCPA.update`).
        checkpoints: trace counts at which to record correlations;
            defaults to :func:`default_checkpoints`.  A final
            checkpoint at ``num_traces`` is always appended when
            missing, so every provided trace contributes to the result
            (traces beyond the last explicit checkpoint used to be
            silently dropped).
        correct_key: true key byte for rank/MTD metrics.
        values: (N,) byte value of every trace, selecting its row of
            the by-value ``hypotheses`` table; the result equals the
            dense ``run_cpa(leakage, hypotheses[values])`` bit for bit.

    Returns:
        :class:`CPAResult` with one correlation row per checkpoint.
    """
    x = np.asarray(leakage, dtype=np.float64)
    h = np.asarray(hypotheses)
    if x.ndim != 1:
        raise ValueError("leakage must be 1-D")
    if values is None:
        rows, label = x.shape[0], "N"
    else:
        values = np.asarray(values)
        if values.shape != x.shape:
            raise ValueError("values must be (N,) like the leakage")
        rows, label = 256, "256"
    if h.ndim != 2 or h.shape[0] != rows:
        raise ValueError("hypotheses must be (%s, num_candidates)" % label)
    num_traces = x.shape[0]
    if checkpoints is None:
        points = default_checkpoints(num_traces)
    else:
        points = np.unique(np.asarray(checkpoints, dtype=np.int64))
        if points.size == 0 or points[0] < 2 or points[-1] > num_traces:
            raise ValueError("checkpoints must lie in [2, num_traces]")
        if points[-1] != num_traces:
            points = np.append(points, num_traces)

    engine = StreamingCPA(num_candidates=h.shape[1])
    rows: List[np.ndarray] = []
    previous = 0
    for point in points:
        if values is None:
            engine.update(x[previous:point], h[previous:point])
        else:
            engine.update(x[previous:point], h, values[previous:point])
        rows.append(engine.correlations())
        previous = point
    return CPAResult(
        checkpoints=points,
        correlations=np.vstack(rows),
        correct_key=correct_key,
    )
