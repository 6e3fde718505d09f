"""Correlation Power Analysis engine.

Implements textbook CPA (Brier et al.): Pearson correlation between a
measured leakage series and the hypotheses of 256 key-byte candidates,
with *progress tracking* — correlations re-evaluated at growing trace
counts — to produce the paper's "correlation progress over 500k
traces" figures and the measurements-to-disclosure metric.

Every hypothesis of the paper's model is a lookup on one byte value
(the ciphertext byte the key guess is XORed with), i.e. a row of a
``(V, K)`` table.  The engine therefore keeps, per leakage stream, the
trace count and leakage sum of every value plus the leakage sum and
sum of squares — O(V) state, whatever the campaign length — and folds
the table in only when correlations are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import ReproError

#: Table rows folded per matrix product: a 65,536-row (16-bit value)
#: table is converted to float64 one slice at a time, never whole.
FOLD_ROWS = 4096

#: The largest block sum of squares an int64 state takes in; a block at
#: or above it turns the state float64 (see :meth:`StreamingCPA.update`).
_EXACT_BLOCK = 2.0 ** 53

_INT64_MAX = np.iinfo(np.int64).max

#: The keys of :meth:`StreamingCPA.state_arrays`.
STATE_KEYS = ("count", "counts", "sums", "sum_x", "sum_xx")


def _validate_values(values: np.ndarray, num_values: int) -> np.ndarray:
    """Values as an integer array, each in ``0..num_values - 1``.

    Values that are not such integers raise instead of being cast:
    ``astype(np.uint8)`` would silently read the row of 0 for 256, of
    255 for -1 and of 3 for 3.7.
    """
    arr = np.asarray(values)
    if arr.dtype == np.uint8 and num_values >= 256:
        return arr
    if arr.dtype.kind not in "iuf":
        raise ValueError(
            "values must be integers in 0..%d, got dtype %s"
            % (num_values - 1, arr.dtype)
        )
    bad = ~((arr >= 0) & (arr < num_values))
    if arr.dtype.kind == "f":
        bad |= arr != np.floor(arr)
    if bad.any():
        index = int(np.flatnonzero(bad.reshape(-1))[0])
        raise ValueError(
            "value %r at index %d is not an integer in 0..%d"
            % (arr.reshape(-1)[index].item(), index, num_values - 1)
        )
    return arr.astype(np.intp, copy=False)


def state_problem(
    state: object, shape: Tuple[int, ...], count: int
) -> Optional[str]:
    """Why ``state`` is not an int64 :meth:`StreamingCPA.state_arrays`
    of ``count`` traces whose ``counts`` have ``shape`` (None: it is).

    Shard and lease results are checked with this before they merge.
    """
    if not isinstance(state, dict) or set(state) != set(STATE_KEYS):
        return "state with keys %s" % (
            sorted(state) if isinstance(state, dict) else type(state).__name__
        )
    arrays = [np.asarray(state[key]) for key in STATE_KEYS]
    dtypes = [array.dtype for array in arrays]
    if dtypes != [np.dtype(np.int64)] * len(arrays):
        return "a state of dtypes %s" % dtypes
    got = tuple(array.shape for array in arrays)
    if got != ((), shape, shape, shape[:-1], shape[:-1]):
        return "state arrays of shapes %s" % (got,)
    counted = arrays[1].sum(axis=-1)
    if int(arrays[0]) != count or (counted != count).any():
        return "count %d, values counted %s" % (
            int(arrays[0]), np.unique(counted).tolist()
        )
    return None


def _trace_rows(bad: np.ndarray) -> np.ndarray:
    """Trace indices (rows) holding any flagged stream value."""
    return np.flatnonzero(bad.reshape(bad.shape[0], -1).any(axis=1))


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


class InexactStateError(ReproError):
    """A float64 (inexact) CPA state was merged, stored or rebuilt.

    Only an int64 state adds up to the same state in any order, so
    :meth:`StreamingCPA.merge`, :meth:`~StreamingCPA.state_arrays` and
    :meth:`~StreamingCPA.from_state_arrays` refuse any other.
    """


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


def checkpoint_grid(
    checkpoints: Optional[Sequence[int]], num_traces: int
) -> np.ndarray:
    """The evaluation grid of a ``num_traces`` campaign.

    :func:`default_checkpoints` when None; otherwise the sorted unique
    points, which must lie in ``[2, num_traces]``, with ``num_traces``
    appended when missing so every trace contributes to the result.
    """
    if checkpoints is None:
        return default_checkpoints(num_traces)
    points = np.unique(np.asarray(checkpoints, dtype=np.int64))
    if points.size == 0 or points[0] < 2 or points[-1] > num_traces:
        raise ValueError("checkpoints must lie in [2, num_traces]")
    if points[-1] != num_traces:
        points = np.append(points, num_traces)
    return points


class StreamingCPA:
    """Per-value CPA state of one or more leakage streams.

    Row ``v`` of ``table`` (shape ``(V, K)``) holds the K candidates'
    hypotheses for a trace whose value is ``v``.  :meth:`update` adds a
    block's ``count[v]``, ``sum_x[v]``, ``sum_x`` and ``sum_xx``;
    :meth:`correlations` folds the table in.  With ``streams=S`` every
    block carries S leakage streams with S values per trace (the
    full-key attack: one stream per key byte) and correlations come
    out ``(S, K)``; the streams share the table and one fold.

    The sums are int64 while every block has been integral: such states
    add up to the same state in any order, so only they merge, store
    (:meth:`state_arrays`) and rebuild (:meth:`from_state_arrays`).
    From the first non-integral block on the engine keeps float64 sums
    for analog single-stream callers, and those three raise
    :class:`InexactStateError`.
    """

    def __init__(self, table: np.ndarray, streams: Optional[int] = None):
        table = np.asarray(table)
        if table.ndim != 2 or 0 in table.shape:
            raise ValueError(
                "table must be (num_values, num_candidates), got %r"
                % (table.shape,)
            )
        self.table = table
        self.count = 0
        shape = () if streams is None else (int(streams),)
        self._counts = np.zeros(shape + table.shape[:1], dtype=np.int64)
        self._sums = np.zeros(shape + table.shape[:1], dtype=np.int64)
        self._sum_x = np.zeros(shape, dtype=np.int64)
        self._sum_xx = np.zeros(shape, dtype=np.int64)
        self._blocks: Optional[List[tuple]] = None

    @property
    def num_candidates(self) -> int:
        return int(self.table.shape[1])

    @property
    def exact(self) -> bool:
        """Whether the sums are still int64 (every block integral)."""
        return self._sums.dtype == np.int64

    def update(self, leakage: np.ndarray, values: np.ndarray) -> None:
        """Add a block of traces.

        Args:
            leakage: (B,) leakage values, or (B, S) for S streams.
            values: the value (table row) of every leakage entry, same
                shape, each an integer in ``0..V - 1``.

        Raises:
            NonFiniteValuesError: a NaN/Inf leakage value, or a trace
                whose table row is not finite; the state is untouched.
        """
        x = np.asarray(leakage, dtype=np.float64)
        num_values = self.table.shape[0]
        values = _validate_values(values, num_values)
        if x.shape != values.shape or x.shape[1:] != self._sum_x.shape:
            raise ValueError(
                "shape mismatch: leakage %r vs values %r (a %r-stream "
                "state)" % (x.shape, values.shape, self._sum_x.shape)
            )
        finite = np.isfinite(x)
        if not finite.all():
            raise NonFiniteValuesError(
                "leakage", self.count + _trace_rows(~finite)
            )
        if self.table.dtype.kind == "f":
            finite_rows = np.isfinite(self.table).all(axis=1)[values]
            if not finite_rows.all():
                raise NonFiniteValuesError(
                    "hypotheses", self.count + _trace_rows(~finite_rows)
                )
        index = values
        if x.ndim == 2:
            index = values + num_values * np.arange(x.shape[1])
        index = index.reshape(-1).astype(np.intp, copy=False)
        size = num_values * self._sum_x.size
        shape = self._counts.shape
        counts = np.bincount(index, minlength=size)
        sums = np.bincount(index, weights=x.reshape(-1), minlength=size)
        sum_x = x.sum(axis=0)
        sum_xx = (x * x).sum(axis=0)
        if (
            self.exact
            and (x == np.floor(x)).all()
            and (sum_xx < _EXACT_BLOCK).all()
            and (sum_xx <= _INT64_MAX - self._sum_xx).all()
        ):
            sums = sums.astype(np.int64)
            sum_x = sum_x.astype(np.int64)
            sum_xx = sum_xx.astype(np.int64)
        elif self.exact:
            self._sums = self._sums.astype(np.float64)
            self._sum_x = self._sum_x.astype(np.float64)
            self._sum_xx = self._sum_xx.astype(np.float64)
        self._counts += counts.reshape(shape)
        self._sums += sums.reshape(shape)
        self._sum_x += sum_x
        self._sum_xx += sum_xx
        self.count += x.shape[0]

    def _require_exact(self, action: str) -> None:
        if not self.exact:
            raise InexactStateError(
                "cannot %s a CPA state that has seen non-integral "
                "leakage: only int64 states merge exactly" % action
            )

    def merge(self, other: "StreamingCPA") -> "StreamingCPA":
        """Fold another state's traces into this one (in place).

        The int64 sums are additive, so states built over disjoint
        trace blocks — by parallel workers, checkpointed shards, or
        resumed campaigns — combine into exactly the single-stream
        state, in any order.

        Returns:
            self, for chaining.
        """
        self._require_exact("merge")
        other._require_exact("merge")
        if other._counts.shape != self._counts.shape:
            raise ValueError(
                "cannot merge a %r state into %r"
                % (other._counts.shape, self._counts.shape)
            )
        self.count += other.count
        self._counts += other._counts
        self._sums += other._sums
        self._sum_x += other._sum_x
        self._sum_xx += other._sum_xx
        return self

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The int64 state as plain arrays (checkpoints, fleet leases).

        Round-trips exactly through :meth:`from_state_arrays`, the
        frame codec and ``np.savez``, so a resumed campaign continues
        from the state an uninterrupted run would have had.  A single
        stream's ``sum_x`` and ``sum_xx`` are int64 scalars.
        """
        self._require_exact("store")
        return {
            "count": np.int64(self.count),
            "counts": self._counts.copy(),
            "sums": self._sums.copy(),
            "sum_x": self._sum_x.copy()[()],
            "sum_xx": self._sum_xx.copy()[()],
        }

    @classmethod
    def from_state_arrays(
        cls, state: Dict[str, np.ndarray], table: np.ndarray
    ) -> "StreamingCPA":
        """Rebuild a state from :meth:`state_arrays` output and its
        table; the streams come from the arrays' shape."""
        arrays = {key: np.asarray(state[key]) for key in STATE_KEYS}
        if any(a.dtype != np.int64 for a in arrays.values()):
            raise InexactStateError(
                "CPA state arrays must be int64, got %s"
                % ", ".join(
                    "%s=%s" % (key, a.dtype) for key, a in arrays.items()
                )
            )
        counts = arrays["counts"]
        engine = cls(table, None if counts.ndim == 1 else counts.shape[0])
        if counts.shape != engine._counts.shape:
            raise ValueError(
                "state of shape %r does not fit a %r table"
                % (counts.shape, engine.table.shape)
            )
        engine.count = int(arrays["count"])
        engine._counts = counts.copy()
        engine._sums = arrays["sums"].reshape(counts.shape).copy()
        engine._sum_x = arrays["sum_x"].reshape(counts.shape[:-1]).copy()
        engine._sum_xx = arrays["sum_xx"].reshape(counts.shape[:-1]).copy()
        return engine

    def _table_blocks(self):
        """``(rows, [T | T**2])`` per :data:`FOLD_ROWS` slice of the
        table, as float64; kept when the table is one slice."""
        if self._blocks is not None:
            return self._blocks
        blocks = []
        for row in range(0, self.table.shape[0], FOLD_ROWS):
            t = self.table[row:row + FOLD_ROWS].astype(np.float64)
            rows = slice(row, row + t.shape[0])
            blocks.append((rows, np.hstack([t, t * t])))
        if len(blocks) == 1:
            self._blocks = blocks
        return blocks

    def correlations(self) -> np.ndarray:
        """Pearson correlation of every candidate over all seen traces:
        ``(K,)``, or ``(S, K)`` for S streams."""
        shape = self._sum_x.shape + (self.num_candidates,)
        n = self.count
        if n < 2:
            return np.zeros(shape)
        k = shape[-1]
        # Per stream, [count; sum_x] by value times [T | T**2] gives
        # count @ T, count @ T**2 and sum_x @ T in one two-row product.
        # Products of more rows start the BLAS thread pool, whose
        # spinning threads compete with the campaign's worker threads.
        weights = np.stack([self._counts, self._sums], axis=-2).astype(
            np.float64
        ).reshape(-1, 2, self.table.shape[0])
        folded = np.zeros((weights.shape[0], 2, 2 * k))
        for rows, both in self._table_blocks():
            for stream, weight in enumerate(weights):
                folded[stream] += weight[:, rows] @ both
        folded = folded.reshape(shape[:-1] + (2, 2 * k))
        sum_h = folded[..., 0, :k]
        sum_hh = folded[..., 0, k:]
        sum_xh = folded[..., 1, :k]
        sum_x = self._sum_x.astype(np.float64)[..., None]
        sum_xx = self._sum_xx.astype(np.float64)[..., None]
        cov = sum_xh - sum_x * sum_h / n
        var_x = sum_xx - sum_x * sum_x / n
        var_h = sum_hh - sum_h * sum_h / n
        denom = np.sqrt(np.maximum(var_x, 0.0) * np.maximum(var_h, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, cov / denom, 0.0)


def run_cpa(
    leakage: np.ndarray,
    values: np.ndarray,
    table: np.ndarray,
    checkpoints: Optional[Sequence[int]] = None,
    correct_key: Optional[int] = None,
) -> CPAResult:
    """Full CPA with progress over trace count.

    Args:
        leakage: (N,) measured leakage (Hamming weight of sensor bits,
            a single sensor bit, a TDC readout, ...).
        values: (N,) value of every trace — the ciphertext byte, for
            the models of :mod:`repro.attacks.models` — selecting its
            row of ``table``.
        table: (V, K) hypotheses per value, e.g.
            ``single_bit_hypothesis(BYTE_VALUES)``.
        checkpoints: trace counts at which to record correlations
            (:func:`checkpoint_grid`; default
            :func:`default_checkpoints`).
        correct_key: true key byte for rank/MTD metrics.

    Returns:
        :class:`CPAResult` with one correlation row per checkpoint.
    """
    x = np.asarray(leakage, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("leakage must be 1-D")
    if np.shape(values) != x.shape:
        raise ValueError("values must be (N,) like the leakage")
    points = checkpoint_grid(checkpoints, x.shape[0])
    engine = StreamingCPA(table)
    rows: List[np.ndarray] = []
    previous = 0
    for point in points:
        engine.update(x[previous:point], values[previous:point])
        rows.append(engine.correlations())
        previous = point
    return CPAResult(
        checkpoints=points,
        correlations=np.vstack(rows),
        correct_key=correct_key,
    )
