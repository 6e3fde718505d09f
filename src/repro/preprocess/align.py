"""Trace alignment: shift estimation against a reference trace.

Remote-power campaigns rarely get a clean trigger; the classic fix is
to estimate each trace's time offset against a reference trace and
gather it back onto the reference grid.  Two standard metrics score
every candidate shift over the overlapping span:

* **correlation** — normalized cross-correlation of the overlapping
  span (robust to gain/offset differences);
* **SAD** — negative mean absolute difference (cheap, robust to a few
  outlier samples).

Shift convention: a trace with shift ``s`` carries the reference
content ``s`` samples *late* (``trace[j] ~ reference[j - s]``);
:func:`apply_shifts` therefore gathers ``trace[j + s]``.  Candidates
are searched in the order ``0, -1, 1, -2, 2, ...`` and ties keep the
earlier candidate, so degenerate traces (e.g. all-constant, where
every correlation denominator is zero) deterministically resolve to
shift 0 instead of an arbitrary extreme.

The scoring runs through the ``align`` kernel of
:mod:`repro.util.kernels` (op ``estimate``):

* ``numpy`` — the reference, vectorized over the batch with a loop
  over candidate shifts.  Every sum is numpy's own ``sum``/``mean``
  (pairwise summation along each row); no BLAS product is used, so a
  trace's score does not depend on the batch it sits in, the host's
  core count or its BLAS build.
* ``native`` — ``repro_align`` in the C library of
  :mod:`repro.util.kernels_native`, which scores one trace at a time
  with the same operations in the same order (numpy's pairwise
  summation included), so shifts *and* scores are bit-identical.

Non-finite samples are rejected before either backend runs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.preprocess.spec import PreprocessError
from repro.util import kernels

__all__ = [
    "align_traces",
    "apply_shifts",
    "crop",
    "estimate_shifts",
    "shift_candidates",
]


def crop(traces: np.ndarray, start: int, end: int) -> np.ndarray:
    """Static-window crop ``traces[:, start:end]`` with bounds checks."""
    traces = np.asarray(traces)
    length = traces.shape[-1]
    if not 0 <= start < end <= length:
        raise PreprocessError(
            "window %d:%d does not fit traces of %d samples"
            % (start, end, length)
        )
    return traces[..., start:end]


def shift_candidates(max_shift: int) -> List[int]:
    """Candidate shifts ordered by magnitude: ``0, -1, 1, -2, 2, ...``"""
    if max_shift < 1:
        raise PreprocessError("max_shift must be >= 1")
    order = [0]
    for s in range(1, int(max_shift) + 1):
        order.extend((-s, s))
    return order


def _as_batch(
    traces: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    traces = np.atleast_2d(np.asarray(traces, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64)
    if traces.ndim != 2:
        raise PreprocessError("traces must be a (num, samples) batch")
    if reference.shape != (traces.shape[1],):
        raise PreprocessError(
            "reference length %s does not match trace length %d"
            % (reference.shape, traces.shape[1])
        )
    return traces, reference


def _check_finite(traces: np.ndarray, reference: np.ndarray) -> None:
    """Reject NaN/inf before scoring: they would silently pick a shift."""
    if not np.isfinite(reference).all():
        raise PreprocessError("alignment reference has non-finite samples")
    # min/max propagate NaN and surface +-inf: two cheap reductions on
    # the common, all-finite path.
    if traces.size and np.isfinite(traces.min()) and np.isfinite(
        traces.max()
    ):
        return
    bad = np.flatnonzero(~np.isfinite(traces).all(axis=1))
    if bad.size:
        raise PreprocessError(
            "trace %d has non-finite samples; alignment needs finite "
            "traces" % bad[0]
        )


def _estimate_numpy(
    traces: np.ndarray, reference: np.ndarray, max_shift: int, metric: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference shift search: ``(best_shift, best_score)`` per trace.

    Every reduction is a numpy ``sum``/``mean`` along a row (pairwise
    summation), never a BLAS product, so each row's score is a function
    of that row alone; ``repro_align`` repeats these operations in this
    order.
    """
    num, length = traces.shape
    best_score = np.full(num, -np.inf)
    best_shift = np.zeros(num, dtype=np.int64)
    # Exactly-constant traces must score 0 at every shift (and so keep
    # shift 0).  ``t - t.mean()`` is NOT exactly zero for them — the
    # mean of n equal floats rounds — so the variance guard below would
    # otherwise correlate that roundoff residue with the reference.
    varying = traces.max(axis=1) > traces.min(axis=1)
    for s in shift_candidates(max_shift):
        if s >= 0:
            t = traces[:, s:]
            r = reference[: length - s]
        else:
            t = traces[:, : length + s]
            r = reference[-s:]
        if metric == "correlation":
            t_centered = t - t.mean(axis=1, keepdims=True)
            r_centered = r - r.mean()
            denom = np.sqrt(
                (t_centered * t_centered).sum(axis=1)
                * (r_centered * r_centered).sum()
            )
            numer = (t_centered * r_centered).sum(axis=1)
            score = np.zeros(num)
            valid = varying & (denom > 0)
            score[valid] = numer[valid] / denom[valid]
        else:
            score = -np.abs(t - r).mean(axis=1)
            # A constant trace is equally (un)informative at every
            # shift; pin its score so roundoff between overlap lengths
            # cannot break the tie away from shift 0.
            score[~varying] = 0.0
        # Strict improvement only: ties keep the earlier (smaller-|s|)
        # candidate, so zero-variance traces resolve to shift 0.
        better = score > best_score
        best_shift[better] = s
        best_score[better] = score[better]
    return best_shift, best_score



def estimate_shifts(
    traces: np.ndarray,
    reference: np.ndarray,
    max_shift: int,
    metric: str = "correlation",
) -> np.ndarray:
    """Per-trace integer shift estimate against ``reference``.

    Args:
        traces: ``(num, samples)`` batch (a single 1-D trace is
            promoted to a one-row batch).
        reference: ``(samples,)`` reference trace.
        max_shift: search half-range; must be smaller than the trace
            length so every candidate keeps a non-empty overlap.
        metric: ``"correlation"`` or ``"sad"``.

    Returns:
        ``(num,)`` int64 shifts in ``[-max_shift, max_shift]``; a row's
        shift depends on that row alone.

    Raises:
        PreprocessError: on a bad geometry or metric, or a trace or
            reference with non-finite samples (naming the first such
            trace).
    """
    traces, reference = _as_batch(traces, reference)
    length = traces.shape[1]
    if int(max_shift) >= length:
        raise PreprocessError(
            "max_shift=%d must be smaller than the %d-sample window"
            % (max_shift, length)
        )
    if metric not in ("correlation", "sad"):
        raise PreprocessError(
            "alignment metric %r not one of correlation, sad" % metric
        )
    if int(max_shift) < 1:
        raise PreprocessError("max_shift must be >= 1")
    _check_finite(traces, reference)
    op = kernels.native_op("align", "estimate") or _estimate_numpy
    shifts, _scores = op(traces, reference, int(max_shift), metric)
    return shifts


def apply_shifts(traces: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Gather each trace back onto the reference grid (edge-clamped).

    ``aligned[i, j] = traces[i, j + shifts[i]]`` with out-of-range
    source indices clamped to the trace ends; integer gathers move
    float64 values bitwise, so undoing an integer misalignment restores
    the interior samples exactly.
    """
    traces = np.atleast_2d(np.asarray(traces))
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1)
    if shifts.shape[0] != traces.shape[0]:
        raise PreprocessError(
            "got %d shifts for %d traces"
            % (shifts.shape[0], traces.shape[0])
        )
    length = traces.shape[1]
    indices = np.arange(length, dtype=np.int64)[None, :] + shifts[:, None]
    np.clip(indices, 0, length - 1, out=indices)
    return np.take_along_axis(traces, indices, axis=1)


def align_traces(
    traces: np.ndarray,
    reference: np.ndarray,
    max_shift: int,
    metric: str = "correlation",
) -> Tuple[np.ndarray, np.ndarray]:
    """Estimate and undo per-trace shifts; returns (aligned, shifts)."""
    shifts = estimate_shifts(traces, reference, max_shift, metric)
    return apply_shifts(np.atleast_2d(traces), shifts), shifts
