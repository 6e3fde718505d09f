"""Polyphase resampling/decimation for trace preprocessing.

Rate conversion by a rational factor ``up/down``: zero-stuff by
``up``, filter with a Kaiser-windowed sinc, keep every ``down``-th
sample.  The filter is padded so its group delay lands on the output
grid, which keeps the resampled trace time-aligned with the input —
``map_resampled_index`` then converts an original sample index into
the resampled space.

The filter is a pure-numpy polyphase evaluation in which each output
sample accumulates its in-range taps in *descending* tap order.
Campaigns never resample a whole trace: the sensor reads a handful of
processed samples, and :meth:`repro.preprocess.pipeline.ResolvedPreprocess.read`
evaluates just those through :func:`output_taps` — the same products
summed in the same order, so bit-identical to :func:`polyphase_resample`
at every sample it computes.  :func:`polyphase_resample` is the
whole-trace reference that property is tested against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.preprocess.spec import PreprocessError

__all__ = [
    "design_polyphase_filter",
    "map_resampled_index",
    "output_taps",
    "polyphase_resample",
    "resampled_length",
]

#: Half-length of the anti-aliasing filter, in zero-crossing periods of
#: the target Nyquist sinc (the ``resample_poly`` convention).
_HALF_PHASES = 10
_KAISER_BETA = 5.0


def _reduced(up: int, down: int) -> Tuple[int, int]:
    up, down = int(up), int(down)
    if up < 1 or down < 1:
        raise PreprocessError(
            "resample factors must be positive, got %d/%d" % (up, down)
        )
    g = int(np.gcd(up, down))
    return up // g, down // g


@lru_cache(maxsize=32)
def design_polyphase_filter(up: int, down: int) -> Tuple[np.ndarray, int]:
    """Shared anti-aliasing filter for one reduced ``(up, down)`` pair.

    Returns ``(taps, delay)`` where ``taps`` is the Kaiser-windowed
    sinc (gain ``up``, cutoff at the tighter of the two Nyquist rates)
    zero-padded so that ``delay`` — the group delay in up-rate samples
    — is divisible by ``down``.
    """
    max_rate = max(up, down)
    cutoff = 1.0 / (2.0 * max_rate)
    half_len = _HALF_PHASES * max_rate
    n = np.arange(-half_len, half_len + 1, dtype=np.float64)
    taps = 2.0 * cutoff * np.sinc(2.0 * cutoff * n)
    taps *= np.kaiser(2 * half_len + 1, _KAISER_BETA)
    taps *= up
    delay = half_len
    pad = (-delay) % down
    if pad:
        taps = np.concatenate([np.zeros(pad), taps, np.zeros(pad)])
        delay += pad
    return taps, int(delay)


def _upfirdn_out_len(n_taps: int, n_in: int, up: int, down: int) -> int:
    return -(-((n_in - 1) * up + n_taps) // down)


def _upfirdn_numpy(
    taps: np.ndarray, x: np.ndarray, up: int, down: int
) -> np.ndarray:
    """Reference polyphase upfirdn (zero-stuff, filter, decimate).

    Output sample ``j`` taps the input at ``start - t`` for tap indices
    ``t`` of phase ``j*down % up``, accumulated from the highest tap
    down — the order :func:`output_taps` reproduces.
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    n_in = x.shape[-1]
    n_out = _upfirdn_out_len(len(taps), n_in, up, down)
    out = np.zeros(x.shape[:-1] + (n_out,), dtype=np.float64)
    j = np.arange(n_out)
    m = j * down
    phase = m % up
    start = m // up
    for p in range(up):
        in_phase = phase == p
        j_p = j[in_phase]
        start_p = start[in_phase]
        num_taps = (len(taps) - p + up - 1) // up
        for t in range(num_taps - 1, -1, -1):
            i = start_p - t
            valid = (i >= 0) & (i < n_in)
            out[..., j_p[valid]] += taps[p + t * up] * x[..., i[valid]]
    return out


def resampled_length(num_samples: int, up: int, down: int) -> int:
    """Output length of :func:`polyphase_resample`."""
    up, down = _reduced(up, down)
    return -(-int(num_samples) * up // down)


def map_resampled_index(index: int, up: int, down: int) -> int:
    """An original sample index in the resampled time base (clipped to
    the valid range by the caller where needed)."""
    up, down = _reduced(up, down)
    return int(round(int(index) * up / down))


def output_taps(
    n_in: int, up: int, down: int, index: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The terms of one output sample of :func:`polyphase_resample`.

    Returns ``(taps, inputs)`` such that output ``index`` of an
    ``n_in``-sample trace ``x`` is ``0.0 + taps[0] * x[inputs[0]] +
    taps[1] * x[inputs[1]] + ...``, summed left to right: the in-range
    taps, highest first, in the ``_upfirdn_numpy`` order, so evaluating
    the terms in that order is bit-identical to resampling the whole
    trace.  Outputs in the zero-padded tail have no terms.  Only
    meaningful for factors that do not reduce to ``1/1`` (which
    :func:`polyphase_resample` returns unfiltered).
    """
    up, down = _reduced(up, down)
    n_in = int(n_in)
    if n_in < 2:
        raise PreprocessError("resampling needs at least 2 samples")
    taps, delay = design_polyphase_filter(up, down)
    full_index = int(index) + delay // down
    if full_index >= _upfirdn_out_len(len(taps), n_in, up, down):
        return np.empty(0), np.empty(0, dtype=np.int64)
    phase, start = full_index * down % up, full_index * down // up
    t = np.arange((len(taps) - phase + up - 1) // up - 1, -1, -1)
    inputs = start - t
    valid = (inputs >= 0) & (inputs < n_in)
    return taps[phase + t[valid] * up], inputs[valid]


def polyphase_resample(
    traces: np.ndarray, up: int, down: int
) -> np.ndarray:
    """Resample a trace batch by the rational factor ``up/down``.

    Delay-compensated: output sample ``j`` sits at input time
    ``j * down / up``, so resampling by ``1/1`` is the identity and
    attack samples move by :func:`map_resampled_index`.
    """
    traces = np.asarray(traces, dtype=np.float64)
    up, down = _reduced(up, down)
    if up == 1 and down == 1:
        return traces
    n_in = traces.shape[-1]
    if n_in < 2:
        raise PreprocessError("resampling needs at least 2 samples")
    taps, delay = design_polyphase_filter(up, down)
    full = _upfirdn_numpy(taps, traces, up, down)
    skip = delay // down
    n_out = resampled_length(n_in, up, down)
    out = full[..., skip : skip + n_out]
    if out.shape[-1] < n_out:
        out = np.concatenate(
            [
                out,
                np.zeros(
                    out.shape[:-1] + (n_out - out.shape[-1],),
                    dtype=np.float64,
                ),
            ],
            axis=-1,
        )
    return out
