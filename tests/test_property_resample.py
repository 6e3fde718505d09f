"""Property tests: the native ``upfirdn`` is the numpy reference, exactly.

``repro_upfirdn`` in the C library sums each output sample's in-range
taps highest first, the order of ``_upfirdn_numpy``.  These properties
pin the two byte for byte over generated rate pairs (each of ``up`` and
``down`` from 1 to 8), 1-D, 2-D and 3-D batches, input lengths from 2
to ~300, non-contiguous views, and finite values whose magnitudes span
1e-12 to 1e6 — through the raw op and through ``polyphase_resample``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocess.resample import (
    _upfirdn_numpy,
    design_polyphase_filter,
    polyphase_resample,
)
from repro.util import kernels, kernels_native

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)


def _native_upfirdn():
    provider = kernels_native.load_native()
    if provider is None:
        return None
    return provider.ops.get(("resample", "upfirdn"))


needs_native = pytest.mark.skipif(
    _native_upfirdn() is None, reason="the native upfirdn kernel is not loaded here"
)

RATES = st.integers(min_value=1, max_value=8)


@st.composite
def batches(draw):
    """A finite float64 batch, possibly a non-contiguous view.

    Values are signed magnitudes drawn log-uniformly from 1e-12 to 1e6
    (plus exact zeros); the last axis has 2 to ~300 samples.
    """
    n_in = draw(st.integers(min_value=2, max_value=300))
    lead = draw(
        st.sampled_from([(), (3,), (2, 2), (1, 4), (2, 1, 3)])
    )
    view = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = lead + (n_in * (2 if view == "strided" else 1),)
    magnitude = 10.0 ** rng.uniform(-12.0, 6.0, size=shape)
    signs = rng.choice([-1.0, 1.0], size=shape)
    values = np.where(rng.random(shape) < 0.05, 0.0, magnitude * signs)
    if view == "strided":
        return values[..., ::2]
    if view == "transposed" and lead:
        # Same logical batch, last axis with a non-unit stride.
        flipped = np.ascontiguousarray(np.swapaxes(values, 0, -1))
        return flipped.swapaxes(0, -1)
    return values


@st.composite
def taps_for(draw, up, down):
    """The design filter for the pair, or arbitrary finite taps."""
    if draw(st.booleans()):
        return design_polyphase_filter(up, down)[0]
    n_taps = draw(st.integers(min_value=1, max_value=90))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=n_taps) * 10.0 ** rng.uniform(-6.0, 3.0)


def _same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@needs_native
class TestNativeUpfirdnBitIdentical:
    @PROPERTY
    @given(data=st.data(), up=RATES, down=RATES, x=batches())
    def test_raw_op_matches_reference(self, data, up, down, x):
        taps = data.draw(taps_for(up, down))
        native = _native_upfirdn()
        _same_bytes(
            native(taps, x, up, down), _upfirdn_numpy(taps, x, up, down)
        )

    @PROPERTY
    @given(up=RATES, down=RATES, x=batches())
    def test_resample_dispatch_matches_reference(self, up, down, x):
        with kernels.use("resample=numpy"):
            want = polyphase_resample(x, up, down)
        with kernels.use("resample=native"):
            got = polyphase_resample(x, up, down)
        _same_bytes(np.asarray(got), np.asarray(want))

    def test_dispatch_serves_the_c_op(self):
        with kernels.use("native"):
            op = kernels.dispatch("resample", "upfirdn")
        assert op is _native_upfirdn()
