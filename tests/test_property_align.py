"""Property tests: shift estimation and POI-only preprocessing are exact.

Three contracts, each pinned byte for byte over generated inputs:

* the native ``repro_align`` kernel returns the numpy reference's
  shifts *and* scores for both metrics, over lengths 2 to 300 (both
  sides of pairwise summation's 8- and 128-element thresholds),
  ``max_shift`` up to ``length - 1``, and constant, integer-valued and
  shifted-copy rows (the tie-prone cases);
* a row's shift depends on that row alone, on every backend — the
  invariant that lets shard boundaries fall anywhere;
* :meth:`ResolvedPreprocess.read` equals the full align → crop →
  resample chain at the requested samples, and POI resolution through
  it selects the samples ranking the whole processed pilot would.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aes import AES128
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.preprocess import (
    MisalignmentSpec,
    PreprocessError,
    PreprocessSpec,
    ResolvedPreprocess,
    apply_shifts,
    crop,
    estimate_shifts,
    polyphase_resample,
    resampled_length,
    resolve_preprocess,
    select_poi,
)
from repro.preprocess import align
from repro.preprocess.pipeline import (
    _byte_for_column,
    _hamming_weights,
    _map_index,
)
from repro.util import kernels, kernels_native
from repro.util.rng import derive_seed

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
SLOW_PROPERTY = settings(derandomize=True, deadline=None, max_examples=12)

BACKENDS = kernels.available_backends("align")
METRICS = st.sampled_from(["correlation", "sad"])


def _native_estimate():
    provider = kernels_native.load_native()
    if provider is None:
        return None
    return provider.ops.get(("align", "estimate"))


needs_native = pytest.mark.skipif(
    _native_estimate() is None,
    reason="the native align kernel is not loaded here",
)


@st.composite
def alignment_cases(draw, min_rows=1):
    """``(traces, reference, max_shift)`` with tie-prone rows mixed in."""
    length = draw(st.integers(min_value=2, max_value=300))
    max_shift = draw(st.integers(min_value=1, max_value=length - 1))
    num = draw(st.integers(min_value=min_rows, max_value=8))
    kind = draw(
        st.sampled_from(["normal", "integer", "constant", "shifted", "mixed"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = rng.normal(size=length) * 10.0 ** rng.uniform(-3.0, 3.0)
    normal = rng.normal(size=(num, length)) * 10.0 ** rng.uniform(-6.0, 6.0)
    integer = rng.integers(-3, 4, size=(num, length)).astype(np.float64)
    constant = np.repeat(rng.normal(size=(num, 1)), length, axis=1)
    shifted = np.stack(
        [
            np.roll(reference, int(s)) * rng.uniform(0.5, 2.0)
            + rng.normal()
            for s in rng.integers(-max_shift, max_shift + 1, size=num)
        ]
    )
    if kind == "mixed":
        pick = rng.integers(0, 4, size=num)
        traces = np.stack([normal, integer, constant, shifted])[
            pick, np.arange(num)
        ]
    else:
        traces = {
            "normal": normal,
            "integer": integer,
            "constant": constant,
            "shifted": shifted,
        }[kind]
    return traces, reference, max_shift


def _same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@needs_native
class TestNativeAlignBitIdentical:
    @PROPERTY
    @given(case=alignment_cases(), metric=METRICS)
    def test_shifts_and_scores_match_reference(self, case, metric):
        traces, reference, max_shift = case
        want = align._estimate_numpy(traces, reference, max_shift, metric)
        got = _native_estimate()(traces, reference, max_shift, metric)
        _same_bytes(got[0], want[0])
        _same_bytes(got[1], want[1])

    @PROPERTY
    @given(case=alignment_cases(), metric=METRICS)
    def test_dispatch_matches_reference(self, case, metric):
        traces, reference, max_shift = case
        with kernels.use("numpy"):
            want = estimate_shifts(traces, reference, max_shift, metric)
        with kernels.use("native"):
            got = estimate_shifts(traces, reference, max_shift, metric)
        _same_bytes(got, want)

    def test_dispatch_serves_the_c_op(self):
        with kernels.use("native"):
            op = kernels.native_op("align", "estimate")
        assert op is _native_estimate()


class TestRowLocality:
    @PROPERTY
    @given(
        case=alignment_cases(min_rows=2),
        metric=METRICS,
        data=st.data(),
        backend=st.sampled_from(BACKENDS),
    )
    def test_a_row_shift_ignores_its_batch(self, case, metric, data, backend):
        traces, reference, max_shift = case
        num = traces.shape[0]
        a = data.draw(st.integers(min_value=0, max_value=num - 1))
        b = data.draw(st.integers(min_value=a + 1, max_value=num))
        with kernels.use(backend):
            whole = estimate_shifts(traces, reference, max_shift, metric)
            part = estimate_shifts(traces[a:b], reference, max_shift, metric)
        _same_bytes(part, whole[a:b])


class TestSelfCheck:
    def test_cc_provider_serves_the_align_op(self, monkeypatch):
        # With a compiler the op must load: a self-check that refuses
        # it here is a defect, not a fallback.
        if kernels_native._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        kernels_native._reset_for_tests()
        try:
            provider = kernels_native.load_native()
            assert "align" not in provider.refused
            assert ("align", "estimate") in provider.ops
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_failed_check_refuses_the_op(self, monkeypatch):
        if kernels_native._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        reference = align._estimate_numpy

        def perturbed(traces, ref, max_shift, metric):
            shifts, scores = reference(traces, ref, max_shift, metric)
            return shifts, np.nextafter(scores, np.inf)

        monkeypatch.setattr(align, "_estimate_numpy", perturbed)
        kernels_native._reset_for_tests()
        try:
            provider = kernels_native.load_native()
            assert provider is not None and provider.provider == "cc"
            assert ("align", "estimate") not in provider.ops
            assert "self-check" in provider.refused["align"]
            assert ("pdn", "integrate") in provider.ops
            with kernels.use("native"):
                assert kernels.active_backends()["align"] == "native"
                assert kernels.native_op("align", "estimate") is None
                meta = kernels.backend_metadata()
                assert "self-check" in meta["native_refused"]["align"]
                assert "align native refused" in kernels.describe()
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()


#: A 72-sample geometry like the default generator's.
SAMPLES = 72
RESAMPLE = st.one_of(
    st.none(),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.integers(1, 4).map(lambda k: (k, k)),  # reduces to 1/1
)


def _full_chain(plan: ResolvedPreprocess, voltages: np.ndarray) -> np.ndarray:
    """Every processed sample, built stage by stage."""
    spec = plan.spec
    v = voltages
    if spec.align != "none":
        shifts = estimate_shifts(v, plan.reference, spec.max_shift, spec.align)
        v = apply_shifts(v, shifts)
    if spec.window is not None:
        v = crop(v, *spec.window)
    if spec.resample is not None:
        v = polyphase_resample(v, *spec.resample)
    return v


@st.composite
def plans(draw):
    """A resolved plan over a drawn spec, without a generator."""
    start = draw(st.integers(min_value=0, max_value=SAMPLES - 3))
    end = draw(st.integers(min_value=start + 2, max_value=SAMPLES))
    window = draw(st.sampled_from([None, (start, end)]))
    align_method = draw(st.sampled_from(["none", "correlation", "sad"]))
    length = SAMPLES if window is None else end - start
    spec = PreprocessSpec(
        window=window,
        align=align_method,
        max_shift=draw(st.integers(min_value=1, max_value=6)),
        resample=draw(RESAMPLE),
    )
    processed = (
        length
        if spec.resample is None
        else resampled_length(length, *spec.resample)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = np.sin(np.arange(SAMPLES) / 3.0) + rng.normal(
        scale=0.1, size=SAMPLES
    )
    plan = ResolvedPreprocess(
        spec=spec,
        reference=None if align_method == "none" else reference,
        num_samples=SAMPLES,
        processed_samples=int(processed),
    )
    traces = np.stack(
        [np.roll(reference, int(s)) for s in rng.integers(-4, 5, size=6)]
    ) + rng.normal(scale=0.05, size=(6, SAMPLES))
    return plan, traces


class TestReadIsTheFullChain:
    @PROPERTY
    @given(case=plans(), data=st.data())
    def test_read_matches_full_chain(self, case, data):
        plan, traces = case
        last = plan.processed_samples - 1
        samples = data.draw(
            st.lists(st.integers(0, last), min_size=0, max_size=6)
        ) + [0, last]
        full = _full_chain(plan, traces)
        assert full.shape == (traces.shape[0], plan.processed_samples)
        _same_bytes(np.ascontiguousarray(plan.read(traces, samples)),
                    np.ascontiguousarray(full[:, samples]))

    @PROPERTY
    @given(case=plans())
    def test_apply_is_read_everywhere(self, case):
        plan, traces = case
        _same_bytes(plan.apply(traces), _full_chain(plan, traces))

    def test_read_rejects_samples_outside_the_trace(self):
        plan = ResolvedPreprocess(
            spec=PreprocessSpec(resample=(3, 2)),
            reference=None,
            num_samples=SAMPLES,
            processed_samples=resampled_length(SAMPLES, 3, 2),
        )
        with pytest.raises(PreprocessError, match="outside"):
            plan.read(np.zeros((2, SAMPLES)), [plan.processed_samples])


def _oracle_column_samples(plan, generator, seed, columns, target_byte):
    """POI selection ranked on the whole processed pilot batch."""
    spec = plan.spec
    pilot = generator.generate(
        random_plaintexts(
            spec.poi_traces, seed=derive_seed(seed, "preprocess-pilot")
        ),
        seed=derive_seed(seed, "preprocess-pilot-noise"),
    )
    full = _full_chain(plan, pilot["voltages"])
    scale = spec.resample[0] / spec.resample[1] if spec.resample else 1.0
    radius = max(1, int(round(generator.samples_per_cycle * scale / 2)))
    aligned = generator.last_round_sample_indices()
    expected = {}
    for column in columns:
        index = min(
            _map_index(spec, int(aligned[column]), generator.num_samples),
            plan.processed_samples - 1,
        )
        pool = np.arange(
            max(0, index - radius),
            min(plan.processed_samples, index + radius + 1),
        )
        classes = None
        if spec.poi == "sost":
            byte = _byte_for_column(column, target_byte)
            classes = _hamming_weights(pilot["ciphertexts"][:, byte])
        expected[column] = select_poi(
            full, spec.poi, spec.num_poi, classes=classes, candidates=pool
        )
    return expected


class TestPoiResolutionThroughRead:
    @SLOW_PROPERTY
    @given(
        poi=st.sampled_from(["variance", "sost"]),
        num_poi=st.integers(1, 4),
        align_method=st.sampled_from(["none", "correlation", "sad"]),
        resample=RESAMPLE,
        window=st.sampled_from([None, (4, 70), (40, 72)]),
        columns=st.sampled_from([(3,), (0,), (0, 1, 2, 3)]),
        seed=st.integers(0, 1000),
    )
    def test_column_samples_match_full_chain_ranking(
        self, poi, num_poi, align_method, resample, window, columns, seed
    ):
        generator = PhysicalTraceGenerator(
            AES128(bytes(range(16))),
            misalignment=MisalignmentSpec(shift_mode="uniform", shift_samples=2),
        )
        spec = PreprocessSpec(
            window=window,
            align=align_method,
            max_shift=3,
            resample=resample,
            poi=poi,
            num_poi=num_poi,
            poi_traces=96,
        )
        plan = resolve_preprocess(spec, generator, seed, columns=columns)
        expected = _oracle_column_samples(plan, generator, seed, columns, 3)
        assert set(plan.column_samples) == set(expected)
        for column, samples in expected.items():
            _same_bytes(plan.column_samples[column], samples)
