"""Property tests: the fused sensor kernel is the numpy sensor, exactly.

The native ``sensor`` op draws each endpoint's jitter from an inlined
PCG64 through numpy's ziggurat and sums the masked latched bits in one
pass.  These properties pin it to the numpy reference
(``WaveformBank.sample(...)[:, mask].sum(axis=1)``) over generated
trace counts, seeds, jitter sigmas, masks and shared-jitter inputs, on
the few-edge ALU bank and the deep two-instance C6288 banks; check
that the generated corpus really reaches the ziggurat's rejection
path; and check that a corrupted recovered table makes the load-time
self-check refuse the op, so dispatch serves numpy instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import (
    EndpointWaveform,
    NonFiniteSensorInputError,
    SensorCalibration,
)
from repro.core.postprocess import hamming_weight_series
from repro.core.waveform_bank import WaveformBank, masked_weight_numpy
from repro.timing.delay_model import DelayModel
from repro.util import kernels, kernels_native
from repro.util.errors import ReproError
from repro.util.rng import make_rng

#: Deterministic example generation: the suite must not flake.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _native_sensor_op():
    provider = kernels_native.load_native()
    if provider is None:
        return None
    return provider.ops.get(("sensor", "masked_weight"))


NATIVE_OP = _native_sensor_op()

needs_native_sensor = pytest.mark.skipif(
    NATIVE_OP is None, reason="the native sensor kernel is not loaded here"
)

MASK_KINDS = ("empty", "one-hot", "all", "last", "random", "census")


def _mask(kind, num_bits, rng, census=None):
    mask = np.zeros(num_bits, dtype=bool)
    if kind == "one-hot":
        mask[rng.integers(num_bits)] = True
    elif kind == "all":
        mask[:] = True
    elif kind == "last":
        mask[-1] = True
    elif kind == "random":
        mask = rng.random(num_bits) < rng.random()
    elif kind == "census":
        mask = census.copy() if census is not None else rng.random(
            num_bits
        ) < 0.4
    return mask


@st.composite
def sensor_cases(draw, max_traces=5000):
    """N, jitter seed, sigma, mask kind, shared jitter on/off, data seed."""
    n = draw(st.integers(min_value=1, max_value=max_traces))
    seed = draw(st.integers(min_value=0, max_value=2**63 - 1))
    sigma = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-9, 45.0, 1e4, 1e12]),
            st.floats(min_value=0.0, max_value=500.0),
        )
    )
    kind = draw(st.sampled_from(MASK_KINDS))
    shared = draw(st.booleans())
    data_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, seed, sigma, kind, shared, data_seed


def _inputs(n, shared, data_seed):
    rng = np.random.default_rng(data_seed)
    voltages = rng.normal(0.97, 0.02, n)
    jitter = rng.normal(0.0, 85.0, n) if shared else None
    return voltages, jitter, rng


def _drawn(n, sigma, mask):
    """Normals the native op draws: n per endpoint up to the last mask."""
    if not sigma > 0 or not mask.any():
        return 0
    return n * (int(np.flatnonzero(mask)[-1]) + 1)


@pytest.fixture(scope="module")
def alu_calibration(alu_sensor):
    return alu_sensor.instances[0].calibration


@pytest.fixture(scope="module")
def census_mask(alu_campaign):
    return alu_campaign.characterization.census.ro_sensitive.copy()


@needs_native_sensor
class TestNativeEqualsNumpy:
    def test_alu_bank_over_generated_cases(
        self, alu_calibration, census_mask
    ):
        slow_draws = []

        @PROPERTY
        @given(case=sensor_cases())
        def check(case):
            n, seed, sigma, kind, shared, data_seed = case
            voltages, jitter, rng = _inputs(n, shared, data_seed)
            mask = _mask(kind, alu_calibration.num_bits, rng, census_mask)
            tau = alu_calibration._query_times(voltages, jitter)
            bank = alu_calibration.bank
            want = masked_weight_numpy(bank, tau, sigma, seed, mask)
            got = NATIVE_OP(bank, tau, sigma, seed, mask)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            draws = _drawn(n, sigma, mask)
            if draws:
                words = kernels_native._pcg64_words(
                    make_rng(seed, "endpoint-jitter")
                )
                slow_draws.append(NATIVE_OP.normals(words, draws)[2])

        check()
        # The corpus must reach numpy's rejection path, or the slow
        # branch of the fused draw would go untested.
        assert sum(slow_draws) > 0

    def test_calibration_dispatch_matches_reference(
        self, alu_calibration, census_mask
    ):
        @settings(PROPERTY, max_examples=25)
        @given(case=sensor_cases(max_traces=3000))
        def check(case):
            n, seed, sigma, kind, shared, data_seed = case
            voltages, jitter, rng = _inputs(n, shared, data_seed)
            mask = _mask(kind, alu_calibration.num_bits, rng, census_mask)
            args = dict(jitter_ps=sigma, seed=seed, shared_jitter_ps=jitter)
            with kernels.use("native"):
                got = alu_calibration.sample_weight(voltages, mask, **args)
            with kernels.use("numpy"):
                want = alu_calibration.sample_weight(voltages, mask, **args)
            bits = alu_calibration.sample_bits_reference(voltages, **args)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                got, bits[:, mask].sum(axis=1, dtype=np.int64)
            )

        check()

    def test_c6288_deep_banks_run_native(self, c6288_sensor):
        # The multiply tree has 10^4-edge endpoints: the fused op binary
        # searches them instead of falling back.
        assert max(
            inst.calibration.bank.max_edges
            for inst in c6288_sensor.instances
        ) > 16

        @settings(PROPERTY, max_examples=15)
        @given(case=sensor_cases(max_traces=1500))
        def check(case):
            n, seed, _sigma, kind, _shared, data_seed = case
            voltages, _jitter, rng = _inputs(n, False, data_seed)
            mask = _mask(kind, c6288_sensor.num_bits, rng)
            with kernels.use("native"):
                got = c6288_sensor.sample_weight(voltages, seed, mask)
            with kernels.use("numpy"):
                want = c6288_sensor.sample_weight(voltages, seed, mask)
            np.testing.assert_array_equal(got, want)

        check()

    @pytest.mark.parametrize("sigma", [0.0, 1e-300])
    def test_query_on_an_edge_latches_the_post_edge_value(
        self, alu_calibration, c6288_sensor, sigma
    ):
        # Ties are measure-zero under real jitter, so pin the inclusive
        # rule directly: query exactly at every edge time (a sigma this
        # small rounds the jitter away).
        banks = [alu_calibration.bank] + [
            inst.calibration.bank for inst in c6288_sensor.instances
        ]
        for bank in banks:
            step = max(1, bank.num_intervals // 4000)
            tau = bank.interval_times_ps[::step]
            mask = np.ones(bank.num_bits, dtype=bool)
            np.testing.assert_array_equal(
                NATIVE_OP(bank, tau, sigma, 3, mask),
                masked_weight_numpy(bank, tau, sigma, 3, mask),
            )

    def test_raw_normals_equal_generator_normal(self):
        rng = np.random.default_rng(2024)
        words = kernels_native._pcg64_words(rng)
        z, state, slow, tail = NATIVE_OP.normals(words, 1 << 16)
        np.testing.assert_array_equal(z, rng.normal(0.0, 1.0, 1 << 16))
        np.testing.assert_array_equal(
            state, kernels_native._pcg64_words(rng)[:2]
        )
        assert slow > 0 and tail > 0


class TestSensorLevelIdentity:
    """``sample_weight`` is ``hamming_weight_series(sample_bits(...))``.

    Holds on whichever backend serves the ``sensor`` kernel here, so
    it also runs where the native op is unavailable.
    """

    @pytest.mark.parametrize("reference", [False, True])
    def test_alu(self, alu_sensor, census_mask, reference):
        @settings(PROPERTY, max_examples=15)
        @given(case=sensor_cases(max_traces=2000))
        def check(case):
            n, seed, _sigma, kind, _shared, data_seed = case
            voltages, _jitter, rng = _inputs(n, False, data_seed)
            mask = _mask(kind, alu_sensor.num_bits, rng, census_mask)
            bits = alu_sensor.sample_bits(voltages, seed, reference)
            np.testing.assert_array_equal(
                alu_sensor.sample_weight(voltages, seed, mask, reference),
                hamming_weight_series(bits, mask),
            )

        check()

    def test_c6288_two_instances(self, c6288_sensor):
        rng = np.random.default_rng(7)
        voltages = rng.normal(0.97, 0.02, 800)
        bits = c6288_sensor.sample_bits(voltages, seed=3)
        for kind in MASK_KINDS:
            mask = _mask(kind, c6288_sensor.num_bits, rng)
            np.testing.assert_array_equal(
                c6288_sensor.sample_weight(voltages, 3, mask),
                hamming_weight_series(bits, mask),
            )

    def test_mask_none_means_all_bits(self, alu_sensor):
        voltages = np.linspace(0.9, 1.0, 300)
        np.testing.assert_array_equal(
            alu_sensor.sample_weight(voltages, seed=4),
            alu_sensor.sample_bits(voltages, seed=4).sum(axis=1),
        )

    def test_mask_shape_rejected(self, alu_sensor):
        with pytest.raises(ValueError, match="one entry per bit"):
            alu_sensor.sample_weight(np.ones(4), mask=np.ones(5, bool))

    def test_numpy_spec_selects_reference(self):
        with kernels.use("numpy"):
            assert (
                kernels.native_op("sensor", "masked_weight") is None
            )


class TestSelfCheck:
    def test_cc_provider_serves_the_sensor_op(self, monkeypatch):
        # With a compiler and numpy's archive present the op must load:
        # a self-check that refuses it here is a defect, not a fallback.
        if kernels_native._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        if kernels_native._numpy_random_archive() is None:
            pytest.skip("numpy ships no libnpyrandom.a here")
        kernels_native._reset_for_tests()
        try:
            provider = kernels_native.load_native()
            assert provider.refused == {}
            assert ("sensor", "masked_weight") in provider.ops
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_corrupted_table_refuses_the_op(self, monkeypatch):
        if kernels_native._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        recover = kernels_native._ziggurat_tables

        def corrupted(lib):
            wi, ki = recover(lib)
            wi[7] = np.nextafter(wi[7], np.inf)
            return wi, ki

        monkeypatch.setattr(kernels_native, "_ziggurat_tables", corrupted)
        kernels_native._reset_for_tests()
        try:
            provider = kernels_native.load_native()
            assert provider is not None and provider.provider == "cc"
            assert ("sensor", "masked_weight") not in provider.ops
            assert "self-check" in provider.refused["sensor"]
            # The other C kernels still load.
            assert ("cpa", "accumulate") in provider.ops
            with kernels.use("native"):
                assert kernels.active_backends()["sensor"] == "native"
                assert (
                    kernels.native_op("sensor", "masked_weight") is None
                )
                meta = kernels.backend_metadata()
                assert "self-check" in meta["native_refused"]["sensor"]
                assert "sensor native refused" in kernels.describe()
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_missing_archive_keeps_other_c_kernels(self, monkeypatch):
        if kernels_native._find_compiler() is None:
            pytest.skip("no C compiler on this host")
        monkeypatch.setattr(
            kernels_native, "_numpy_random_archive", lambda: None
        )
        kernels_native._reset_for_tests()
        try:
            provider = kernels_native.load_native()
            assert provider is not None
            assert "libnpyrandom.a" in provider.refused["sensor"]
            assert ("aes", "round_states") in provider.ops
            with kernels.use("native"):
                assert (
                    kernels.native_op("sensor", "masked_weight") is None
                )
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_no_provider_serves_numpy(self, monkeypatch):
        # A host without a C compiler.
        monkeypatch.setattr(kernels_native, "_find_compiler", lambda: None)
        kernels_native._reset_for_tests()
        try:
            assert kernels.native_op("sensor", "masked_weight") is None
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()


def _one_edge_calibration():
    waveform = EndpointWaveform(
        "n", np.array([-np.inf, 100.0]), np.array([0, 1], dtype=np.uint8)
    )
    return SensorCalibration([waveform], 3333.0, DelayModel())


class TestNonFiniteInputsRejected:
    """A NaN/Inf voltage or shared jitter is a structured error on every
    sampling path (it used to latch path-dependent bits)."""

    PATHS = ("bank", "reference", "weight")

    def _sample(self, calibration, path, voltages, shared=None):
        args = dict(jitter_ps=1e-9, seed=0, shared_jitter_ps=shared)
        if path == "bank":
            return calibration.sample_bits(voltages, **args)
        if path == "reference":
            return calibration.sample_bits_reference(voltages, **args)
        return calibration.sample_weight(voltages, np.ones(1, bool), **args)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voltage(self, path, bad):
        calibration = _one_edge_calibration()
        voltages = np.array([1.0, 0.98, bad, bad])
        with pytest.raises(NonFiniteSensorInputError) as info:
            self._sample(calibration, path, voltages)
        assert isinstance(info.value, ReproError)
        message = str(info.value)
        assert "\n" not in message
        assert "supply voltage at cycle 2" in message

    @pytest.mark.parametrize("path", PATHS)
    def test_non_finite_shared_jitter(self, path):
        calibration = _one_edge_calibration()
        shared = np.array([0.0, np.nan, 0.0])
        with pytest.raises(NonFiniteSensorInputError, match="cycle 1"):
            self._sample(calibration, path, np.ones(3), shared)

    def test_paths_agree_on_finite_input(self):
        calibration = _one_edge_calibration()
        voltages = np.array([0.5, 0.97, 1.0, 1.2])
        bits = calibration.sample_bits_reference(voltages, jitter_ps=1e-9)
        np.testing.assert_array_equal(
            calibration.sample_bits(voltages, jitter_ps=1e-9), bits
        )
        np.testing.assert_array_equal(
            calibration.sample_weight(
                voltages, np.ones(1, bool), jitter_ps=1e-9
            ),
            bits[:, 0],
        )

    def test_sensor_level_names_the_cycle(self, alu_sensor):
        voltages = np.full(5, 0.97)
        voltages[3] = np.nan
        for sample in (alu_sensor.sample_bits, alu_sensor.sample_weight):
            with pytest.raises(NonFiniteSensorInputError, match="cycle 3"):
                sample(voltages, seed=1)


def test_bank_keeps_raw_semantics():
    # The guard lives in the calibration layer the three paths share;
    # the raw bank still answers query times it is handed.
    bank = WaveformBank(
        [
            EndpointWaveform(
                "n",
                np.array([-np.inf, 100.0]),
                np.array([0, 1], dtype=np.uint8),
            )
        ]
    )
    assert bank.sample(np.array([200.0]), jitter_ps=1e-9).tolist() == [[1]]
