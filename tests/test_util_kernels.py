"""Tests for the kernel dispatch registry and its backends.

The contract under test: every backend of every hot kernel (batched
AES, PDN IIR recurrence, streaming-CPA accumulate) is **bit-identical**
to the numpy reference — the equality suite below is parametrized over
whatever backends actually load on this host, so the same tests gate
the numba provider, the cc/ctypes provider, and the scipy path alike.
"""

import os
import pickle

import numpy as np
import pytest

from repro.aes.batch import (
    BatchedAES128,
    cycle_activity_and_ciphertexts,
    cycle_activity_from_states,
    cycle_hd_from_states,
)
from repro.aes.datapath import DatapathSchedule
from repro.attacks.cpa import NonFiniteValuesError, StreamingCPA
from repro.attacks.models import (
    hamming_weight_hypothesis,
    single_bit_hypothesis,
)
from repro.experiments.parallel import sharded_attack
from repro.pdn.model import PDNModel, PDNParameters
from repro.util import kernels, kernels_native
from repro.util.rng import derive_seed, make_rng

# Probed once at collection: the suite parametrizes over the backends
# this host can actually serve (numpy everywhere; scipy and native
# where available).
AES_BACKENDS = kernels.available_backends("aes")
PDN_BACKENDS = kernels.available_backends("pdn")
CPA_BACKENDS = kernels.available_backends("cpa")

NATIVE = "native" in AES_BACKENDS

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no native kernel provider on this host"
)


@pytest.fixture
def no_native():
    """Simulate a host without numba or a C compiler."""
    saved = os.environ.get(kernels_native.PROVIDER_ENV)
    os.environ[kernels_native.PROVIDER_ENV] = "none"
    kernels.invalidate_cache()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(kernels_native.PROVIDER_ENV, None)
        else:
            os.environ[kernels_native.PROVIDER_ENV] = saved
        kernels.invalidate_cache()


class TestParseSpec:
    def test_none_and_empty_mean_auto(self):
        for spec in (None, "", "  "):
            assert kernels.parse_spec(spec) == {
                "aes": "auto", "pdn": "auto", "cpa": "auto",
                "resample": "auto", "sensor": "auto",
            }

    @pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
    def test_single_mode_applies_to_all(self, mode):
        assert kernels.parse_spec(mode) == {
            kernel: mode for kernel in kernels.KERNEL_NAMES
        }

    def test_per_kernel_map(self):
        assert kernels.parse_spec("aes=native, pdn=scipy") == {
            "aes": "native", "pdn": "scipy", "cpa": "auto",
            "resample": "auto", "sensor": "auto",
        }

    def test_unknown_mode_rejected(self):
        with pytest.raises(kernels.KernelConfigError, match="turbo"):
            kernels.parse_spec("turbo")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(kernels.KernelConfigError, match="rsa"):
            kernels.parse_spec("rsa=native")

    def test_unknown_mode_for_kernel_rejected(self):
        with pytest.raises(kernels.KernelConfigError, match="fast"):
            kernels.parse_spec("aes=fast")

    def test_error_message_names_accepted_values(self):
        with pytest.raises(kernels.KernelConfigError, match="native"):
            kernels.parse_spec("bogus")


class TestConfigureAndUse:
    def test_configure_exports_env_and_returns_map(self):
        try:
            resolved = kernels.configure("numpy")
            assert resolved == {
                kernel: "numpy" for kernel in kernels.KERNEL_NAMES
            }
            assert os.environ.get(kernels.KERNELS_ENV) == "numpy"
            assert kernels.active_backends() == resolved
        finally:
            kernels.configure(None)
        assert kernels.KERNELS_ENV not in os.environ

    def test_use_restores_previous_selection(self):
        before = kernels.active_backends()
        with kernels.use("numpy") as resolved:
            assert set(resolved.values()) == {"numpy"}
            assert os.environ.get(kernels.KERNELS_ENV) == "numpy"
        assert kernels.active_backends() == before
        assert os.environ.get(kernels.KERNELS_ENV) is None

    def test_use_none_is_passthrough(self):
        before = kernels.active_backends()
        with kernels.use(None) as resolved:
            assert resolved == before
        assert kernels.active_backends() == before

    def test_use_nests(self):
        with kernels.use("numpy"):
            with kernels.use("auto"):
                pass
            assert kernels.active_backends() == {
                kernel: "numpy" for kernel in kernels.KERNEL_NAMES
            }

    def test_env_var_drives_selection(self):
        saved = os.environ.get(kernels.KERNELS_ENV)
        try:
            os.environ[kernels.KERNELS_ENV] = "numpy"
            assert set(kernels.active_backends().values()) == {"numpy"}
        finally:
            if saved is None:
                os.environ.pop(kernels.KERNELS_ENV, None)
            else:
                os.environ[kernels.KERNELS_ENV] = saved

    def test_invalid_spec_fails_eagerly(self):
        with pytest.raises(kernels.KernelConfigError):
            kernels.configure("warp")
        # A failed configure must not change the selection.
        assert kernels.KERNELS_ENV not in os.environ


class TestAvailability:
    def test_numpy_always_available(self):
        for kernel in kernels.KERNEL_NAMES:
            assert "numpy" in kernels.available_backends(kernel)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernels.available_backends("rsa")

    def test_scipy_mode_without_scipy_ops_falls_back(self):
        # aes/cpa have no scipy form; requesting scipy must degrade to
        # the reference path, not fail.
        with kernels.use("scipy") as resolved:
            assert resolved["aes"] == "numpy"
            assert resolved["cpa"] == "numpy"

    def test_dispatch_falls_back_to_numpy_for_missing_ops(self):
        with kernels.use("scipy"):
            op = kernels.dispatch("aes", "round_states")
        from repro.aes.batch import _round_states_numpy

        assert op is _round_states_numpy

    def test_backend_metadata_shape(self):
        meta = kernels.backend_metadata()
        assert set(meta) == {
            "kernel_backends", "native_provider", "native_refused", "numba",
        }
        assert set(meta["kernel_backends"]) == set(kernels.KERNEL_NAMES)

    def test_describe_is_one_line(self):
        line = kernels.describe()
        assert line.startswith("kernels: ")
        assert "\n" not in line
        for kernel in kernels.KERNEL_NAMES:
            assert kernel + "=" in line


class TestNativeUnavailable:
    def test_native_request_is_structured_error(self, no_native):
        with pytest.raises(kernels.KernelUnavailableError):
            kernels.configure("native")

    def test_auto_resolves_cleanly_without_native(self, no_native):
        resolved = kernels.active_backends()
        assert "native" not in resolved.values()
        assert set(resolved.values()) <= {"numpy", "scipy"}

    def test_error_names_missing_dependency(self, monkeypatch):
        # Simulate a host with neither numba nor a C compiler: the
        # error must name what to install, not just say "unavailable".
        # Pin the provider to auto so an outer REPRO_NATIVE_PROVIDER
        # (e.g. the numpy-fallback CI run) doesn't preempt the probe.
        monkeypatch.setenv(kernels_native.PROVIDER_ENV, "auto")
        monkeypatch.setattr(kernels_native, "numba", None)
        monkeypatch.setattr(
            kernels_native, "_find_compiler", lambda: None
        )
        kernels.invalidate_cache()
        try:
            with pytest.raises(
                kernels.KernelUnavailableError
            ) as excinfo:
                kernels.configure("native")
            message = str(excinfo.value)
            assert "numba" in message
            assert "compiler" in message
        finally:
            kernels.invalidate_cache()

    def test_describe_reports_unavailable_reason(self, no_native):
        line = kernels.describe()
        assert "native: unavailable" in line


# ----------------------------------------------------------------------
# Exact-equality property suite: every available backend, random
# seeded inputs, byte-for-byte / bit-for-bit comparison to numpy.
# ----------------------------------------------------------------------


def _aes_case(seed):
    rng = make_rng(derive_seed(seed, "kernels-aes"))
    key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
    # 257 trips the non-multiple-of-word paths; vary weights too.
    plaintexts = rng.integers(0, 256, size=(257, 16), dtype=np.uint8)
    return key, plaintexts


class TestAESBackendsBitIdentical:
    @pytest.mark.parametrize("backend", AES_BACKENDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_round_states(self, backend, seed):
        key, plaintexts = _aes_case(seed)
        with kernels.use("numpy"):
            reference = BatchedAES128(key).round_states(plaintexts)
        with kernels.use(backend):
            got = BatchedAES128(key).round_states(plaintexts)
        assert got.dtype == reference.dtype
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    @pytest.mark.parametrize("cycles_per_round", [1, 3, 4, 6])
    def test_cycle_hd_and_activity(self, backend, cycles_per_round):
        key, plaintexts = _aes_case(cycles_per_round)
        schedule = DatapathSchedule(cycles_per_round=cycles_per_round)
        with kernels.use("numpy"):
            states = BatchedAES128(key).round_states(plaintexts)
            ref_hd = cycle_hd_from_states(states, schedule)
            ref_act = cycle_activity_from_states(
                states, schedule,
                value_weight=0.7, transition_weight=0.3,
            )
        with kernels.use(backend):
            got_hd = cycle_hd_from_states(states, schedule)
            got_act = cycle_activity_from_states(
                states, schedule,
                value_weight=0.7, transition_weight=0.3,
            )
        assert np.array_equal(got_hd, ref_hd)
        assert got_act.dtype == ref_act.dtype
        assert np.array_equal(got_act, ref_act)

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    @pytest.mark.parametrize("seed", [4, 5])
    def test_fused_activity_and_ciphertexts(self, backend, seed):
        key, plaintexts = _aes_case(seed)
        with kernels.use("numpy"):
            batched = BatchedAES128(key)
            states = batched.round_states(plaintexts)
            ref_act = cycle_activity_from_states(
                states, value_weight=1.0, transition_weight=0.5
            )
            ref_ct = states[:, 11]
        with kernels.use(backend):
            got_act, got_ct = cycle_activity_and_ciphertexts(
                BatchedAES128(key), plaintexts,
                value_weight=1.0, transition_weight=0.5,
            )
        assert np.array_equal(got_act, ref_act)
        assert np.array_equal(got_ct, ref_ct)

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    @pytest.mark.parametrize("bit", [0, 3, 7])
    def test_hypothesis_blocks(self, backend, bit):
        rng = make_rng(derive_seed(bit, "kernels-hyp"))
        ct_bytes = rng.integers(0, 256, size=513, dtype=np.uint8)
        with kernels.use("numpy"):
            ref_bit = single_bit_hypothesis(ct_bytes, bit)
            ref_hw = hamming_weight_hypothesis(ct_bytes)
        with kernels.use(backend):
            got_bit = single_bit_hypothesis(ct_bytes, bit)
            got_hw = hamming_weight_hypothesis(ct_bytes)
        assert got_bit.dtype == np.int8 and got_hw.dtype == np.int8
        assert np.array_equal(got_bit, ref_bit)
        assert np.array_equal(got_hw, ref_hw)

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    def test_matches_fips197_ciphertext(self, backend):
        # FIPS-197 appendix C.1 vector, through every backend.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        with kernels.use(backend):
            ciphertext = BatchedAES128(key).encrypt(
                np.frombuffer(plaintext, dtype=np.uint8).reshape(1, 16)
            )
        assert bytes(ciphertext[0]) == expected


class TestPDNBackendsBitIdentical:
    PARAM_SETS = [
        PDNParameters(),
        PDNParameters(damping=0.35),
        PDNParameters(resonance_hz=2.5e6, damping=0.12),
    ]

    @pytest.mark.parametrize("backend", PDN_BACKENDS)
    @pytest.mark.parametrize("index", range(len(PARAM_SETS)))
    def test_integrate_matches_reference(self, backend, index):
        model = PDNModel(params=self.PARAM_SETS[index])
        rng = make_rng(derive_seed(index, "kernels-pdn"))
        current = rng.normal(0.02, 0.01, size=777)
        reference = model._integrate_reference(current)
        with kernels.use(backend):
            got = model._integrate(current)
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize("backend", PDN_BACKENDS)
    def test_integrate_batch_matches_rowwise(self, backend):
        model = PDNModel()
        rng = make_rng(derive_seed(9, "kernels-pdn-batch"))
        currents = rng.normal(0.02, 0.01, size=(23, 301))
        reference = np.stack(
            [model._integrate_reference(row) for row in currents]
        )
        with kernels.use(backend):
            got = model.integrate_batch(currents)
        assert np.array_equal(got, reference)


class TestCPABackendsBitIdentical:
    @staticmethod
    def _blocks(seed, dtype):
        rng = make_rng(derive_seed(seed, "kernels-cpa"))
        blocks = []
        for size in (64, 1, 37, 256):
            x = rng.integers(0, 33, size=size).astype(np.float64)
            h = rng.integers(0, 9, size=(size, 256)).astype(dtype)
            blocks.append((x, h))
        return blocks

    @pytest.mark.parametrize("backend", CPA_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_streaming_state_bit_identical(self, backend, dtype):
        blocks = self._blocks(3, dtype)
        reference = StreamingCPA()
        with kernels.use("numpy"):
            for x, h in blocks:
                reference.update(x, h)
        engine = StreamingCPA()
        with kernels.use(backend):
            for x, h in blocks:
                engine.update(x, h)
        assert engine.count == reference.count
        for name, array in reference.state_arrays().items():
            assert np.array_equal(engine.state_arrays()[name], array), (
                name
            )
        assert np.array_equal(
            engine.correlations(), reference.correlations()
        )

    @pytest.mark.parametrize("backend", CPA_BACKENDS)
    def test_nonfinite_leakage_exact_error(self, backend):
        engine = StreamingCPA(num_candidates=4)
        x = np.arange(8, dtype=np.float64)
        h = np.ones((8, 4), dtype=np.int8)
        with kernels.use(backend):
            engine.update(x, h)
            bad = x.copy()
            bad[5] = np.nan
            with pytest.raises(NonFiniteValuesError) as excinfo:
                engine.update(bad, h)
        assert excinfo.value.which == "leakage"
        assert list(excinfo.value.indices) == [8 + 5]
        # The failed block must not have touched the accumulator.
        assert engine.count == 8
        assert engine._sum_x == x.sum()

    @pytest.mark.parametrize("backend", CPA_BACKENDS)
    def test_nonfinite_hypotheses_exact_error(self, backend):
        engine = StreamingCPA(num_candidates=4)
        x = np.arange(6, dtype=np.float64)
        h = np.ones((6, 4), dtype=np.float64)
        h[2, 3] = np.inf
        with kernels.use(backend):
            with pytest.raises(NonFiniteValuesError) as excinfo:
                engine.update(x, h)
        assert excinfo.value.which == "hypotheses"
        assert list(excinfo.value.indices) == [2]
        assert engine.count == 0

    @pytest.mark.parametrize("backend", CPA_BACKENDS)
    def test_merge_stays_order_independent(self, backend):
        blocks = self._blocks(11, np.int8)
        whole = StreamingCPA()
        with kernels.use(backend):
            for x, h in blocks:
                whole.update(x, h)
            left, right = StreamingCPA(), StreamingCPA()
            for x, h in blocks[:2]:
                left.update(x, h)
            for x, h in blocks[2:]:
                right.update(x, h)
            left.merge(right)
        assert np.array_equal(
            whole.correlations(), left.correlations()
        )


# ----------------------------------------------------------------------
# Process-pool composition: native kernels must survive pickling and
# fork/spawn, and sharded campaigns must stay bit-identical to serial.
# ----------------------------------------------------------------------


class TestNativeProcessSafety:
    @needs_native
    def test_campaign_objects_stay_picklable(self):
        with kernels.use("native"):
            engine = StreamingCPA(num_candidates=8)
            engine.update(
                np.arange(4, dtype=np.float64),
                np.ones((4, 8), dtype=np.int8),
            )
            clone = pickle.loads(pickle.dumps(engine))
            model = pickle.loads(pickle.dumps(PDNModel()))
            batched = pickle.loads(
                pickle.dumps(BatchedAES128(bytes(range(16))))
            )
            # The clones keep working under the native backend.
            clone.update(
                np.arange(4, dtype=np.float64),
                np.ones((4, 8), dtype=np.int8),
            )
            model.integrate_batch(np.ones((2, 16)))
            batched.round_states(
                np.zeros((2, 16), dtype=np.uint8)
            )
        assert clone.count == 8

    @needs_native
    def test_process_pool_native_merges_bit_identical(
        self, alu_campaign
    ):
        # Same chunk layout on both sides (chunk boundaries seed the
        # per-chunk RNG streams); only the backend and executor differ.
        with kernels.use("numpy"):
            serial = sharded_attack(
                alu_campaign, 4000, max_workers=1, chunk_size=1000
            )
        with kernels.use("native"):
            sharded = sharded_attack(
                alu_campaign, 4000,
                max_workers=2, chunk_size=1000, executor="process",
            )
        assert np.array_equal(
            serial.correlations, sharded.correlations
        )

    @needs_native
    def test_spec_reaches_workers_through_env(self):
        # configure() exports REPRO_KERNELS so pool workers (fork or
        # spawn) resolve the same backends as the driver.
        with kernels.use("aes=native,pdn=numpy"):
            assert (
                os.environ[kernels.KERNELS_ENV]
                == "aes=native,pdn=numpy"
            )
            resolved = kernels.active_backends()
        assert resolved["aes"] == "native"
        assert resolved["pdn"] == "numpy"
