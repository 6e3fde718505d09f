"""Tests for the kernel dispatch registry and its backends.

The contract under test: every backend of every hot kernel (batched
AES, PDN IIR recurrence, streaming-CPA accumulate) is **bit-identical**
to the numpy reference — the equality suite below is parametrized over
whatever backends actually load on this host (numpy everywhere, the
cc/ctypes provider where a C compiler exists).
"""

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.pdn.model import PDNModel, PDNParameters
from repro.util import kernels, kernels_native
from repro.util.rng import derive_seed, make_rng

# Probed once at collection: the suite parametrizes over the backends
# this host can actually serve (numpy everywhere; native where a C
# compiler exists).
AES_BACKENDS = kernels.available_backends("aes")
PDN_BACKENDS = kernels.available_backends("pdn")
CPA_BACKENDS = kernels.available_backends("cpa")

NATIVE = "native" in AES_BACKENDS

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no native kernel provider on this host"
)


@pytest.fixture
def no_native():
    """Simulate a host without a C compiler."""
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
        assert kernels.parse_spec("aes=native, pdn=numpy") == {
            "aes": "native", "pdn": "numpy", "cpa": "auto",
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


#: The modes the grammar accepts; anything else is a config error.
MODES = ("auto", "numpy", "native")
#: Deterministic example generation: the suite must not flake.
FUZZ = settings(derandomize=True, deadline=None, max_examples=200)
_WORDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzAEN0123456789_-.", min_size=1,
    max_size=12,
)
#: Mode strings that must be rejected: removed backends, wrong case,
#: and arbitrary words.
_BAD_MODES = st.one_of(
    st.sampled_from(["scipy", "numba", "cc", "NUMPY", "Native", "none"]),
    _WORDS.filter(lambda word: word not in MODES),
)
_BAD_KERNELS = _WORDS.filter(lambda word: word not in kernels.KERNEL_NAMES)


class TestSpecGrammarFuzz:
    def test_modes_are_numpy_and_native_only(self):
        assert kernels.KERNEL_MODES == MODES

    @FUZZ
    @given(
        entries=st.dictionaries(
            st.sampled_from(kernels.KERNEL_NAMES), st.sampled_from(MODES)
        ),
        separator=st.sampled_from([",", ", ", " , "]),
    )
    def test_every_map_parses_to_its_dict(self, entries, separator):
        spec = separator.join("%s=%s" % item for item in entries.items())
        expected = {kernel: "auto" for kernel in kernels.KERNEL_NAMES}
        expected.update(entries)
        assert kernels.parse_spec(spec) == expected

    @FUZZ
    @given(mode=_BAD_MODES)
    def test_unknown_single_mode_rejected(self, mode):
        with pytest.raises(kernels.KernelConfigError):
            kernels.parse_spec(mode)

    @FUZZ
    @given(
        entries=st.dictionaries(
            st.sampled_from(kernels.KERNEL_NAMES), st.sampled_from(MODES)
        ),
        kernel=st.sampled_from(kernels.KERNEL_NAMES),
        mode=_BAD_MODES,
    )
    def test_unknown_mode_in_a_map_rejected(self, entries, kernel, mode):
        entries = dict(entries, **{kernel: mode})
        spec = ",".join("%s=%s" % item for item in entries.items())
        with pytest.raises(kernels.KernelConfigError, match="mode"):
            kernels.parse_spec(spec)

    @FUZZ
    @given(name=_BAD_KERNELS, mode=st.sampled_from(MODES))
    def test_unknown_kernel_name_rejected(self, name, mode):
        with pytest.raises(kernels.KernelConfigError, match="kernel"):
            kernels.parse_spec("aes=numpy,%s=%s" % (name, mode))


class TestProviderValue:
    @pytest.mark.parametrize("provider", ["numba", "cc", "scipy", "turbo"])
    def test_unknown_provider_is_a_config_error(self, provider, monkeypatch):
        # Before: an unknown value disabled the C library and auto
        # quietly resolved every kernel to numpy.
        monkeypatch.setenv(kernels_native.PROVIDER_ENV, provider)
        kernels.invalidate_cache()
        try:
            for spec in (None, "auto", "numpy", "native", "aes=native"):
                with pytest.raises(
                    kernels.KernelConfigError, match=provider
                ) as excinfo:
                    kernels.configure(spec)
                assert "\n" not in str(excinfo.value)
            with pytest.raises(kernels.KernelConfigError):
                kernels.active_backends()
        finally:
            monkeypatch.undo()
            kernels.invalidate_cache()
        assert kernels.KERNELS_ENV not in os.environ

    @pytest.mark.parametrize("provider", ["auto", " AUTO ", ""])
    def test_auto_loads_the_c_library(self, provider, monkeypatch):
        monkeypatch.setenv(kernels_native.PROVIDER_ENV, provider)
        kernels.invalidate_cache()
        try:
            resolved = kernels.configure("auto")
            expected = "native" if NATIVE else "numpy"
            assert set(resolved.values()) == {expected}
        finally:
            kernels.configure(None)
            monkeypatch.undo()
            kernels.invalidate_cache()

    def test_none_resolves_everything_to_numpy(self, no_native):
        resolved = kernels.configure("auto")
        try:
            assert resolved == {
                kernel: "numpy" for kernel in kernels.KERNEL_NAMES
            }
        finally:
            kernels.configure(None)


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

    @needs_native
    def test_dispatch_falls_back_to_numpy_for_missing_ops(self, monkeypatch):
        # A kernel the loaded provider refused still resolves to
        # native, and dispatch serves the numpy reference for it.
        from repro.aes.batch import _round_states_numpy

        provider = kernels_native.load_native()
        monkeypatch.delitem(provider.ops, ("aes", "round_states"))
        monkeypatch.setitem(provider.refused, "aes", "refused for a test")
        with kernels.use("native") as resolved:
            assert resolved["aes"] == "native"
            assert (
                kernels.dispatch("aes", "round_states")
                is _round_states_numpy
            )
            assert kernels.backend_metadata()["native_refused"] == {
                "aes": "refused for a test"
            }

    def test_backend_metadata_shape(self):
        meta = kernels.backend_metadata()
        assert set(meta) == {
            "kernel_backends", "native_provider", "native_refused",
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
        assert set(resolved.values()) == {"numpy"}

    def test_error_names_missing_dependency(self, monkeypatch):
        # Simulate a host without a C compiler: the error must name
        # what is missing, not just say "unavailable".  Pin the
        # provider to auto so an outer REPRO_NATIVE_PROVIDER (e.g. the
        # numpy-only CI check) doesn't preempt the probe.
        monkeypatch.setenv(kernels_native.PROVIDER_ENV, "auto")
        monkeypatch.setattr(
            kernels_native, "_find_compiler", lambda: None
        )
        kernels.invalidate_cache()
        try:
            with pytest.raises(
                kernels.KernelUnavailableError
            ) as excinfo:
                kernels.configure("native")
            assert "compiler" in str(excinfo.value)
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
# Process safety: campaign objects pickle under the native backend, and
# the kernel spec reaches child processes through the environment.
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
    def test_spec_reaches_workers_through_env(self):
        # configure() exports REPRO_KERNELS so child processes resolve
        # the same backends as the parent.
        with kernels.use("aes=native,pdn=numpy"):
            assert (
                os.environ[kernels.KERNELS_ENV]
                == "aes=native,pdn=numpy"
            )
            resolved = kernels.active_backends()
        assert resolved["aes"] == "native"
        assert resolved["pdn"] == "numpy"


# ----------------------------------------------------------------------
# numpy is the only runtime dependency: a campaign process never
# imports scipy, even on a host where it is installed.
# ----------------------------------------------------------------------


class TestNumpyOnlyRuntime:
    def test_resampled_jitter_attack_never_imports_scipy(self):
        script = textwrap.dedent(
            """
            import sys

            from repro.service import runners
            from repro.service.jobs import normalize_params

            params = normalize_params("attack", {
                "traces": 2000, "workers": 1,
                "jitter": "uniform:2", "preprocess": "resample=3/2",
            })
            result = runners.run_attack(params)
            assert result.correlations.shape[1] == 256, result
            assert "scipy" not in sys.modules, sorted(
                name for name in sys.modules if name.startswith("scipy")
            )
            assert "numba" not in sys.modules
            print("ok")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
