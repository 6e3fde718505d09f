"""Tests for the kernels mode and the two kernel backends.

The contract under test: every backend of every hot kernel (batched
AES, PDN IIR recurrence) is **bit-identical** to the numpy reference — the equality suite below is parametrized over
whatever backends actually load on this host (numpy everywhere, the
cc/ctypes provider where a C compiler exists).
"""

import contextvars
import os
import pickle
import subprocess
import sys
import textwrap
import threading

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
from repro.aes.leakage import INV_SBOX_TABLE, _POPCOUNT8
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

NATIVE = "native" in AES_BACKENDS

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no native kernel provider on this host"
)


@pytest.fixture
def no_native(monkeypatch):
    """Simulate a host without a C compiler."""
    monkeypatch.setattr(kernels_native, "_find_compiler", lambda: None)
    kernels_native._reset_for_tests()
    yield
    monkeypatch.undo()
    kernels_native._reset_for_tests()


def _all(backend):
    return dict.fromkeys(kernels.KERNEL_NAMES, backend)


class TestParseSpec:
    def test_none_and_empty_mean_auto(self, monkeypatch):
        for value in (None, "", "  "):
            if value is None:
                monkeypatch.delenv(kernels.KERNELS_ENV, raising=False)
            else:
                monkeypatch.setenv(kernels.KERNELS_ENV, value)
            assert kernels.current_mode() == "auto"

    @pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
    def test_single_mode_applies_to_all(self, mode):
        if mode == "native" and not NATIVE:
            pytest.skip("no native kernel provider on this host")
        with kernels.use(mode):
            assert kernels.current_mode() == mode
            assert len(set(kernels.active_backends().values())) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(kernels.KernelConfigError, match="turbo"):
            kernels.check("turbo")

    def test_unknown_kernel_rejected(self):
        # One mode serves every kernel; a per-kernel entry is not a mode.
        with pytest.raises(kernels.KernelConfigError, match="rsa"):
            kernels.check("rsa=native")

    def test_unknown_mode_for_kernel_rejected(self):
        with pytest.raises(kernels.KernelConfigError, match="fast"):
            kernels.check("aes=fast")

    def test_error_message_names_accepted_values(self):
        with pytest.raises(kernels.KernelConfigError) as excinfo:
            kernels.check("bogus")
        for mode in kernels.KERNEL_MODES:
            assert mode in str(excinfo.value)
        assert "\n" not in str(excinfo.value)


#: The modes the selection accepts; anything else is a config error.
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


class TestSpecGrammarFuzz:
    def test_modes_are_numpy_and_native_only(self):
        assert kernels.KERNEL_MODES == MODES

    @FUZZ
    @given(mode=_BAD_MODES)
    def test_unknown_single_mode_rejected(self, mode):
        with pytest.raises(kernels.KernelConfigError):
            kernels.check(mode)

    @FUZZ
    @given(
        entries=st.dictionaries(
            st.sampled_from(kernels.KERNEL_NAMES), st.sampled_from(MODES),
            min_size=1,
        ),
        kernel=st.sampled_from(kernels.KERNEL_NAMES),
        mode=_BAD_MODES,
    )
    def test_unknown_mode_in_a_map_rejected(self, entries, kernel, mode):
        # Per-kernel maps are gone: any map, valid entries or not, is
        # an unknown mode.
        for spec in (
            ",".join("%s=%s" % item for item in entries.items()),
            ",".join(
                "%s=%s" % item
                for item in dict(entries, **{kernel: mode}).items()
            ),
        ):
            with pytest.raises(kernels.KernelConfigError, match="mode"):
                kernels.check(spec)

    @FUZZ
    @given(name=st.one_of(_WORDS, st.sampled_from(kernels.KERNEL_NAMES)),
           mode=st.sampled_from(MODES))
    def test_unknown_kernel_name_rejected(self, name, mode):
        with pytest.raises(kernels.KernelConfigError, match="mode"):
            kernels.check("%s=%s" % (name, mode))


class TestConfigureAndUse:
    def test_use_restores_previous_selection(self):
        before = kernels.active_backends()
        with kernels.use("numpy"):
            assert kernels.active_backends() == _all("numpy")
            assert kernels.KERNELS_ENV not in os.environ
        assert kernels.active_backends() == before

    def test_use_none_is_passthrough(self):
        before = kernels.active_backends()
        with kernels.use(None):
            assert kernels.active_backends() == before
        assert kernels.active_backends() == before

    def test_use_nests(self):
        with kernels.use("numpy"):
            with kernels.use("auto"):
                pass
            assert kernels.active_backends() == _all("numpy")

    def test_env_var_drives_selection(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "numpy")
        assert kernels.active_backends() == _all("numpy")
        # An explicit mode wins over the environment.
        with kernels.use("auto"):
            assert kernels.current_mode() == "auto"

    def test_invalid_env_value_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNELS_ENV, "aes=native")
        with pytest.raises(
            kernels.KernelConfigError, match=kernels.KERNELS_ENV
        ):
            kernels.current_mode()

    def test_invalid_spec_fails_eagerly(self):
        before = kernels.current_mode()
        with pytest.raises(kernels.KernelConfigError):
            with kernels.use("warp"):
                pytest.fail("the body must not run")  # pragma: no cover
        # A failed use must not change the selection.
        assert kernels.current_mode() == before
        assert kernels.KERNELS_ENV not in os.environ

    def test_check_enters_no_selection(self):
        before = kernels.current_mode()
        assert kernels.check("numpy") == "numpy"
        assert kernels.current_mode() == before


class TestConcurrentSelection:
    def test_overlapping_uses_leave_the_default_unchanged(self):
        # Two jobs enter numpy, and the first leaves before the second:
        # with one process-global selection the second's exit restored
        # the first's numpy and left the whole process on it.
        before = kernels.active_backends()
        first_in, second_in, first_out = (
            threading.Event(), threading.Event(), threading.Event()
        )
        seen = {}

        def first():
            with kernels.use("numpy"):
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second():
            first_in.wait(10)
            with kernels.use("numpy"):
                second_in.set()
                first_out.wait(10)
                seen["second"] = kernels.active_backends()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        # Meanwhile this thread keeps its own (default) selection.
        first_in.wait(10)
        assert kernels.active_backends() == before
        for thread in threads:
            thread.join(10)
        assert seen["second"] == _all("numpy")
        assert kernels.active_backends() == before

    @needs_native
    def test_pool_threads_follow_their_own_job(self, monkeypatch):
        # A kernels=numpy attack on a 2-worker pool calls no native op
        # on its pool threads, while a concurrent default-mode job on
        # its own pool still dispatches native.  The job tag rides the
        # same context propagation as the kernels mode.
        from repro.service import runners
        from repro.service.jobs import normalize_params

        job = contextvars.ContextVar("job")
        provider = kernels_native.load_native()
        native_calls = []
        for key, op in list(provider.ops.items()):
            def counted(*args, _op=op, **kwargs):
                native_calls.append(
                    (job.get(None), threading.current_thread().name)
                )
                return _op(*args, **kwargs)

            monkeypatch.setitem(provider.ops, key, counted)

        started = threading.Barrier(2, timeout=30)
        results = {}

        def run(name, mode):
            job.set(name)
            started.wait()
            # retries puts the shards on the resilient pool, as every
            # service job does.
            params = normalize_params("attack", {
                "traces": 4000, "workers": 2, "retries": 2,
                "kernels": mode,
            })
            results[name] = runners.run_attack(params)

        threads = [
            threading.Thread(target=run, args=(name, mode), name=name)
            for name, mode in (("numpy-job", "numpy"), ("default-job", None))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert set(results) == {"numpy-job", "default-job"}
        jobs = {name for name, _thread in native_calls}
        assert jobs == {"default-job"}, jobs
        # The default job's ops ran on its pool threads, not its own.
        assert {thread for _name, thread in native_calls} - {"default-job"}
        assert np.array_equal(
            results["numpy-job"].correlations,
            results["default-job"].correlations,
        )


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
        # native, and its caller runs the numpy reference.
        provider = kernels_native.load_native()
        monkeypatch.delitem(provider.ops, ("aes", "round_states"))
        monkeypatch.setitem(provider.refused, "aes", "refused for a test")
        with kernels.use("native"):
            assert kernels.active_backends()["aes"] == "native"
            assert kernels.native_op("aes", "round_states") is None
            key = bytes(range(16))
            plaintexts = np.zeros((3, 16), dtype=np.uint8)
            got = BatchedAES128(key).round_states(plaintexts)
            assert kernels.backend_metadata()["native_refused"] == {
                "aes": "refused for a test"
            }
        with kernels.use("numpy"):
            assert np.array_equal(
                got, BatchedAES128(key).round_states(plaintexts)
            )

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
            kernels.check("native")
        with pytest.raises(kernels.KernelUnavailableError):
            with kernels.use("native"):
                pass  # pragma: no cover

    def test_auto_resolves_cleanly_without_native(self, no_native):
        assert kernels.active_backends() == _all("numpy")
        with kernels.use("auto"):
            assert kernels.native_op("pdn", "integrate") is None

    def test_none_resolves_everything_to_numpy(self, no_native):
        # What the removed REPRO_NATIVE_PROVIDER=none simulated: a host
        # without a compiler runs every kernel on numpy under auto.
        with kernels.use("auto"):
            assert kernels.active_backends() == _all("numpy")
            assert kernels.backend_metadata()["native_provider"] is None

    def test_error_names_missing_dependency(self, no_native):
        # The error must name what is missing, not just "unavailable".
        with pytest.raises(kernels.KernelUnavailableError) as excinfo:
            kernels.check("native")
        assert "compiler" in str(excinfo.value)

    def test_describe_reports_unavailable_reason(self, no_native):
        line = kernels.describe()
        assert "native: unavailable" in line
        assert "compiler" in line


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
        # The hypothesis models have no native op: under every kernels
        # mode they are InvSBox(c ^ k), its bit and its Hamming weight.
        rng = make_rng(derive_seed(bit, "kernels-hyp"))
        ct_bytes = rng.integers(0, 256, size=513, dtype=np.uint8)
        state = INV_SBOX_TABLE[ct_bytes[:, None] ^ np.arange(256, dtype=np.uint8)]
        with kernels.use(backend):
            got_bit = single_bit_hypothesis(ct_bytes, bit)
            got_hw = hamming_weight_hypothesis(ct_bytes)
        assert got_bit.dtype == np.int8 and got_hw.dtype == np.int8
        assert np.array_equal(got_bit, (state >> bit) & 1)
        assert np.array_equal(got_hw, _POPCOUNT8[state])

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
    """The CPA state has no native kernel: under every kernels mode a
    campaign may run in, it is the numpy state, bit for bit."""

    @staticmethod
    def _blocks(seed):
        rng = make_rng(derive_seed(seed, "kernels-cpa"))
        return [
            (
                rng.integers(0, 33, size=size).astype(np.float64),
                rng.integers(0, 256, size=size, dtype=np.uint8),
            )
            for size in (64, 1, 37, 256)
        ]

    @staticmethod
    def _table(dtype):
        rng = make_rng(derive_seed(0, "kernels-cpa-table"))
        return rng.integers(0, 9, size=(256, 256)).astype(dtype)

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_streaming_state_bit_identical(self, backend, dtype):
        blocks = self._blocks(3)
        reference = StreamingCPA(self._table(np.int8))
        with kernels.use("numpy"):
            for x, values in blocks:
                reference.update(x, values)
        engine = StreamingCPA(self._table(dtype))
        with kernels.use(backend):
            for x, values in blocks:
                engine.update(x, values)
            got = engine.correlations()
        assert engine.count == reference.count
        for name, array in reference.state_arrays().items():
            assert np.array_equal(engine.state_arrays()[name], array), (
                name
            )
        assert np.array_equal(got, reference.correlations())

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    def test_nonfinite_leakage_exact_error(self, backend):
        engine = StreamingCPA(np.ones((8, 4), dtype=np.int8))
        x = np.arange(8, dtype=np.float64)
        values = np.arange(8)
        with kernels.use(backend):
            engine.update(x, values)
            bad = x.copy()
            bad[5] = np.nan
            with pytest.raises(NonFiniteValuesError) as excinfo:
                engine.update(bad, values)
        assert excinfo.value.which == "leakage"
        assert list(excinfo.value.indices) == [8 + 5]
        # The failed block must not have touched the state.
        assert engine.count == 8
        assert engine.state_arrays()["sum_x"] == x.sum()

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    def test_nonfinite_hypotheses_exact_error(self, backend):
        table = np.ones((6, 4), dtype=np.float64)
        table[2, 3] = np.inf
        engine = StreamingCPA(table)
        with kernels.use(backend):
            with pytest.raises(NonFiniteValuesError) as excinfo:
                engine.update(np.arange(6, dtype=np.float64), np.arange(6))
        assert excinfo.value.which == "hypotheses"
        assert list(excinfo.value.indices) == [2]
        assert engine.count == 0

    @pytest.mark.parametrize("backend", AES_BACKENDS)
    def test_merge_stays_order_independent(self, backend):
        blocks = self._blocks(11)
        table = self._table(np.int8)
        whole = StreamingCPA(table)
        with kernels.use(backend):
            for x, values in blocks:
                whole.update(x, values)
            left, right = StreamingCPA(table), StreamingCPA(table)
            for x, values in blocks[:2]:
                left.update(x, values)
            for x, values in blocks[2:]:
                right.update(x, values)
            right.merge(left)
        assert np.array_equal(
            whole.correlations(), right.correlations()
        )


# ----------------------------------------------------------------------
# Process safety: campaign objects pickle under the native backend.
# ----------------------------------------------------------------------


class TestNativeProcessSafety:
    @needs_native
    def test_campaign_objects_stay_picklable(self):
        with kernels.use("native"):
            engine = StreamingCPA(np.ones((8, 8), dtype=np.int8))
            engine.update(np.arange(4, dtype=np.float64), np.arange(4))
            clone = pickle.loads(pickle.dumps(engine))
            model = pickle.loads(pickle.dumps(PDNModel()))
            batched = pickle.loads(
                pickle.dumps(BatchedAES128(bytes(range(16))))
            )
            # The clones keep working under the native backend.
            clone.update(np.arange(4, dtype=np.float64), np.arange(4))
            model.integrate_batch(np.ones((2, 16)))
            batched.round_states(
                np.zeros((2, 16), dtype=np.uint8)
            )
        assert clone.count == 8



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
