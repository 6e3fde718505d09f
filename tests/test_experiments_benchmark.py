"""Tests for the kernels micro-benchmark (reduced sizes).

The benchmark's job is methodological: assert every backend equal to
numpy before timing anything.  These tests run it at tiny sizes and
check the record structure and the equality gates, not the speedups —
CI hardware variance makes absolute numbers untestable, but a record
only exists if its bit-identity asserts passed.
"""

import json


class TestHostMetadata:
    def test_block_contents(self):
        import os
        import platform

        import numpy as np

        from repro.experiments.benchmark import host_metadata

        from repro.util.executors import usable_cpu_count

        host = host_metadata()
        assert host["python"] == platform.python_version()
        assert host["numpy"] == np.__version__
        assert host["cpu_count"] == os.cpu_count()
        assert host["usable_cpus"] == usable_cpu_count()
        assert host["usable_cpus"] <= host["cpu_count"]
        assert host["executor"] == "thread"
        assert host["platform"]
        assert host["machine"]

    def test_default_executor_recorded(self):
        from repro.experiments.benchmark import host_metadata

        assert host_metadata()["executor"] == "thread"


class TestKernelsMetadata:
    def test_host_block_records_kernel_backends(self):
        from repro.experiments.benchmark import host_metadata
        from repro.util import kernels

        host = host_metadata()
        assert host["kernel_backends"] == kernels.active_backends()
        assert set(host["kernel_backends"]) == {
            "aes", "pdn", "sensor", "align",
        }
        if "native" in host["kernel_backends"].values():
            assert host["native_provider"] == "cc"

    def test_warm_kernels_is_clean_and_idempotent(self):
        from repro.experiments.benchmark import warm_kernels

        warm_kernels()
        warm_kernels()


class TestKernelsBenchmark:
    def test_record_structure_and_identity_gates(self, tmp_path):
        from repro.experiments.benchmark import write_kernels_benchmark
        from repro.util import kernels

        path = tmp_path / "BENCH_kernels.json"
        record = write_kernels_benchmark(
            str(path),
            aes_traces=300,
            pdn_traces=8,
            pdn_samples=64,
            sensor_cycles=2000,
            repeats=1,
            seed=5,
        )
        assert path.exists()
        assert json.loads(path.read_text()) is not None
        assert set(record["kernels"]) == {
            "aes", "pdn", "sensor", "align",
        }
        assert record["kernels"]["sensor"]["mask_bits"] > 0
        for kernel, entry in record["kernels"].items():
            backends = entry["backends"]
            # Every backend available on this host was swept and
            # asserted bit-identical before timing.
            assert set(backends) == set(
                kernels.available_backends(kernel)
            )
            assert entry["resolved_backend"] in backends
            assert backends["numpy"]["speedup_vs_numpy"] == 1.0
            for case in backends.values():
                assert case["identical_to_numpy"] is True
                assert case["seconds"] > 0
                assert case["traces_per_s"] > 0
        host = record["host"]
        assert "kernel_backends" in host
        assert "native_provider" in host
