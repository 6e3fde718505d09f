"""Tests for the performance harness (reduced sizes).

The benchmark's job is methodological: assert fast==reference before
timing anything. These tests run the suites at tiny sizes and check
the record structure and the equality gates, not the speedups — CI
hardware variance makes absolute numbers untestable, but a benchmark
that records a result must have passed its bit-identity asserts.
"""

import json

from repro.experiments.benchmark import (
    _parallel_speedup_fields,
    run_e2e_benchmark,
    write_e2e_benchmark,
)


class TestParallelSpeedupFields:
    def test_headline_when_cpus_suffice(self):
        fields = _parallel_speedup_fields(1.7, exceed=False)
        assert fields["parallel_speedup_same_kernels"] == 1.7
        assert fields["parallel_speedup_advisory"] is None
        assert fields["parallel_speedup_note"] is None

    def test_advisory_when_oversubscribed(self):
        fields = _parallel_speedup_fields(0.8, exceed=True)
        assert fields["parallel_speedup_same_kernels"] is None
        assert fields["parallel_speedup_advisory"] == 0.8
        assert "exceed" in fields["parallel_speedup_note"]

    def test_custom_prefix(self):
        fields = _parallel_speedup_fields(
            1.2, exceed=False, prefix="fleet_speedup_2_workers"
        )
        assert fields["fleet_speedup_2_workers_same_kernels"] == 1.2
        assert fields["fleet_speedup_2_workers_advisory"] is None


class TestE2EBenchmark:
    def test_record_structure_and_gates(self):
        record = run_e2e_benchmark(
            gen_traces=100,
            campaign_traces=400,
            repeats=1,
            max_workers=2,
            seed=3,
        )
        stages = record["trace_generation"]
        for stage in ("aes_activity", "pdn_integration", "end_to_end"):
            entry = stages[stage]
            assert entry["reference_s"] > 0
            assert entry["fast_s"] > 0
            assert entry["speedup"] == (
                entry["reference_s"] / entry["fast_s"]
            )
        campaign = record["campaign"]
        # The assert-before-timing gate: a record only exists if the
        # fast campaign reproduced the reference correlations exactly.
        assert campaign["identical_correlations"] is True
        assert campaign["workers"] == 2
        assert campaign["executor"] == "thread"

    def test_write_benchmark_round_trips(self, tmp_path):
        path = tmp_path / "bench.json"
        record = write_e2e_benchmark(
            str(path),
            gen_traces=100,
            campaign_traces=400,
            repeats=1,
            max_workers=1,
            seed=3,
        )
        on_disk = json.loads(path.read_text())
        assert on_disk["campaign"]["num_traces"] == 400
        assert on_disk["trace_generation"]["num_traces"] == 100
        assert record["circuit"] == on_disk["circuit"]


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

    def test_e2e_record_embeds_host_block(self):
        record = run_e2e_benchmark(
            gen_traces=50,
            campaign_traces=400,
            repeats=1,
            max_workers=1,
            seed=3,
        )
        host = record["host"]
        for key in (
            "python",
            "numpy",
            "platform",
            "machine",
            "cpu_count",
            "usable_cpus",
            "executor",
        ):
            assert key in host, key
        assert host["executor"] == "thread"
        # Top-level cpu_count reports what the campaign can actually
        # use — the count the parallel speedup is judged against.
        assert record["cpu_count"] == host["usable_cpus"]
        assert isinstance(
            record["campaign"]["workers_exceed_cpus"], bool
        )
        # The record must stay JSON-serializable with the block added.
        json.dumps(record)

    def test_sampling_record_embeds_host_block(self):
        from repro.experiments.benchmark import run_sampling_benchmark

        record = run_sampling_benchmark(
            num_cycles=500,
            campaign_traces=400,
            repeats=1,
            max_workers=1,
            seed=3,
        )
        assert record["host"]["python"]
        assert record["host"]["usable_cpus"] == record["cpu_count"]
        assert record["campaign"]["workers_exceed_cpus"] is False
        json.dumps(record)


class TestKernelsMetadata:
    def test_host_block_records_kernel_backends(self):
        from repro.experiments.benchmark import host_metadata
        from repro.util import kernels

        host = host_metadata()
        assert host["kernel_backends"] == kernels.active_backends()
        assert set(host["kernel_backends"]) == {
            "aes", "pdn", "cpa", "resample", "sensor",
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
            cpa_traces=400,
            sensor_cycles=2000,
            repeats=1,
            seed=5,
        )
        assert path.exists()
        assert json.loads(path.read_text()) is not None
        assert set(record["kernels"]) == {
            "aes", "pdn", "cpa", "resample", "sensor",
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
