"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.netlist import write_bench
from repro.sensors import build_ro_netlist


class TestScan:
    def test_scan_ro_rejected(self, capsys):
        assert main(["scan", "ro"]) == 1
        assert "REJECT" in capsys.readouterr().out

    def test_scan_alu_accepted(self, capsys):
        assert main(["scan", "alu"]) == 0
        assert "ACCEPT" in capsys.readouterr().out

    def test_scan_bench_file(self, tmp_path, capsys):
        path = tmp_path / "evil.bench"
        path.write_text(write_bench(build_ro_netlist()))
        assert main(["scan", str(path)]) == 1
        assert "REJECT" in capsys.readouterr().out


class TestTiming:
    def test_overclock_rejected(self, capsys):
        assert main(["timing", "alu", "300"]) == 1
        assert "REJECT" in capsys.readouterr().out

    def test_legitimate_accepted(self, capsys):
        assert main(["timing", "alu", "30"]) == 0
        assert "ACCEPT" in capsys.readouterr().out


class TestCensus:
    def test_census_output(self, capsys):
        assert main(["census", "c6288x2"]) == 0
        out = capsys.readouterr().out
        assert "ro_sensitive" in out
        assert "top endpoints" in out


class TestFloorplan:
    def test_floorplan_renders(self, capsys):
        assert main(["floorplan", "alu"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "#" in out


class TestCovert:
    def test_moderate_rate_succeeds(self, capsys):
        assert main(["covert", "--rate-mbps", "1", "--bits", "32"]) == 0
        assert "BER 0.000" in capsys.readouterr().out

    def test_excessive_rate_fails(self, capsys):
        assert main(["covert", "--rate-mbps", "40", "--bits", "32"]) == 1


class TestAttack:
    def test_small_attack_runs(self, capsys):
        # 20k traces: pipeline exercise; disclosure not required.
        code = main(["attack", "alu", "--traces", "20000"])
        out = capsys.readouterr().out
        assert "best guess" in out
        assert code in (0, 1)


class TestWorkersValidation:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_workers_one_line_exit_2(self, capsys, value):
        code = main(["attack", "alu", "--workers", value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "--workers" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_fullkey_validates_too(self, capsys):
        code = main(["fullkey", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

class TestNumericBounds:
    """Out-of-range numbers exit 2 with one line before any work runs
    (they used to raise a ValueError traceback deep inside a config or
    campaign, divide by zero, or pass silently)."""

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--queue-size", "0"], "--queue-size"),
        (["serve", "--max-concurrency", "0"], "--max-concurrency"),
        (["serve", "--batch-window", "-1"], "--batch-window"),
        (["serve", "--batch-window", "nan"], "--batch-window"),
        (["serve", "--heartbeat-timeout", "1"], "--heartbeat-timeout"),
        (["serve", "--lease-timeout", "0"], "--lease-timeout"),
        (["serve", "--quarantine-after", "0"], "--quarantine-after"),
        (["serve", "--cache-max-bytes", "0"], "--cache-max-bytes"),
        (["serve", "--fleet-grace", "-1"], "--fleet-grace"),
        (["attack", "alu", "--traces", "1"], "--traces"),
        (["fullkey", "--traces", "1"], "--traces"),
        (["attack", "alu", "--retries", "0"], "--retries"),
        (["fullkey", "--retries", "0"], "--retries"),
        (["attack", "alu", "--task-timeout", "0"], "--task-timeout"),
        (["attack", "alu", "--task-timeout", "nan"], "--task-timeout"),
        (["fullkey", "--task-timeout", "inf"], "--task-timeout"),
        (["report", "--workers", "0"], "--workers"),
        (["covert", "--bits", "0"], "--bits"),
        (["covert", "--rate-mbps", "0"], "--rate-mbps"),
        (["covert", "--rate-mbps", "-1"], "--rate-mbps"),
        (["timing", "alu", "0"], "MHZ"),
        (["bench", "--repeats", "0"], "--repeats"),
        (["worker", "1", "--workers", "0"], "--workers"),
    ])
    def test_one_line_exit_2(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: %s must be " % flag)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("port", ["-1", "65536", "99999"])
    @pytest.mark.parametrize(
        "verb", [["serve"], ["jobs"], ["submit", "tracegen"]]
    )
    def test_port_outside_0_65535_exits_2(self, capsys, verb, port):
        code = main(verb + ["--port", port])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: --port must be >= 0 and <= 65535 (got %s)\n" % port
        )
        assert captured.out == ""

    @pytest.mark.parametrize("port", ["-1", "65536", "99999"])
    def test_worker_port_outside_range_exits_2(self, capsys, port):
        code = main(["worker", "127.0.0.1:%s" % port])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: worker port must be >= 1 and <= 65535 (got %s)\n" % port
        )
        assert captured.out == ""

    def test_heartbeat_bound_is_the_fleet_interval(self):
        from repro.cli import _NUMERIC_BOUNDS
        from repro.service.fleet import FleetConfig

        assert _NUMERIC_BOUNDS["heartbeat_timeout"][1] == (
            FleetConfig.heartbeat_s
        )


class TestServiceVerbs:
    def test_submit_without_server_one_line_exit_2(self, capsys):
        # Port 1 is never listening; the client should fail with an
        # actionable connection error, not a traceback.
        code = main([
            "submit", "tracegen", "--host", "127.0.0.1", "--port", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "repro serve" in err
        assert "Traceback" not in err

    def test_jobs_without_server_one_line_exit_2(self, capsys):
        code = main([
            "jobs", "--host", "127.0.0.1", "--port", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")

    def test_bad_param_syntax_rejected(self, capsys):
        code = main(["submit", "tracegen", "--param", "traces"])
        err = capsys.readouterr().err
        assert code == 2
        assert "NAME=VALUE" in err

    def test_unknown_job_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["submit", "frobnicate"])


class TestFleetVerbs:
    def test_worker_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "worker", "127.0.0.1:7000",
            "--name", "w0", "--workers", "2", "--quiet",
        ])
        assert args.command == "worker"
        assert args.address == "127.0.0.1:7000"
        assert args.name == "w0" and args.workers == 2
        assert args.quiet is True
        assert _build_parser().parse_args(["worker", "1"]).workers == 1

    def test_worker_has_one_parallelism_flag(self, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["worker", "1", "--slots", "2"])
        assert "--slots" in capsys.readouterr().err

    def test_serve_fleet_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "serve", "--cache-max-bytes", "1048576",
            "--heartbeat-timeout", "5", "--lease-timeout", "30",
        ])
        assert args.cache_max_bytes == 1048576
        assert args.heartbeat_timeout == 5.0
        assert args.lease_timeout == 30.0

    def test_worker_without_server_one_line_exit_2(self, capsys):
        code = main(["worker", "127.0.0.1:1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "repro serve" in err
        assert "Traceback" not in err

    def test_bad_worker_address_one_line_exit_2(self, capsys):
        code = main(["worker", "127.0.0.1:nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestDurabilityVerbs:
    def test_attach_without_server_one_line_exit_2(self, capsys):
        code = main([
            "attach", "job-000001", "--host", "127.0.0.1", "--port", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "repro serve" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1, "one actionable line, no traceback"

    def test_attach_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "attach", "job-000042",
            "--host", "10.0.0.5", "--port", "7070",
            "--quiet", "--no-result",
        ])
        assert args.command == "attach"
        assert args.job_id == "job-000042"
        assert args.host == "10.0.0.5" and args.port == 7070
        assert args.quiet is True and args.no_result is True

    def test_serve_durability_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "serve", "--journal-dir", "/tmp/j",
            "--fleet-grace", "12", "--quarantine-after", "3",
        ])
        assert args.journal_dir == "/tmp/j"
        assert args.fleet_grace == 12.0
        assert args.quarantine_after == 3

    def test_worker_reconnect_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "worker", "127.0.0.1:7000",
            "--reconnect", "--max-reconnects", "25",
        ])
        assert args.reconnect is True
        assert args.max_reconnects == 25

class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["census", "cpu"])


class TestResilienceFlags:
    def test_attack_writes_checkpoint_and_resumes(self, tmp_path, capsys):
        path = str(tmp_path / "attack.npz")
        first = main([
            "attack", "alu", "--traces", "4000", "--workers", "2",
            "--checkpoint", path,
        ])
        assert first in (0, 1)
        assert (tmp_path / "attack.npz").exists()
        capsys.readouterr()
        again = main([
            "attack", "alu", "--traces", "4000", "--workers", "2",
            "--checkpoint", path, "--resume",
        ])
        assert again == first
        assert "best guess" in capsys.readouterr().out

    def test_retry_flags_accepted(self, capsys):
        code = main([
            "attack", "alu", "--traces", "4000", "--workers", "2",
            "--retries", "2", "--task-timeout", "60",
        ])
        assert code in (0, 1)
        assert "best guess" in capsys.readouterr().out


class TestErrorBoundary:
    def test_checkpoint_mismatch_exits_2_with_one_line(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "attack.npz")
        assert main([
            "attack", "alu", "--traces", "4000", "--workers", "2",
            "--checkpoint", path,
        ]) in (0, 1)
        capsys.readouterr()
        code = main([
            "attack", "alu", "--traces", "5000", "--workers", "2",
            "--checkpoint", path, "--resume",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "num_traces" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1, "one actionable line, no traceback"

    def test_error_includes_resume_hint_when_checkpointing(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "attack.npz")
        assert main([
            "attack", "alu", "--traces", "4000", "--workers", "2",
            "--checkpoint", path,
        ]) in (0, 1)
        capsys.readouterr()
        main([
            "attack", "alu", "--traces", "5000", "--workers", "2",
            "--checkpoint", path, "--resume",
        ])
        err = capsys.readouterr().err
        assert "--resume" in err
        assert path in err


class TestCheckpointFormat:
    def test_version_1_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A checkpoint in the version-1 form (50k chunk grid, with
        # ``chunk_size`` in its manifest) of this very campaign: resuming
        # from it would merge state drawn from the old streams into the
        # new ones, so it must fail with one line and leave it untouched.
        import json

        import numpy as np

        from repro.experiments.checkpoint import load_checkpoint

        path = str(tmp_path / "attack.npz")
        argv = [
            "attack", "alu", "--traces", "9000", "--workers", "2",
            "--checkpoint", path,
        ]
        assert main(argv) in (0, 1)
        stored = load_checkpoint(path)
        manifest = json.loads(stored.manifest.to_json())
        manifest["version"] = 1
        manifest["params"]["chunk_size"] = 50_000
        payload = dict(
            stored.arrays,
            __manifest__=np.frombuffer(
                json.dumps(manifest, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            ),
            __completed_shards__=np.int64(1),
            __version__=np.int64(1),
        )
        np.savez(path, **payload)
        with open(path, "rb") as handle:
            before = handle.read()
        capsys.readouterr()
        code = main(argv + ["--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: checkpoint %s: version 1 not supported (expected 3)"
            % path
        )
        assert captured.err.count("\n") == 1
        assert "best guess" not in captured.out
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_version_2_checkpoint_refuses_to_resume(self, tmp_path, capsys):
        # A version-2 checkpoint of this very campaign stored the CPA
        # state as five float64 sums; it must not resume into the int64
        # per-value state, and the refusal is one line.
        import json

        import numpy as np

        from repro.experiments.checkpoint import load_checkpoint

        path = str(tmp_path / "attack.npz")
        argv = [
            "attack", "alu", "--traces", "9000", "--workers", "2",
            "--checkpoint", path,
        ]
        assert main(argv) in (0, 1)
        stored = load_checkpoint(path)
        manifest = json.loads(stored.manifest.to_json())
        manifest["version"] = 2
        np.savez(
            path,
            rows=stored.arrays["rows"],
            engine_count=stored.arrays["engine_count"],
            engine_sum_x=np.float64(stored.arrays["engine_sum_x"]),
            engine_sum_xx=np.float64(stored.arrays["engine_sum_xx"]),
            engine_sum_h=np.zeros(256),
            engine_sum_hh=np.zeros(256),
            engine_sum_xh=np.zeros(256),
            __manifest__=np.frombuffer(
                json.dumps(manifest, sort_keys=True).encode("utf-8"),
                dtype=np.uint8,
            ),
            __completed_shards__=np.int64(1),
            __version__=np.int64(2),
        )
        capsys.readouterr()
        code = main(argv + ["--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: checkpoint %s: version 2 not supported (expected 3)"
            % path
        )
        assert captured.err.count("\n") == 1
        assert "best guess" not in captured.out


class TestKernelsOption:
    def test_attack_accepts_kernels_numpy(self, capsys):
        code = main([
            "attack", "alu", "--traces", "4000", "--kernels", "numpy",
        ])
        assert "best guess" in capsys.readouterr().out
        assert code in (0, 1)

    def test_invalid_kernels_one_line_exit_2(self, capsys):
        # scipy was a backend once; it is now an unknown mode too.
        for mode in ("turbo", "scipy"):
            code = main(["attack", "alu", "--kernels", mode])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: ")
            assert mode in err
            assert "native" in err and "numpy" in err
            assert "Traceback" not in err
            assert err.count("\n") == 1, "one actionable line, no traceback"

    def test_unknown_kernel_name_one_line_exit_2(self, capsys):
        # One mode serves every kernel; a per-kernel map is not a mode.
        code = main(["attack", "alu", "--kernels", "rsa=native"])
        err = capsys.readouterr().err
        assert code == 2
        assert "rsa" in err
        assert err.count("\n") == 1

    def test_removed_resample_kernel_is_unknown(self, monkeypatch, capsys):
        # resample left the kernels; naming it, by flag or through
        # REPRO_KERNELS, is the unknown-mode error like any other, and
        # a bad REPRO_KERNELS fails every command up front.
        from repro.util import kernels

        assert main(["attack", "alu", "--kernels", "resample=native"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown kernels mode 'resample")
        assert err.count("\n") == 1
        monkeypatch.setenv(kernels.KERNELS_ENV, "resample=native")
        for argv in (["attack", "alu", "--traces", "2000"],
                     ["census", "alu"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: unknown kernels mode 'resample")
            assert kernels.KERNELS_ENV in err
            assert "Traceback" not in err
            assert err.count("\n") == 1

    def test_fullkey_and_bench_validate_too(self, capsys):
        assert main(["fullkey", "--kernels", "warp"]) == 2
        assert "warp" in capsys.readouterr().err
        assert main(["bench", "--kernels", "warp"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_native_unavailable_structured_error(self, monkeypatch, capsys):
        from repro.util import kernels_native

        # A host without a C compiler.
        monkeypatch.setattr(kernels_native, "_find_compiler", lambda: None)
        kernels_native._reset_for_tests()
        try:
            code = main(["attack", "alu", "--kernels", "native"])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: ")
            assert "native" in err and "compiler" in err
            assert "Traceback" not in err
            assert err.count("\n") == 1
        finally:
            monkeypatch.undo()
            kernels_native._reset_for_tests()

    def test_kernels_selection_restored_after_command(self, capsys):
        import os

        from repro.util import kernels

        before = kernels.active_backends()
        code = main([
            "attack", "alu", "--traces", "4000", "--kernels", "numpy",
        ])
        capsys.readouterr()
        assert code in (0, 1)
        assert os.environ.get(kernels.KERNELS_ENV) is None
        assert kernels.active_backends() == before

    def test_bench_kernels_suite_writes_record(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_kernels.json"
        code = main([
            "bench",
            "--repeats", "1",
            "--output", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("kernels: ")
        record = json.loads(path.read_text())
        assert set(record["kernels"]) == {
            "aes", "pdn", "sensor", "align",
        }
        for entry in record["kernels"].values():
            for case in entry["backends"].values():
                assert case["identical_to_numpy"] is True


class TestAcquisitionFlags:
    """--jitter/--align/--poi/--window/--resample on attack, fullkey
    and report."""

    def test_malformed_jitter_one_line_exit_2(self, capsys):
        code = main([
            "attack", "alu", "--traces", "4000",
            "--jitter", "sideways:2",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "sideways" in err
        assert err.count("\n") == 1, "one actionable line, no traceback"

    @pytest.mark.parametrize(
        "jitter", ["gaussian:inf", "uniform:nan", "uniform:1e400"]
    )
    def test_non_finite_jitter_one_line_exit_2(self, jitter, capsys):
        code = main([
            "attack", "alu", "--traces", "4000", "--jitter", jitter,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: jitter amount must be a finite")
        assert err.count("\n") == 1, "one actionable line, no traceback"

    def test_malformed_align_one_line_exit_2(self, capsys):
        code = main([
            "attack", "alu", "--traces", "4000",
            "--align", "fourier",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "fourier" in err
        assert "correlation" in err and "sad" in err

    def test_submit_unknown_param_names_valid_keys(self, capsys):
        # Parsed client-side before any server connection is needed.
        code = main([
            "submit", "attack", "--param", "jiter=uniform:2",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "jiter" in err
        assert "jitter" in err and "preprocess" in err
        assert err.count("\n") == 1

    def test_jittered_attack_with_alignment_runs(self, capsys):
        code = main([
            "attack", "alu", "--traces", "4000",
            "--jitter", "uniform:2",
            "--align", "correlation:4",
        ])
        out = capsys.readouterr().out
        assert "best guess" in out
        assert code in (0, 1)
