"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``census <circuit>`` — run the sensitive-bit characterization
  (Figs. 7/15) and print the census plus the variance ranking.
* ``attack <circuit>`` — run the end-to-end CPA key recovery.
* ``fullkey`` — recover all 16 key bytes with the ALU sensor.
* ``scan <design>`` — bitstream-check a design (``alu``, ``c6288``,
  ``tdc``, ``ro``, or a ``.bench`` file path).
* ``timing <circuit> <mhz>`` — strict timing check of a clock request.
* ``floorplan <circuit>`` — render the Figs. 3/4 floorplan.
* ``covert`` — run the covert-channel demonstration.
* ``report`` — regenerate the paper-vs-measured figure table.
* ``bench`` — the kernels micro-benchmark: every available backend
  (numpy/native) of the four dispatched kernels, asserted bit-identical
  to numpy before it is timed; writes ``BENCH_kernels.json`` with host
  metadata (python/numpy versions, CPU count, platform, resolved
  kernel-backend map, native provider).  End-to-end speed is measured
  by ``bench/run.py``; the chaos, preprocess and scaling drills are
  functions in :mod:`repro.experiments.drills`.
* ``serve`` — run the campaign job service: an asyncio scheduler with
  a bounded priority queue, request batching, in-flight dedupe, a
  content-addressed result cache (optionally LRU-bounded with
  ``--cache-max-bytes``), and a fleet coordinator that dispatches
  shard leases to connected workers, spoken over JSON lines on TCP.
  With ``--journal-dir`` every job-lifecycle transition is written to
  a fsync'd write-ahead journal; a SIGKILL'd server replays it on
  restart and finishes every unfinished job bit-identically.
* ``worker`` — join a running service as a fleet worker: register
  capabilities (CPUs, slots, kernel backends, warm cache keys), pull
  shard leases, and run ``--workers N`` of them at once, each lease one
  shard on one thread.
  ``--reconnect`` keeps redialing a lost (or restarting) server with
  seeded exponential backoff instead of exiting.
* ``submit`` — send one job (``tracegen``/``attack``/``fullkey``/
  ``report``) to a running service, stream its progress events, and
  print the result summary (bit-identical to the direct command).
  ``--param fleet=true`` requires fleet execution; by default
  attack/fullkey jobs use the fleet whenever workers are connected.
* ``attach JOB_ID`` — re-subscribe to a submitted job: replay its
  full event history (surviving client disconnects and journaled
  server restarts) and print the same summary ``submit`` would.
* ``jobs`` — list a running service's jobs (with the journal/recovery
  counters), or ``--metrics`` for the live counters/gauges/latency
  histograms.

Parallel commands accept ``--workers N`` and run on a thread pool;
results are bit-identical across worker counts.  The campaign and
bench commands also accept
``--kernels {auto,numpy,native}`` selecting one backend for all four
compiled kernels — bit-identical by contract; without it
``REPRO_KERNELS`` (default ``auto``) decides.  Invalid values
(``--workers 0``, an unknown kernels mode, ``native`` on a host
without a C compiler) exit with code 2 and one actionable line, not
a traceback.  The campaign commands (``attack``, ``fullkey``) also
take fault-tolerance flags — ``--checkpoint PATH`` (saved after every
merged shard), ``--resume``, ``--retries N``, ``--task-timeout S`` —
and ``report`` supports figure-granular
``--checkpoint``/``--resume``; a resumed campaign is bit-identical to
an uninterrupted one.  Structured failures exit with code 2 and one
actionable line on stderr (plus a resume hint when a checkpoint
exists) instead of a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np


def _add_kernels_argument(parser) -> None:
    # No argparse choices= here: unknown modes and unavailable native
    # backends are validated in _validate_args so they surface
    # as one-line exit-2 ReproErrors, not usage dumps.
    parser.add_argument(
        "--kernels",
        default=None,
        metavar="{auto,numpy,native}",
        help="one backend for every kernel: auto (default: native "
        "when the C library loads), numpy, or native",
    )


#: Bounds of the numeric arguments: ``dest -> (name, bound, inclusive)``
#: for a lower bound, plus an inclusive upper bound as a fourth entry.
#: A value out of range, or NaN/inf, exits 2 with one line instead of a
#: traceback deep inside a config, a campaign or a socket ``bind``.
_NUMERIC_BOUNDS = {
    "workers": ("--workers", 1, True),
    "traces": ("--traces", 2, True),
    "retries": ("--retries", 1, True),
    "task_timeout": ("--task-timeout", 0, False),
    "mhz": ("MHZ", 0, False),
    "rate_mbps": ("--rate-mbps", 0, False),
    "bits": ("--bits", 1, True),
    "repeats": ("--repeats", 1, True),
    "max_concurrency": ("--max-concurrency", 1, True),
    "queue_size": ("--queue-size", 1, True),
    "batch_window": ("--batch-window", 0, True),
    "cache_max_bytes": ("--cache-max-bytes", 1, True),
    # Must exceed the fleet's heartbeat interval (FleetConfig.heartbeat_s).
    "heartbeat_timeout": ("--heartbeat-timeout", 2.0, False),
    "lease_timeout": ("--lease-timeout", 0, False),
    "fleet_grace": ("--fleet-grace", 0, True),
    "quarantine_after": ("--quarantine-after", 1, True),
    "port": ("--port", 0, True, 65535),
}


def _validate_args(args) -> None:
    """Reject out-of-range numbers and bad --kernels with a ReproError.

    Argparse would answer with a usage dump and exit code 2 of its
    own; routing through :class:`ReproError` instead gives the same
    one-actionable-line contract as every campaign failure.
    """
    from repro.util import kernels
    from repro.util.errors import ReproError

    for dest, (name, bound, inclusive, *upper) in _NUMERIC_BOUNDS.items():
        value = getattr(args, dest, None)
        top = upper[0] if upper else math.inf
        if value is None or (
            math.isfinite(value)
            and (value >= bound if inclusive else value > bound)
            and value <= top
        ):
            continue
        limits = "%s %s" % (">=" if inclusive else ">", bound)
        if upper:
            limits += " and <= %s" % top
        raise ReproError("%s must be %s (got %s)" % (name, limits, value))
    mode = getattr(args, "kernels", None)
    if mode is None:
        # An unknown REPRO_KERNELS fails every command up front, not
        # only the first one that dispatches a kernel.
        kernels.current_mode()
    else:
        # KernelConfigError on an unknown mode; KernelUnavailableError
        # naming the missing dependency for native on a host that
        # cannot serve it.
        kernels.check(mode)


def _add_acquisition_arguments(parser) -> None:
    """Acquisition-realism and preprocessing flags (campaign commands).

    Values are parsed eagerly in :func:`_acquisition_params`, so a
    malformed spec exits 2 with one actionable line before any
    campaign work starts.
    """
    parser.add_argument(
        "--jitter", default=None, metavar="SPEC",
        help="simulate acquisition misalignment, e.g. uniform:3 or "
        "gaussian:1.5,drift=0.002,glitch=0.01",
    )
    parser.add_argument(
        "--align", default=None, metavar="METHOD[:MAX_SHIFT]",
        help="re-align traces before the CPA: correlation or sad, "
        "e.g. correlation:4",
    )
    parser.add_argument(
        "--poi", default=None, metavar="METHOD[:N[@PILOTS]]",
        help="point-of-interest selection per target column: "
        "variance or sost, e.g. sost:3@512",
    )
    parser.add_argument(
        "--window", default=None, metavar="START:END",
        help="static sample-window crop before the CPA",
    )
    parser.add_argument(
        "--resample", default=None, metavar="UP/DOWN",
        help="polyphase rational resampling, e.g. 3/2",
    )


def _acquisition_params(args) -> dict:
    """Validated ``jitter``/``preprocess`` campaign-param entries.

    Entries appear only when a flag was given (a disabled spec like
    ``--jitter none`` also stays absent), so acquisition-free
    invocations keep their parameter dicts — and service cache keys —
    byte-identical to before these flags existed.
    """
    from repro.preprocess.spec import (
        MisalignmentSpec,
        preprocess_spec_from_cli,
    )

    params = {}
    jitter = getattr(args, "jitter", None)
    if jitter is not None:
        spec = MisalignmentSpec.from_string(jitter)
        if spec.enabled:
            params["jitter"] = spec.to_string()
    preprocess = preprocess_spec_from_cli(
        align=getattr(args, "align", None),
        poi=getattr(args, "poi", None),
        window=getattr(args, "window", None),
        resample=getattr(args, "resample", None),
    )
    if preprocess is not None and preprocess.enabled:
        params["preprocess"] = preprocess.to_string()
    return params


def _add_resilience_arguments(parser) -> None:
    """Fault-tolerance knobs shared by the campaign commands."""
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a crash-safe checkpoint here as shards complete",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it exists "
        "(bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per shard before the campaign fails "
        "(default: 3)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard deadline, held at any worker count; a hung "
        "shard is abandoned and retried",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Stealthy logic misuse for power analysis attacks in "
            "multi-tenant FPGAs (DATE 2021) - reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="experiment seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    census = sub.add_parser("census", help="sensitive-bit census")
    census.add_argument("circuit", choices=["alu", "c6288", "c6288x2"])

    attack = sub.add_parser("attack", help="CPA key-byte recovery")
    attack.add_argument("circuit", choices=["alu", "c6288", "c6288x2"])
    attack.add_argument("--traces", type=int, default=150_000)
    attack.add_argument(
        "--reduction",
        choices=["hamming_weight", "single_bit"],
        default="hamming_weight",
    )
    attack.add_argument(
        "--workers", type=int, default=None,
        help="workers for the sharded driver (1 = serial)",
    )
    _add_kernels_argument(attack)
    _add_acquisition_arguments(attack)
    _add_resilience_arguments(attack)

    fullkey = sub.add_parser("fullkey", help="recover all 16 key bytes")
    fullkey.add_argument("--traces", type=int, default=250_000)
    fullkey.add_argument(
        "--workers", type=int, default=None,
        help="workers for collection and per-byte CPAs",
    )
    _add_kernels_argument(fullkey)
    _add_acquisition_arguments(fullkey)
    _add_resilience_arguments(fullkey)

    scan = sub.add_parser("scan", help="bitstream-check a design")
    scan.add_argument(
        "design",
        help="alu | c6288 | tdc | ro | path to a .bench file",
    )

    timing = sub.add_parser("timing", help="strict timing check")
    timing.add_argument("circuit", choices=["alu", "c6288"])
    timing.add_argument("mhz", type=float)

    floorplan = sub.add_parser("floorplan", help="render a floorplan")
    floorplan.add_argument("circuit", choices=["alu", "c6288x2"])

    covert = sub.add_parser("covert", help="covert-channel demo")
    covert.add_argument("--rate-mbps", type=float, default=1.0)
    covert.add_argument("--bits", type=int, default=64)

    report = sub.add_parser("report", help="paper-vs-measured table")
    report.add_argument("--traces", type=int, default=500_000)
    report.add_argument(
        "--no-cpa", action="store_true",
        help="skip the CPA campaigns (fast)",
    )
    report.add_argument(
        "--workers", type=int, default=None,
        help="workers for the sharded CPA figures",
    )
    _add_kernels_argument(report)
    _add_acquisition_arguments(report)
    report.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON checkpoint updated after every completed figure",
    )
    report.add_argument(
        "--resume", action="store_true",
        help="skip figures already recorded in --checkpoint",
    )

    bench = sub.add_parser(
        "bench",
        help="kernels micro-benchmark: every backend vs numpy",
    )
    bench.add_argument("--repeats", type=int, default=3)
    _add_kernels_argument(bench)
    bench.add_argument(
        "--output", default="BENCH_kernels.json",
        help="where to write the JSON record (default: "
        "BENCH_kernels.json)",
    )

    def _add_endpoint_arguments(p) -> None:
        p.add_argument(
            "--host", default="127.0.0.1",
            help="service address (default: 127.0.0.1)",
        )
        p.add_argument(
            "--port", type=int, default=7341,
            help="service port (default: 7341)",
        )

    serve = sub.add_parser(
        "serve", help="run the campaign job service"
    )
    _add_endpoint_arguments(serve)
    serve.add_argument(
        "--max-concurrency", type=int, default=2, metavar="N",
        help="jobs executing at once (default: 2)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="bounded queue capacity; beyond it submissions are "
        "rejected (default: 64)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.05, metavar="SECONDS",
        help="how long a trace-generation batch collects compatible "
        "requests (default: 0.05; 0 disables coalescing)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist the content-addressed result cache here",
    )
    serve.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="campaign checkpoint directory: a campaign run on this "
        "server saves after every merged shard (a report after every "
        "figure) and resumes from there after a crash",
    )
    serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="LRU cap on the on-disk result cache (default: unbounded)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=10.0,
        metavar="SECONDS",
        help="drop a fleet worker silent this long; its leases are "
        "reassigned (default: 10)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=None, metavar="SECONDS",
        help="revoke and reassign a shard lease running this long "
        "(default: no per-lease deadline)",
    )
    serve.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead job journal directory; on restart the "
        "server replays it and finishes every unfinished job "
        "bit-identically (two servers must not share one)",
    )
    serve.add_argument(
        "--fleet-grace", type=float, default=5.0, metavar="SECONDS",
        help="how long a fleet-required job waits for workers to "
        "(re)connect before failing — covers workers redialing a "
        "restarted server (default: 5)",
    )
    serve.add_argument(
        "--quarantine-after", type=int, default=2, metavar="N",
        help="quarantine a shard after it errors on this many "
        "distinct workers and fail its job fast (default: 2)",
    )

    worker = sub.add_parser(
        "worker", help="join a running service as a fleet worker"
    )
    worker.add_argument(
        "address", metavar="HOST:PORT",
        help="fleet server address (bare PORT means 127.0.0.1)",
    )
    worker.add_argument(
        "--name", default=None,
        help="worker name in logs and placement events "
        "(default: worker-<pid>)",
    )
    worker.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent shard leases, each on one thread (default: 1)",
    )
    worker.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory whose keys are advertised as "
        "warm for cache-aware placement",
    )
    worker.add_argument(
        "--quiet", action="store_true",
        help="suppress per-lease log lines",
    )
    worker.add_argument(
        "--reconnect", action="store_true",
        help="redial a lost (or restarting) server with seeded "
        "exponential backoff instead of exiting",
    )
    worker.add_argument(
        "--max-reconnects", type=int, default=10, metavar="N",
        help="consecutive failed redials before giving up "
        "(default: 10)",
    )

    submit = sub.add_parser(
        "submit", help="submit one job to a running service"
    )
    submit.add_argument(
        "kind", choices=["tracegen", "attack", "fullkey", "report"]
    )
    _add_endpoint_arguments(submit)
    submit.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="job parameter (repeatable), e.g. --param traces=5000 "
        "--param circuit=alu",
    )
    submit.add_argument(
        "--priority", type=int, default=10,
        help="smaller runs sooner (default: 10)",
    )
    submit.add_argument(
        "--quiet", action="store_true",
        help="suppress streamed progress events",
    )

    attach = sub.add_parser(
        "attach", help="re-subscribe to a submitted job by id"
    )
    attach.add_argument(
        "job_id", metavar="JOB_ID",
        help="job id printed by `repro submit` / `repro jobs`",
    )
    _add_endpoint_arguments(attach)
    attach.add_argument(
        "--quiet", action="store_true",
        help="suppress replayed/streamed progress events",
    )
    attach.add_argument(
        "--no-result", action="store_true",
        help="skip fetching the result payload (status only)",
    )

    jobs = sub.add_parser(
        "jobs", help="list a running service's jobs"
    )
    _add_endpoint_arguments(jobs)
    jobs.add_argument(
        "--metrics", action="store_true",
        help="print the metrics snapshot instead of the job table",
    )
    return parser


def _cmd_census(args) -> int:
    from repro.experiments import ExperimentConfig, ExperimentSetup

    setup = ExperimentSetup(ExperimentConfig(seed=args.seed))
    characterization = setup.characterization(args.circuit)
    print("census:", characterization.census.summary())
    ranking = characterization.bit_response_correlations()
    top = np.argsort(-ranking)[:8]
    print("top endpoints by voltage coupling:")
    for bit in top:
        print("  bit %3d  rho=%.3f" % (bit, ranking[bit]))
    return 0


def _campaign_params(args, **extra) -> dict:
    """Service-schema parameter dict for a campaign command.

    The CLI executes through the same runners the campaign service
    uses (:mod:`repro.service.runners`), so a direct run and a
    service-submitted job are the same code path — bit-identity by
    construction rather than by parallel maintenance.
    """
    params = {
        "traces": args.traces,
        "seed": args.seed,
        "workers": args.workers,
        "kernels": getattr(args, "kernels", None),
    }
    if hasattr(args, "retries"):
        params["retries"] = args.retries
        params["task_timeout"] = args.task_timeout
    params.update(_acquisition_params(args))
    params.update(extra)
    return params


def _cmd_attack(args) -> int:
    from repro.experiments import ExperimentConfig, describe_mtd
    from repro.service.runners import cached_setup, run_attack
    from repro.util.executors import CampaignHealth

    health = CampaignHealth()
    result = run_attack(
        _campaign_params(
            args, circuit=args.circuit, reduction=args.reduction
        ),
        health=health,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    if health.attempts and not health.healthy:
        print("campaign health:", health.summary())
    setup = cached_setup(
        ExperimentConfig(
            seed=args.seed,
            num_traces=args.traces,
            max_workers=args.workers,
        )
    )
    correct = setup.cipher.last_round_key[setup.config.target_byte]
    print(
        "best guess 0x%02X (true 0x%02X), rank %d, %s"
        % (
            result.best_guess,
            correct,
            result.key_ranks()[-1],
            describe_mtd(result.measurements_to_disclosure()),
        )
    )
    return 0 if result.disclosed else 1


def _cmd_fullkey(args) -> int:
    from repro.service.runners import run_fullkey
    from repro.util.executors import CampaignHealth

    health = CampaignHealth()
    result = run_fullkey(
        _campaign_params(args),
        health=health,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    if health.attempts and not health.healthy:
        print("campaign health:", health.summary())
    print(
        "correct bytes %d/16, residual enumeration 2^%.1f"
        % (result.num_correct_bytes, result.log2_remaining_enumeration())
    )
    if result.full_key_recovered:
        print("master key:", result.recovered_master_key.hex())
        return 0
    return 1


def _cmd_scan(args) -> int:
    from repro.circuits import build_alu, build_c6288
    from repro.defense import BitstreamChecker
    from repro.netlist import parse_bench_file
    from repro.sensors import build_ro_netlist, build_tdc_netlist

    builders = {
        "alu": build_alu,
        "c6288": build_c6288,
        "tdc": build_tdc_netlist,
        "ro": build_ro_netlist,
    }
    if args.design in builders:
        netlist = builders[args.design]()
    else:
        netlist = parse_bench_file(args.design, allow_cycles=True)
    report = BitstreamChecker().scan(netlist)
    print(report.summary())
    return 0 if report.accepted else 1


def _cmd_timing(args) -> int:
    from repro.circuits import build_alu, build_c6288
    from repro.defense import strict_timing_check
    from repro.timing import fpga_annotate

    netlist = build_alu() if args.circuit == "alu" else build_c6288()
    report = strict_timing_check(fpga_annotate(netlist), args.mhz)
    print(report.summary())
    return 0 if report.accepted else 1


def _cmd_floorplan(args) -> int:
    from repro.experiments import (
        ExperimentConfig,
        ExperimentSetup,
        fig03_04_floorplan,
    )

    setup = ExperimentSetup(ExperimentConfig(seed=args.seed))
    print(fig03_04_floorplan(setup, args.circuit)["rendered"])
    return 0


def _cmd_covert(args) -> int:
    from repro.core import BenignSensor, OOKModulation, run_covert_channel

    symbol_samples = max(2, int(round(150.0 / args.rate_mbps)))
    modulation = OOKModulation(
        symbol_samples=symbol_samples,
        settle_samples=min(20, max(0, symbol_samples // 4)),
    )
    sensor = BenignSensor.from_name("alu")
    rng = np.random.default_rng(args.seed)
    payload = rng.integers(0, 2, args.bits).tolist()
    result = run_covert_channel(sensor, payload, modulation, seed=args.seed)
    print(
        "%.2f Mbit/s: BER %.3f (%d/%d bit errors)"
        % (
            result.bits_per_second / 1e6,
            result.bit_error_rate,
            result.bit_errors,
            len(payload),
        )
    )
    return 0 if result.bit_error_rate < 0.05 else 1


def _cmd_report(args) -> int:
    from repro.experiments.runner import render_report
    from repro.service.runners import run_report

    params = {
        "traces": args.traces,
        "seed": args.seed,
        "cpa": not args.no_cpa,
        "workers": args.workers,
        "kernels": args.kernels,
    }
    params.update(_acquisition_params(args))
    records = run_report(
        params,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    print(render_report(records))
    return 0 if all(record.ok for record in records) else 1


def _cmd_bench(args) -> int:
    import json

    from repro.experiments.benchmark import write_kernels_benchmark
    from repro.util import kernels

    # One-line availability/selection report (which backend each
    # kernel resolved to, what serves "native").
    print(kernels.describe())
    record = write_kernels_benchmark(
        args.output, repeats=args.repeats, seed=args.seed
    )
    print(json.dumps(record, indent=2))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.fleet import FleetConfig
    from repro.service.scheduler import (
        CampaignScheduler,
        SchedulerConfig,
    )
    from repro.service.server import serve_forever

    scheduler = CampaignScheduler(
        SchedulerConfig(
            max_concurrency=args.max_concurrency,
            queue_size=args.queue_size,
            batch_window_s=args.batch_window,
            cache_dir=args.cache_dir,
            cache_max_bytes=args.cache_max_bytes,
            spool_dir=args.spool_dir,
            journal_dir=args.journal_dir,
        ),
        fleet_config=FleetConfig(
            heartbeat_timeout_s=args.heartbeat_timeout,
            lease_timeout_s=args.lease_timeout,
            register_grace_s=args.fleet_grace,
            quarantine_after=args.quarantine_after,
        ),
    )
    asyncio.run(serve_forever(scheduler, args.host, args.port))
    return 0


def _cmd_worker(args) -> int:
    from repro.service.worker import run_worker

    run_worker(
        args.address,
        name=args.name,
        slots=args.workers,
        cache_dir=args.cache_dir,
        quiet=args.quiet,
        reconnect=args.reconnect,
        max_reconnects=args.max_reconnects,
    )
    return 0


def _parse_job_params(pairs) -> dict:
    """``NAME=VALUE`` pairs into a parameter dict (values via JSON)."""
    import json

    from repro.util.errors import ReproError

    params = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ReproError(
                "bad --param %r (expected NAME=VALUE)" % pair
            )
        try:
            params[name] = json.loads(raw)
        except ValueError:
            params[name] = raw  # bare strings: circuit=alu
    return params


def _summarize_job_result(payload) -> None:
    """Print the same summary line the direct command would."""
    from repro.experiments import describe_mtd
    from repro.experiments.runner import render_report
    from repro.service.codec import from_payload

    result = from_payload(payload)
    kind = payload.get("type")
    if kind == "tracegen":
        print(
            "traces: %d x %d samples"
            % result["voltages"].shape
        )
    elif kind == "cpa":
        print(
            "best guess 0x%02X, rank %d, %s"
            % (
                result.best_guess,
                result.key_ranks()[-1],
                describe_mtd(result.measurements_to_disclosure()),
            )
        )
    elif kind == "fullkey":
        print(
            "correct bytes %d/16, residual enumeration 2^%.1f"
            % (
                result.num_correct_bytes,
                result.log2_remaining_enumeration(),
            )
        )
        if result.full_key_recovered:
            print("master key:", result.recovered_master_key.hex())
    elif kind == "report":
        print(render_report(result))


def _print_event(event) -> None:
    """One progress-event line (shared by ``submit`` and ``attach``)."""
    detail = ", ".join(
        "%s=%s" % (key, value)
        for key, value in sorted(event.items())
        if key not in ("event", "job_id", "time")
        and value is not None
    )
    print(
        "[%s] %s%s"
        % (
            event.get("job_id"),
            event.get("event"),
            " (%s)" % detail if detail else "",
        )
    )


def _finish_job(job) -> int:
    """Terminal-status report shared by ``submit`` and ``attach``."""
    status = job.get("status")
    if status != "done":
        print(
            "job %s %s: %s"
            % (job.get("job_id"), status, job.get("error")),
            file=sys.stderr,
        )
        return 1
    source = job.get("cache") or "computed"
    print(
        "job %s done (source: %s, batch of %d)"
        % (job.get("job_id"), source, job.get("batch_size", 1))
    )
    if job.get("result"):
        _summarize_job_result(job["result"])
    return 0


def _cmd_submit(args) -> int:
    from repro.service.client import submit_job
    from repro.service.jobs import normalize_params

    params = _parse_job_params(args.param)
    # Validate client-side so a typo'd --param fails in one actionable
    # line (naming the valid keys) without needing a reachable server.
    normalize_params(args.kind, params)
    job = submit_job(
        args.host,
        args.port,
        args.kind,
        params,
        priority=args.priority,
        on_event=None if args.quiet else _print_event,
    )
    return _finish_job(job)


def _cmd_attach(args) -> int:
    from repro.service.client import attach_job

    job = attach_job(
        args.host,
        args.port,
        args.job_id,
        include_result=not args.no_result,
        on_event=None if args.quiet else _print_event,
    )
    return _finish_job(job)


def _cmd_jobs(args) -> int:
    import json

    from repro.service.client import fetch_jobs_overview, fetch_metrics

    if args.metrics:
        print(json.dumps(fetch_metrics(args.host, args.port), indent=2))
        return 0
    overview = fetch_jobs_overview(args.host, args.port)
    recovery = overview.get("recovery") or {}
    if recovery.get("journal_enabled"):
        print(
            "journal: "
            + ", ".join(
                "%s=%d" % (name, recovery.get(name, 0))
                for name in sorted(recovery)
                if name != "journal_enabled"
            )
        )
    jobs = overview.get("jobs") or []
    if not jobs:
        print("no jobs")
        return 0
    print(
        "%-11s %-9s %-9s %-9s %6s" % ("JOB", "KIND", "STATUS", "SOURCE", "BATCH")
    )
    for job in jobs:
        print(
            "%-11s %-9s %-9s %-9s %6d"
            % (
                job["job_id"],
                job["spec"]["kind"],
                job["status"],
                job.get("cache") or "computed",
                job.get("batch_size", 1),
            )
        )
    return 0


_COMMANDS = {
    "census": _cmd_census,
    "attack": _cmd_attack,
    "fullkey": _cmd_fullkey,
    "scan": _cmd_scan,
    "timing": _cmd_timing,
    "floorplan": _cmd_floorplan,
    "covert": _cmd_covert,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "attach": _cmd_attach,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Structured campaign failures (:class:`repro.util.ReproError`:
    shard exhaustion, corrupt checkpoints, non-finite leakage) are reported as one actionable line on stderr — with a
    resume hint when a checkpoint is in play — instead of a traceback.
    """
    from repro.util.errors import ReproError

    args = _build_parser().parse_args(argv)
    resume_hint = ""
    if getattr(args, "checkpoint", None):
        resume_hint = (
            "; completed work is checkpointed — rerun with --resume "
            "to continue from %s" % args.checkpoint
        )
    try:
        _validate_args(args)
        from repro.util import kernels

        # The mode holds for the whole command (and its pool threads)
        # and is reset on exit, so in-process callers are unaffected.
        with kernels.use(getattr(args, "kernels", None)):
            return _COMMANDS[args.command](args)
    except ReproError as error:
        print(
            "error: %s%s" % (error, resume_hint),
            file=sys.stderr,
        )
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted%s" % resume_hint,
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    sys.exit(main())
