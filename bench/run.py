"""Outside-in benchmark of the campaign system: one command, four workloads.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--out FILE]

Campaign workloads call the public runners (``run_attack`` /
``run_fullkey``) in fresh child processes; ``service-mixed`` drives a
real ``repro serve`` + ``repro worker`` over TCP from this process.
Every result is checked outside the timed window against the
reference path (``kernels=numpy``, ``workers=1``) run in a separate
process.  Each workload prints its metrics by name with their units;
the last line of stdout is one JSON object — for a single workload
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
reports the per-layer ledger instead of the end-to-end metrics.  The
exit status is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    BUILD,
    Child,
    digest,
    load_declaration,
    percentile,
    require_checkout,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Budget of one child process (the contract allows 180 s per run).
CHILD_TIMEOUT_S = 150.0
#: The warm-up job that ends every campaign child's set-up.
WARMUP_TRACES = 4096
SMOKE_SECONDS = 1.0


@dataclass(frozen=True)
class Campaign:
    kind: str
    params: Dict[str, object]
    traces: int
    smoke_traces: int


#: Campaign workloads pin two thread workers, one per CPU of the
#: two-CPU host the benchmark is sized for.
CAMPAIGNS: Dict[str, Campaign] = {
    # Fig. 10's single-byte CPA at its MTD scale: the cheapest work per
    # trace, where sensor sampling, CPA accumulation and fan-out
    # overhead dominate and trace generation does no work at all.
    "attack-analytic": Campaign(
        "attack",
        {"circuit": "alu", "reduction": "hamming_weight",
         "workers": 2, "executor": "thread"},
        150_000,
        20_000,
    ),
    # The whole physical pipeline: AES rounds, PDN recurrence, trigger
    # jitter, alignment and resampling.
    "attack-physical-jitter": Campaign(
        "attack",
        {"jitter": "uniform:2",
         "preprocess": "align=correlation:4;resample=3/2",
         "workers": 2, "executor": "thread"},
        60_000,
        8_000,
    ),
    # 16-byte recovery at 250k traces: 4-column leakage blocks and the
    # serial 16 x 256-hypothesis key-recovery phase.
    "fullkey": Campaign(
        "fullkey", {"workers": 2, "executor": "thread"}, 250_000, 20_000
    ),
}
SERVICE = "service-mixed"
WORKLOADS = list(CAMPAIGNS) + [SERVICE]

#: Service job sizes (full, smoke) and the verified sample per class.
TRACEGEN_TRACES = (2_000, 500)
ATTACK_TRACES = (40_000, 8_000)
VERIFY_QUOTA = {"tracegen": 8, "attack-pool": 6, "attack-fresh": 6}
MIN_VERIFIED = 20


class WorkloadError(RuntimeError):
    """A child failed; the workload has no measurement."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, object]


def _campaign_child(
    args: List[str], marker: str, final: str
) -> Tuple[Dict[str, object], float, int]:
    """Run ``campaign.py ARGS`` to its exit.

    Returns its ``final`` event, its set-up time (spawn to the line
    containing ``marker``) and its peak RSS in KiB.
    """
    child = Child(
        [sys.executable, str(BENCH_DIR / "campaign.py")] + args, marker, "stdout"
    )
    try:
        child.wait_ready(CHILD_TIMEOUT_S)
    finally:
        rss = child.stop(terminate=False, grace_s=CHILD_TIMEOUT_S)
    events = child.events(final)
    if child.proc.returncode != 0 or not events or child.ready_at is None:
        raise WorkloadError(
            "campaign child exited %d: %s"
            % (child.proc.returncode, " | ".join(child.tail))
        )
    return events[0], child.ready_at - child.started, rss


def _reference_digests(jobs: List[Dict[str, object]]) -> List[str]:
    verified, _, _ = _campaign_child(
        ["verify", json.dumps(jobs)], '"event": "verified"', "verified"
    )
    return list(verified["digests"])  # type: ignore[arg-type]


def _mismatches(got: List[str], want: List[str]) -> int:
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


def _zero_service_counters() -> Dict[str, float]:
    return {
        "cache.hit_ratio": 0.0,
        "scheduler.coalesce_ratio": 0.0,
        "scheduler.queue_wait_s.mean": 0.0,
        "service.fleet.leases_issued": 0.0,
        "service.server.cpu_s": 0.0,
        "service.worker.cpu_s": 0.0,
    }


def run_campaign(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    workdir: Path, force_mismatch: bool,
) -> Outcome:
    workload = CAMPAIGNS[name]
    traces = workload.smoke_traces if smoke else workload.traces
    params = dict(workload.params, seed=seed, traces=traces)
    job = {"kind": workload.kind, "params": params, "warmup_traces": WARMUP_TRACES}
    runs = 1 if (trace or smoke) else SETUP_SAMPLES
    spans_path = workdir / ("%s-spans.json" % name)

    setups: List[float] = []
    warmup_digests: List[str] = []
    for index in range(runs):
        timed = index == runs - 1
        args = ["run", json.dumps(job), str(seconds if timed else 0)]
        if timed and trace:
            args.append(str(spans_path))
        done, setup_s, rss = _campaign_child(args, '"event": "ready"', "done")
        setups.append(setup_s)
        warmup_digests.append(str(done["warmup_digest"]))
    phases: List[Dict[str, object]] = done["phases"]  # type: ignore[assignment]
    digests: List[str] = list(done["digests"])  # type: ignore[arg-type]
    if force_mismatch:
        digests[0] = "0" * 64

    warmup_job = {"kind": workload.kind, "params": dict(params, traces=WARMUP_TRACES)}
    small, full = _reference_digests([warmup_job, job])
    failed = _mismatches(warmup_digests, [small] * runs)
    failed += _mismatches(digests, [full] * len(digests))
    attempted = runs + len(digests)

    walls = [float(w) for w in phases[0]["walls"]]  # type: ignore[union-attr]
    detail: Dict[str, object] = {"jobs": len(digests), "traces_per_job": traces,
                                 "setups_s": setups}
    if trace:
        import spans

        traced = [float(w) for w in phases[1]["walls"]]  # type: ignore[union-attr]
        metrics = spans.ledger([spans.load(str(spans_path))], len(traced))
        metrics.update(_zero_service_counters())
        metrics["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(walls) - 1.0
        )
        detail["traced_jobs"] = len(traced)
        return Outcome(attempted, failed, metrics, detail)

    window = phases[0]
    cpu_s = float(window["cpu_s"])  # type: ignore[arg-type]
    jobs = len(walls)
    metrics = {
        "traces_per_s": traces / statistics.median(walls),
        "cpu_us_per_trace": cpu_s / (jobs * traces) * 1e6,
        "jobs_per_s": jobs / float(window["window_s"]),  # type: ignore[arg-type]
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": percentile(walls, 0.90),
        "cpu_ms_per_job": cpu_s / jobs * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024.0,
    }
    return Outcome(attempted, failed, metrics, detail)


def _verification_sample(done: list, smoke: bool) -> list:
    """The retained (seeded) results to verify: the first ones of each
    class by job index, up to :data:`VERIFY_QUOTA` (all in smoke runs)."""
    retained = sorted((o for o in done if o.payload is not None), key=lambda o: o.job.index)
    if smoke:
        return retained
    taken: Dict[str, int] = {}
    chosen = []
    for outcome in retained:
        label = outcome.job.label
        if taken.get(label, 0) < VERIFY_QUOTA[label]:
            taken[label] = taken.get(label, 0) + 1
            chosen.append(outcome)
    return chosen


def _service_ledger(phases: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics of the traced (last) service lifetime."""
    import spans

    untraced, traced = phases
    jobs = [o for o in traced["outcomes"] if o.ok]  # type: ignore[union-attr]
    baseline = [o for o in untraced["outcomes"] if o.ok]  # type: ignore[union-attr]
    metrics = spans.ledger([spans.load(p) for p in traced["span_files"]], len(jobs))  # type: ignore[union-attr]
    snapshot = traced["snapshot"]["metrics"]  # type: ignore[index]

    def count(name: str) -> float:
        return float(snapshot["counters"].get(name, {}).get("value", 0))

    lookups = count("cache_hits") + count("cache_misses")
    per_job = 1.0 / len(jobs)
    server_cpu, worker_cpu = traced["cpu_s"]  # type: ignore[misc]
    metrics.update({
        "cache.hit_ratio": count("cache_hits") / lookups if lookups else 0.0,
        "scheduler.coalesce_ratio": (
            count("coalesced_jobs") / count("batched_jobs")
            if count("batched_jobs") else 0.0
        ),
        "scheduler.queue_wait_s.mean": float(
            snapshot["histograms"].get("queue_wait_s", {}).get("mean") or 0.0
        ),
        "service.fleet.leases_issued": count("fleet_leases_issued") * per_job,
        "service.server.cpu_s": server_cpu * per_job,
        "service.worker.cpu_s": worker_cpu * per_job,
        # Window seconds per completed job, traced over untraced.
        "trace.overhead_share": (
            (traced["window_s"] * per_job)  # type: ignore[operator]
            / (untraced["window_s"] / max(1, len(baseline)))  # type: ignore[operator]
            - 1.0
        ),
    })
    return metrics


def run_service(
    seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path,
    force_mismatch: bool,
) -> Outcome:
    import service as svc

    size = 1 if smoke else 0
    jobs = svc.plan(
        seed, TRACEGEN_TRACES[size], ATTACK_TRACES[size],
        retain_share=1.0 if smoke else 0.5,
    )
    setups: List[float] = []
    for index in range(0 if (trace or smoke) else SETUP_SAMPLES - 1):
        service = svc.Service(workdir / ("setup-%d" % index))
        try:
            setups.append(service.start(CHILD_TIMEOUT_S))
        finally:
            service.stop()

    lifetimes = [("untraced", seconds, None)]
    if trace:
        lifetimes.append(("traced", seconds, workdir / "service-spans"))
    phases = []
    for phase, budget, spans_prefix in lifetimes:
        service = svc.Service(workdir / phase, spans_prefix)
        snapshot: Optional[Dict[str, object]] = None
        try:
            setups.append(service.start(CHILD_TIMEOUT_S))
            cpu0 = service.cpu_s()
            outcomes, window_s = svc.closed_loop(service.port, jobs, budget)
            cpu1 = service.cpu_s()
            if spans_prefix is not None:
                snapshot = svc.fetch_metrics(service.port)
        finally:
            rss = service.stop()
        phases.append({
            "outcomes": outcomes,
            "window_s": window_s,
            "cpu_s": (cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]),
            "rss_kib": rss,
            "snapshot": snapshot,
            "span_files": service.span_files if spans_prefix else [],
        })

    everything = [o for phase in phases for o in phase["outcomes"]]
    done = [o for o in everything if o.ok]
    chosen = _verification_sample(done, smoke)
    got = [digest(o.payload) for o in chosen]
    if force_mismatch and got:
        got[0] = "0" * 64
    want = _reference_digests(
        [{"kind": o.job.kind, "params": o.job.params} for o in chosen]
    )
    # A sample that misses a completed class, or is smaller than
    # MIN_VERIFIED (or every completed job), fails the run as well.
    short = len(chosen) < min(MIN_VERIFIED, len(done)) or (
        {o.job.label for o in done} != {o.job.label for o in chosen}
    )
    failed = len(everything) - len(done) + _mismatches(got, want) + int(short)
    detail: Dict[str, object] = {
        "jobs": len(everything),
        "verified": len(chosen),
        "errors": [o.error for o in everything if not o.ok][:3],
        "verified_by_class": {
            label: sum(1 for o in chosen if o.job.label == label)
            for label in VERIFY_QUOTA
        },
        "setups_s": setups,
    }

    last = phases[-1]
    last_done = [o for o in last["outcomes"] if o.ok]
    if not last_done:
        raise WorkloadError("service completed no job in the timed window")
    if trace:
        return Outcome(len(everything), failed, _service_ledger(phases), detail)

    latencies = [o.latency_s for o in last_done]
    traces = sum(o.traces for o in last_done)
    cpu_s = sum(last["cpu_s"])
    window_s = last["window_s"]
    metrics = {
        "traces_per_s": traces / window_s,
        "cpu_us_per_trace": cpu_s / traces * 1e6,
        "jobs_per_s": len(last_done) / window_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 0.90),
        "cpu_ms_per_job": cpu_s / len(last_done) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": sum(last["rss_kib"].values()) / 1024.0,
    }
    return Outcome(len(everything), failed, metrics, detail)


def run_workload(name: str, args: argparse.Namespace, workdir: Path) -> Outcome:
    if name == SERVICE:
        return run_service(
            args.seed, args.seconds, args.trace, args.smoke, workdir,
            args.force_mismatch,
        )
    return run_campaign(
        name, args.seed, args.seconds, args.trace, args.smoke, workdir,
        args.force_mismatch,
    )


def result_object(
    outcome: Optional[Outcome], declared: List[Dict[str, object]]
) -> Dict[str, object]:
    """The contract's result object: every declared metric, with units."""
    if outcome is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = {
        str(entry["name"]): {
            "value": float(outcome.metrics[str(entry["name"])]),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _print_table(name: str, result: Dict[str, object], detail: Dict[str, object]) -> None:
    status = "ok" if result["correct"] else "FAILED"
    print("%s: %s, %d attempted, %d failed  %s" % (
        name, status, result["attempted"], result["failed"],
        json.dumps(detail, sort_keys=True)))
    for metric, entry in result["metrics"].items():  # type: ignore[union-attr]
        print("  %-48s %16.6g %s" % (metric, entry["value"], entry["unit"]))


def parse_args(argv: List[str]) -> argparse.Namespace:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", default=None,
        help="workload name (repeatable or comma-separated; default: all of %s)"
        % ", ".join(WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed window per workload (default: %s; %s with --smoke)"
        % (declaration["run_seconds"], SMOKE_SECONDS),
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small inputs and one set-up per workload (self-test)",
    )
    parser.add_argument("--out", default=None, help="also write all results here")
    parser.add_argument(
        "--force-mismatch", action="store_true",
        help="self-test: corrupt one result digest before it is compared",
    )
    args = parser.parse_args(argv)
    names = [n for spec in (args.workload or [",".join(WORKLOADS)]) for n in spec.split(",") if n]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error("unknown workload(s) %s" % ", ".join(unknown))
    args.workloads = list(dict.fromkeys(names))
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(declaration["run_seconds"])
    args.trace = bool(args.trace)
    args.declared = declaration["per_layer" if args.trace else "end_to_end"]
    return args


def main(argv: List[str]) -> int:
    require_checkout()
    args = parse_args(argv)
    workdir = BUILD / "runs" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    results: Dict[str, Dict[str, object]] = {}
    try:
        for name in args.workloads:
            try:
                outcome: Optional[Outcome] = run_workload(name, args, workdir)
                detail = outcome.detail
            except Exception as exc:  # noqa: BLE001 — report, run the next workload
                traceback.print_exc()
                outcome, detail = None, {"error": "%s: %s" % (type(exc).__name__, exc)}
            result = result_object(outcome, args.declared)
            _print_table(name, result, detail)
            results[name] = dict(result, detail=detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed, "seconds": args.seconds,
                "trace": int(args.trace), "smoke": args.smoke,
                "cpus": len(os.sched_getaffinity(0)),
                "workloads": results,
            }, handle, indent=1)
    summaries = {
        name: {key: value for key, value in result.items() if key != "detail"}
        for name, result in results.items()
    }
    correct = all(result["correct"] for result in summaries.values())
    if len(summaries) == 1:
        print(json.dumps(next(iter(summaries.values()))))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(int(r["attempted"]) for r in summaries.values()),
            "failed": sum(int(r["failed"]) for r in summaries.values()),
            "workloads": summaries,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
