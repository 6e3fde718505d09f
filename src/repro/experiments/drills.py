"""Correctness drills: end-to-end checks too large for the unit suite.

Each drill runs a real campaign, service or fleet at the sizes a CI
job affords, raises ``AssertionError`` the moment a bit-identity gate
breaks (always *before* anything is timed), and returns a plain dict
for the caller to assert on.  None writes a record file; speed is
measured by ``bench/run.py``, and these numbers are only gates.

* :func:`chaos_drill` — SIGKILL a journaled ``repro serve`` with two
  jobs in flight, one fleet job part-merged and spooled, restart it on
  the same journal, and require both recovered results byte-identical
  to undisturbed runs and the fleet job to lease again only the traces
  its spool had not merged.
* :func:`preprocess_drill` — a disabled misalignment spec equals no
  spec, the preprocessed campaign is bit-identical at 1 vs 2 workers,
  the alignment throughput, and the severity at which the raw attack
  fails while the aligned one still recovers the key.
* :func:`scaling_drill` — a 2-worker thread campaign and a 2-worker
  loopback fleet, each asserted equal to its 1-worker run before both
  are timed, with the usable CPU count to judge the ratios against.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

import numpy as np

import repro
from repro.aes.aes128 import AES128
from repro.core.endpoint_sensor import BenignSensor
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.experiments.benchmark import best_of, warm_kernels
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import sharded_physical_attack
from repro.util.executors import usable_cpu_count
from repro.util.rng import derive_seed

__all__ = ["chaos_drill", "preprocess_drill", "scaling_drill"]


def _subprocess_env() -> Dict[str, str]:
    """This environment with the package root first on ``PYTHONPATH``,
    so spawned ``repro serve``/``repro worker`` processes import the
    same source tree as the drill."""
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return env


def _spawn_server(
    env: Dict[str, str],
    port: int,
    journal_dir: str,
    spool_dir: str,
    cache_dir: str,
):
    """Start a ``repro serve`` subprocess and wait for its ready line.

    Returns ``(process, bound_port)``.  The server is a real separate
    process — the chaos drill SIGKILLs it, which an in-process server
    cannot survive to measure.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
            "--journal-dir",
            journal_dir,
            "--spool-dir",
            spool_dir,
            "--cache-dir",
            cache_dir,
            "--fleet-grace",
            "30",
            # One job at a time: the second job waits, queued, behind
            # the held fleet job, so both are in flight at the kill.
            "--max-concurrency",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if "listening on" in line:
            bound_port = int(line.rsplit(":", 1)[1])
            return proc, bound_port
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("chaos drill server failed to start")


def _leased_traces(journal_dir: str, job_id: str, since: float) -> int:
    """Traces of ``job_id``'s leases journaled at or after ``since``."""
    log = Path(journal_dir) / "journal.jsonl"
    records = [json.loads(raw) for raw in log.read_bytes().splitlines()]
    return sum(
        record["end"] - record["start"]
        for record in records
        if record["record"] == "lease_granted"
        and record["job_id"] == job_id
        and record["time"] >= since
    )


def chaos_drill(traces: int = 60_000, seed: int = 1) -> Dict[str, object]:
    """The durability drill: SIGKILL the journaled server mid-campaign.

    Starts a real ``repro serve`` subprocess (one job at a time) with a
    write-ahead journal plus two ``repro worker --reconnect``
    subprocesses, registered in turn so the fleet job's second lease
    goes to the second, which is stopped (SIGSTOP) before two jobs are
    submitted: a fleet CPA attack, and a local attack queued behind it.
    The fleet job merges and spools its first lease but cannot finish;
    once its spool checkpoint exists the
    :class:`~repro.util.faults.FaultPlan`'s ``server_kill`` delivers a
    SIGKILL (no drain).  A fresh server on the same port replays the
    journal and re-admits both jobs, the workers redial with seeded
    backoff (``worker_kill`` at the ``recovered`` barrier additionally
    takes the first one out), and the drill re-attaches to both job ids.
    Both recovered results are asserted byte-identical to undisturbed
    single-host runs computed before any fault — ``identity_diffs``
    must be 0 — and ``rerun_traces`` counts the fleet job's traces
    leased again after the restart (it resumes from its spool).  The
    returned dict also carries the recovery latency and the journal
    counters.
    """
    from repro.service.client import (
        ServiceClient,
        attach_job,
        fetch_jobs_overview,
    )
    from repro.service.codec import from_payload
    from repro.service.jobs import JobSpec
    from repro.service.runners import run_attack
    from repro.util.faults import (
        FAULT_SERVER_KILL,
        FAULT_WORKER_KILL,
        FaultPlan,
        FaultSpec,
    )

    plan = FaultPlan(
        [
            FaultSpec(FAULT_SERVER_KILL, site="barrier:fleet_spooled"),
            FaultSpec(FAULT_WORKER_KILL, site="barrier:recovered"),
        ],
        seed=seed,
    )
    warm_kernels()
    specs = {
        name: JobSpec.create("attack", params)
        for name, params in {
            "fleet-attack": {
                "traces": int(traces),
                "seed": int(seed),
                "fleet": True,
            },
            "local-attack": {
                "traces": int(max(2000, traces // 4)),
                "seed": int(seed) + 1,
                "fleet": False,
            },
        }.items()
    }
    jobs = {name: spec.params for name, spec in specs.items()}
    baselines = {
        name: run_attack(dict(params, fleet=False))
        for name, params in jobs.items()
    }

    env = _subprocess_env()
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    journal_dir = str(root / "journal")
    spool_dir = str(root / "spool")
    cache_dir = str(root / "cache")
    fleet_spool = Path(spool_dir) / (
        specs["fleet-attack"].cache_key + ".npz"
    )
    workers = []
    server = None
    try:
        server, port = _spawn_server(
            env, 0, journal_dir, spool_dir, cache_dir
        )

        async def _register_then_submit():
            async with ServiceClient("127.0.0.1", port) as client:
                for index in range(2):
                    workers.append(
                        subprocess.Popen(
                            [
                                sys.executable, "-m", "repro", "worker",
                                "127.0.0.1:%d" % port,
                                "--name", "chaos-w%d" % index,
                                "--reconnect", "--max-reconnects", "60",
                                "--quiet",
                            ],
                            env=env,
                        )
                    )
                    deadline = time.monotonic() + 60.0
                    while True:
                        fleet = (await client.jobs_overview()).get("fleet")
                        if len((fleet or {}).get("workers") or ()) > index:
                            break
                        if time.monotonic() > deadline:
                            raise RuntimeError(
                                "chaos drill workers never registered"
                            )
                        await asyncio.sleep(0.05)
                # The second worker holds the fleet job's second lease
                # unanswered: the job merges its first and spools, but
                # cannot finish before the kill.
                workers[1].send_signal(signal.SIGSTOP)
                return {
                    name: await client.submit_nowait("attack", params)
                    for name, params in jobs.items()
                }

        job_ids = asyncio.run(_register_then_submit())

        # Barrier: the fleet job's spool checkpoint holds a merged lease.
        deadline = time.monotonic() + 120.0
        while not fleet_spool.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "no fleet spool checkpoint before the kill deadline"
                )
            if server.poll() is not None:
                raise RuntimeError("chaos drill server died early")
            time.sleep(0.01)

        killed = plan.wants(FAULT_SERVER_KILL, "barrier:fleet_spooled")
        if killed:
            server.send_signal(signal.SIGKILL)
            server.wait()
        workers[1].send_signal(signal.SIGCONT)

        recovery_start = time.perf_counter()
        restarted_at = time.time()
        if killed:
            server, port = _spawn_server(
                env, port, journal_dir, spool_dir, cache_dir
            )
        if plan.wants(FAULT_WORKER_KILL, "barrier:recovered"):
            workers[0].send_signal(signal.SIGKILL)
            workers[0].wait()

        results = {}
        for name, job_id in job_ids.items():
            results[name] = attach_job("127.0.0.1", port, job_id)
        recovery_s = time.perf_counter() - recovery_start
        rerun_traces = _leased_traces(
            journal_dir, job_ids["fleet-attack"], restarted_at
        )

        identity_diffs = 0
        for name, job in results.items():
            if job.get("status") != "done":
                raise RuntimeError(
                    "recovered job %s (%s) finished %s: %s"
                    % (name, job_ids[name], job.get("status"), job.get("error"))
                )
            merged = from_payload(job["result"])
            baseline = baselines[name]
            if not (
                np.array_equal(merged.checkpoints, baseline.checkpoints)
                and np.array_equal(
                    merged.correlations, baseline.correlations
                )
            ):
                identity_diffs += 1
        if identity_diffs:
            raise AssertionError(
                "%d recovered result(s) diverge from the undisturbed "
                "single-host runs" % identity_diffs
            )

        overview = fetch_jobs_overview("127.0.0.1", port)
        counters = {
            name: value
            for name, value in (overview.get("recovery") or {}).items()
            if name != "journal_enabled"
        }
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGCONT)
                proc.send_signal(signal.SIGTERM)
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if server is not None:
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    lock_released = not (Path(journal_dir) / "journal.lock").exists()
    return {
        "seed": seed,
        "traces": traces,
        "plan": {
            "server_kill": killed,
            "worker_kill": plan.wants(
                FAULT_WORKER_KILL, "barrier:recovered"
            ),
        },
        "jobs": {
            name: {"job_id": job_ids[name], "params": params}
            for name, params in jobs.items()
        },
        "server_killed_at": "barrier:fleet_spooled",
        "rerun_traces": rerun_traces,
        "recovery_s": recovery_s,
        "identity_diffs": identity_diffs,
        "identical_results": identity_diffs == 0,
        "journal": counters,
        "lock_released_after_drain": lock_released,
    }


def preprocess_drill(
    traces: int = 80_000,
    align_traces: int = 4096,
    severities=(0, 1, 2, 3),
    repeats: int = 3,
    max_workers: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Acquisition-realism drill: alignment cost and what it buys.

    Three sections, identity gates asserted *before* any timing:

    * ``identity`` — a disabled :class:`MisalignmentSpec` is
      bit-identical to no spec at all, and the preprocessed physical
      campaign is bit-identical at 1 vs 2 workers (the preprocessing
      runs shard-locally, so this is the property that makes its
      timings meaningful);
    * ``alignment`` — correlation-alignment throughput
      (estimate + apply) over a misaligned batch, best-of ``repeats``;
    * ``severity_sweep`` — final key rank of the end-to-end physical
      CPA at each trigger-misalignment severity, raw vs
      correlation-aligned, plus ``recovery_frontier``: the smallest
      severity where the raw attack fails and the aligned one still
      recovers the key.
    """
    from repro.preprocess.align import apply_shifts, estimate_shifts
    from repro.preprocess.pipeline import resolve_preprocess
    from repro.preprocess.spec import MisalignmentSpec, PreprocessSpec

    warm_kernels()
    cipher = AES128(bytes(range(16)))
    sensor = BenignSensor.from_name("alu")

    # Tail margin around the encryption window (start_sample=12 in 88
    # samples) so trigger shifts displace content instead of clipping
    # it at the trace edge — the realistic acquisition setting.
    def generator(severity: int) -> PhysicalTraceGenerator:
        misalignment = (
            MisalignmentSpec(shift_mode="uniform", shift_samples=severity)
            if severity
            else None
        )
        return PhysicalTraceGenerator(
            cipher,
            start_sample=12,
            num_samples=88,
            misalignment=misalignment,
        )

    max_shift = int(max(severities)) + 2
    align_spec = PreprocessSpec(align="correlation", max_shift=max_shift)

    # -- identity gates (assert before timing) -------------------------
    clean = generator(0)
    disabled = PhysicalTraceGenerator(
        cipher,
        start_sample=12,
        num_samples=88,
        misalignment=MisalignmentSpec(),
    )
    probe_pt = random_plaintexts(256, seed=derive_seed(seed, "bench-pre-pt"))
    base = clean.generate(probe_pt, seed=derive_seed(seed, "bench-pre"))
    withspec = disabled.generate(
        probe_pt, seed=derive_seed(seed, "bench-pre")
    )
    if not all(
        np.array_equal(base[k], withspec[k]) for k in ("voltages",
                                                       "ciphertexts")
    ):
        raise AssertionError(
            "disabled MisalignmentSpec is not bit-identical to no spec"
        )
    gate_gen = generator(2)
    gate_plan = resolve_preprocess(align_spec, gate_gen, seed, columns=(3,))
    gate = [
        sharded_physical_attack(
            gate_gen,
            sensor,
            4000,
            max_workers=workers,
            seed=seed,
            preprocess=gate_plan,
        )
        for workers in (1, 2)
    ]
    if not np.array_equal(gate[0].correlations, gate[1].correlations):
        raise AssertionError(
            "preprocessed campaign is not bit-identical at 1 vs 2 workers"
        )

    record: Dict[str, object] = {
        "seed": seed,
        "traces": int(traces),
        "repeats": repeats,
        "identity": {
            "disabled_spec_bit_identical": True,
            "workers_1_vs_2_bit_identical": True,
        },
    }

    # -- alignment throughput ------------------------------------------
    bank = generator(3)
    batch = bank.generate(
        random_plaintexts(
            align_traces, seed=derive_seed(seed, "bench-align-pt")
        ),
        seed=derive_seed(seed, "bench-align"),
    )["voltages"]
    reference = resolve_preprocess(
        align_spec, bank, seed, columns=(3,)
    ).reference

    def align_once():
        shifts = estimate_shifts(batch, reference, max_shift, "correlation")
        return apply_shifts(batch, shifts)

    align_s = best_of(repeats, align_once)
    record["alignment"] = {
        "traces": int(align_traces),
        "num_samples": int(bank.num_samples),
        "max_shift": max_shift,
        "seconds": align_s,
        "traces_per_s": align_traces / align_s,
    }

    # -- attack success vs misalignment severity -----------------------
    sweep = []
    frontier = None
    for severity in severities:
        jittered = generator(int(severity))
        raw = sharded_physical_attack(
            jittered,
            sensor,
            traces,
            max_workers=max_workers,
            seed=seed,
        )
        plan = resolve_preprocess(align_spec, jittered, seed, columns=(3,))
        aligned = sharded_physical_attack(
            jittered,
            sensor,
            traces,
            max_workers=max_workers,
            seed=seed,
            preprocess=plan,
        )
        entry = {
            "severity": int(severity),
            "raw_rank": int(raw.key_ranks()[-1]),
            "raw_recovered": bool(raw.key_ranks()[-1] == 0),
            "aligned_rank": int(aligned.key_ranks()[-1]),
            "aligned_recovered": bool(aligned.key_ranks()[-1] == 0),
        }
        sweep.append(entry)
        if (
            frontier is None
            and entry["raw_rank"] > 0
            and entry["aligned_rank"] == 0
        ):
            frontier = int(severity)
    record["severity_sweep"] = sweep
    record["recovery_frontier"] = frontier
    return record


def _local_scaling(traces: int, repeats: int, seed: int) -> Dict[str, object]:
    """Physical campaign on the thread pool: 2 workers vs 1."""
    generator = PhysicalTraceGenerator(AES128(ExperimentConfig().key))
    sensor = BenignSensor.from_name("alu")

    def run(workers: int):
        return sharded_physical_attack(
            generator, sensor, traces, max_workers=workers, seed=seed
        )

    if not np.array_equal(run(1).correlations, run(2).correlations):
        raise AssertionError(
            "2-worker campaign correlations diverge from 1 worker"
        )
    one_s = best_of(repeats, lambda: run(1))
    two_s = best_of(repeats, lambda: run(2))
    return {
        "traces": int(traces),
        "identical_correlations": True,
        "workers_1_s": one_s,
        "workers_2_s": two_s,
        "speedup": one_s / two_s,
    }


def _fleet_scaling(traces: int, repeats: int, seed: int) -> Dict[str, object]:
    """One fleet CPA attack over 1 vs 2 loopback ``repro worker``s.

    An in-process campaign service leases the job's shards to
    ``repro worker`` subprocesses.  The merged result is asserted equal
    to a direct :func:`~repro.service.runners.run_attack` before any
    timing; timed repeats clear the scheduler's memory cache so every
    repeat recomputes, while the workers' rebuilt-input caches stay
    warm — the steady state cache-aware placement targets.
    """
    from repro.service.codec import from_payload
    from repro.service.jobs import JobSpec
    from repro.service.runners import run_attack
    from repro.service.scheduler import CampaignScheduler, SchedulerConfig
    from repro.service.server import CampaignServer

    spec = JobSpec.create(
        "attack", {"traces": int(traces), "seed": int(seed), "fleet": True}
    )
    baseline = run_attack(dict(spec.params, fleet=False))
    usable = usable_cpu_count()
    env = _subprocess_env()

    async def measure(num_workers: int) -> float:
        scheduler = CampaignScheduler(SchedulerConfig(max_concurrency=1))
        server = CampaignServer(scheduler, "127.0.0.1", 0)
        host, port = await server.start()
        # Split the usable cores across the fleet so N workers model N
        # hosts sharing nothing, not N pools oversubscribing one host.
        local = max(1, usable // num_workers)
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "%s:%d" % (host, port),
                    "--name", "drill-w%d" % index,
                    "--workers", str(local),
                    "--quiet",
                ],
                env=env,
            )
            for index in range(num_workers)
        ]
        try:
            deadline = time.monotonic() + 120.0
            while scheduler.fleet.num_workers < num_workers:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        "only %d/%d drill workers registered"
                        % (scheduler.fleet.num_workers, num_workers)
                    )
                await asyncio.sleep(0.1)

            async def one_run():
                state = scheduler.submit(spec)
                handoff = scheduler.result_future(state)
                async for _event in state.stream():
                    pass
                if state.status != "done":
                    raise RuntimeError(
                        "fleet drill job failed: %s" % state.error
                    )
                return handoff.result()

            # Identity gate first — untimed, and it doubles as the
            # warm-up that pays worker-side input rebuilding.
            result = from_payload(await one_run())
            if not (
                np.array_equal(result.checkpoints, baseline.checkpoints)
                and np.array_equal(
                    result.correlations, baseline.correlations
                )
            ):
                raise AssertionError(
                    "fleet merge over %d worker(s) diverges from the "
                    "single-host result" % num_workers
                )
            best = float("inf")
            for _ in range(repeats):
                scheduler.cache.clear_memory()
                start = time.perf_counter()
                await one_run()
                best = min(best, time.perf_counter() - start)
            return best
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            await server.close()

    one_s = asyncio.run(measure(1))
    two_s = asyncio.run(measure(2))
    return {
        "traces": int(traces),
        "identical_correlations": True,
        "workers_1_s": one_s,
        "workers_2_s": two_s,
        "speedup": one_s / two_s,
    }


def scaling_drill(
    local_traces: int = 20_000,
    fleet_traces: int = 120_000,
    repeats: int = 2,
    seed: int = 1,
) -> Dict[str, object]:
    """Does a second worker pay, locally and over the fleet?

    ``local``: a physical CPA campaign on the thread pool at
    ``workers=2`` against ``workers=1``.  ``fleet``: one attack job
    leased to 2 loopback ``repro worker`` processes against 1.  Each
    half asserts the 2-worker result equal to the 1-worker (local) or
    direct single-host (fleet) result before timing, best of
    ``repeats``; ``speedup`` is 1-worker over 2-worker wall time.
    ``usable_cpus`` is what the process may run on: a ratio measured
    with fewer than 2 usable CPUs time-slices one core and says nothing
    about scaling, so a caller gating on ``speedup`` checks it first.
    """
    warm_kernels()
    return {
        "seed": seed,
        "usable_cpus": usable_cpu_count(),
        "local": _local_scaling(local_traces, repeats, seed),
        "fleet": _fleet_scaling(fleet_traces, repeats, seed),
    }
