"""Performance harness for the sampling, trace-generation and campaign
fast paths.

:func:`run_sampling_benchmark` times the four sensor-sampling
configurations (bank vs reference loop, with and without per-register
jitter) and one end-to-end CPA campaign (serial vs sharded), and
returns a JSON-serializable record; :func:`write_sampling_benchmark`
persists it (``BENCH_sampling.json`` at the repo root is the tracked
snapshot, regenerated via ``repro bench``).

:func:`run_e2e_benchmark` covers the stages *feeding* the sampler: the
batched AES datapath vs the per-trace cipher loop, the IIR-form PDN
integrator vs the pure-Python recurrence, the combined physical trace
generator, and a full physical CPA campaign — fast kernels on a
multi-worker thread pool against the per-trace reference path run
serially.  Every comparison asserts bit-identical outputs (states,
waveforms, sampled bits, CPA correlations) before anything is timed;
``BENCH_e2e.json`` is the tracked snapshot
(``repro bench --suite e2e``).

:func:`run_fleet_benchmark` measures distributed campaign dispatch:
an in-process campaign service plus ``repro worker`` subprocesses on
loopback TCP, 1 vs N workers, with the merged result asserted
bit-identical to a direct single-host run before any timing, and the
binary-frame vs base64-JSON payload sizes recorded alongside
(``repro bench --suite fleet`` → ``BENCH_fleet.json``).

:func:`run_chaos_benchmark` is the durability drill for the journaled
control plane: a real ``repro serve`` subprocess is SIGKILLed at a
journaled barrier with two jobs in flight (one leased to remote
``--reconnect`` workers), restarted on the same journal, and both
recovered results are asserted byte-identical to undisturbed runs
before the recovery latency is recorded
(``repro bench --suite chaos`` → ``BENCH_chaos.json``).

Methodology:

* every timed path runs once untimed to warm lazily built tables (the
  bank's interval-word table, the campaign's characterization) so the
  numbers measure steady-state sampling throughput;
* each measurement is the best of ``repeats`` runs (minimum wall
  clock), the standard way to suppress scheduler noise;
* bank and reference paths are asserted bit-identical on every run, so
  a speedup can never come from computing something different.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.attacks.cpa import run_cpa
from repro.attacks.models import single_bit_hypothesis
from repro.core.attack import (
    DEFAULT_TARGET_BYTE,
    REDUCTION_HW,
    AttackCampaign,
)
from repro.core.endpoint_sensor import (
    DEFAULT_JITTER_PS,
    DEFAULT_SHARED_JITTER_PS,
    BenignSensor,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    default_workers,
    plan_chunk_size,
    sharded_attack,
)
from repro.util import kernels
from repro.util.executors import EXECUTOR_THREAD, usable_cpu_count
from repro.util.rng import derive_seed, make_rng

from repro.aes.aes128 import AES128


def host_metadata() -> Dict[str, object]:
    """Host provenance embedded in every benchmark record.

    Performance snapshots are only comparable between runs when the
    platform that produced them is known; this block pins the
    interpreter, the numeric stack, the machine, the pool backend
    (``executor``: always ``"thread"`` now; older records may say
    ``"process"``), and — since the kernel dispatch layer — the
    resolved kernel backend map (``kernel_backends``) and the native
    provider serving it.
    """
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        # What the campaign can actually use: cgroup/affinity limits
        # make this smaller than cpu_count in containers and CI, and a
        # "parallel speedup" is only meaningful against this number.
        "usable_cpus": usable_cpu_count(),
        "executor": EXECUTOR_THREAD,
    }
    meta.update(kernels.backend_metadata())
    return meta


def warm_kernels() -> None:
    """Run every dispatched kernel once on tiny inputs, pre-timing.

    The native backend pays a one-time library build (and the sensor
    kernel its load-time self-check) on first call; running each op
    here keeps that cost out of every timed repeat.  The warm-up
    outputs of all five kernels are asserted equal to the numpy
    reference — the same assert-before-timing contract the stage
    comparisons enforce, just extended to the warm-up itself.
    """
    rng = make_rng(derive_seed(0, "bench-kernel-warmup"))
    plaintexts = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
    currents = rng.normal(0.02, 0.005, size=(4, 32))
    leakage = rng.integers(0, 9, size=16).astype(np.float64)
    hypotheses = rng.integers(0, 2, size=(16, 256)).astype(np.int8)
    samples = rng.normal(size=(3, 40))

    from repro.aes.batch import BatchedAES128, cycle_activity_and_ciphertexts
    from repro.attacks.cpa import StreamingCPA
    from repro.attacks.models import single_bit_hypothesis
    from repro.pdn.model import PDNModel, PDNParameters
    from repro.preprocess.resample import polyphase_resample

    sensor = BenignSensor.from_name("alu")
    voltages = rng.normal(PDNParameters().nominal_voltage, 0.005, size=64)

    def run_all():
        batched = BatchedAES128(bytes(range(16)))
        states = batched.round_states(plaintexts)
        activity, ciphertexts = cycle_activity_and_ciphertexts(
            batched, plaintexts
        )
        hyp = single_bit_hypothesis(states[:, 11, 0])
        droop = PDNModel().integrate_batch(currents)
        resampled = polyphase_resample(samples, 3, 2)
        weight = sensor.sample_weight(voltages, seed=7)
        engine = StreamingCPA()
        engine.update(leakage, hypotheses)
        arrays = (states, activity, ciphertexts, hyp, droop, resampled,
                  weight)
        return arrays + tuple(engine.state_arrays().values())

    with kernels.use("numpy"):
        reference = run_all()
    warmed = run_all()
    if not all(np.array_equal(a, b) for a, b in zip(reference, warmed)):
        raise AssertionError(
            "kernel warm-up output diverges from the numpy reference "
            "(active backends: %r)" % (kernels.active_backends(),)
        )


def _workers_exceed_cpus(workers: int) -> bool:
    """Whether ``workers`` oversubscribes the usable cores (warns once).

    4 workers pinned to 1 core time-slice one CPU while paying full
    fan-out overhead — that alone can manufacture a sub-1.0 "parallel
    speedup", so the condition is stamped into the record and warned
    about rather than silently distorting the trajectory.
    """
    usable = usable_cpu_count()
    exceed = workers > usable
    if exceed:
        print(
            "bench: warning: %d workers exceed %d usable CPU%s; parallel "
            "timings will understate real multi-core scaling"
            % (workers, usable, "" if usable == 1 else "s"),
            file=sys.stderr,
        )
    return exceed


def _parallel_speedup_fields(
    speedup: float, exceed: bool, prefix: str = "parallel_speedup"
) -> Dict[str, object]:
    """Speedup fields that stay honest on oversubscribed hosts.

    When the measurement oversubscribed the usable cores, the headline
    ``<prefix>_same_kernels`` figure is ``None`` — a sub-1.0 number
    measured by time-slicing one CPU is not a scaling result — and the
    raw ratio moves to ``<prefix>_advisory`` with a note saying why.
    On a host with enough cores the headline field carries the ratio
    and the advisory fields are ``None``.
    """
    if exceed:
        return {
            "%s_same_kernels" % prefix: None,
            "%s_advisory" % prefix: speedup,
            "%s_note" % prefix: (
                "workers exceed usable CPUs; the advisory ratio "
                "time-slices one core and understates real multi-core "
                "scaling"
            ),
        }
    return {
        "%s_same_kernels" % prefix: speedup,
        "%s_advisory" % prefix: None,
        "%s_note" % prefix: None,
    }


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sampling_case(
    calibration,
    voltages: np.ndarray,
    jitter_ps: float,
    shared: Optional[np.ndarray],
    repeats: int,
) -> Dict[str, float]:
    """Time bank vs reference on identical inputs; assert equality."""
    kwargs = dict(jitter_ps=jitter_ps, seed=7, shared_jitter_ps=shared)
    bank_out = calibration.sample_bits(voltages, **kwargs)
    reference_out = calibration.sample_bits_reference(voltages, **kwargs)
    if not np.array_equal(bank_out, reference_out):
        raise AssertionError("bank and reference paths disagree")
    n = voltages.shape[0]
    bank_s = _best_of(
        repeats, lambda: calibration.sample_bits(voltages, **kwargs)
    )
    reference_s = _best_of(
        repeats,
        lambda: calibration.sample_bits_reference(voltages, **kwargs),
    )
    return {
        "bank_s": bank_s,
        "reference_s": reference_s,
        "bank_traces_per_s": n / bank_s,
        "reference_traces_per_s": n / reference_s,
        "speedup": reference_s / bank_s,
    }


def run_sampling_benchmark(
    num_cycles: int = 100_000,
    circuit: str = "alu",
    campaign_traces: int = 100_000,
    repeats: int = 3,
    max_workers: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Benchmark the sampling kernels and the sharded campaign driver.

    Args:
        num_cycles: voltage samples per sampling measurement (the
            acceptance target is the 100k-cycle ALU campaign).
        circuit: registry circuit to benchmark.
        campaign_traces: traces for the serial-vs-sharded campaign
            comparison.
        repeats: timing repeats (best-of).
        max_workers: sharded-driver worker count (default: machine
            dependent).
        seed: campaign/jitter seed.
    """
    warm_kernels()
    sensor = BenignSensor.from_name(circuit)
    calibration = sensor.instances[0].calibration
    rng = make_rng(derive_seed(seed, "bench-voltages"))
    voltages = rng.normal(1.0, 0.02, size=num_cycles)
    shared = rng.normal(0.0, DEFAULT_SHARED_JITTER_PS, size=num_cycles)

    sampling = {
        "num_cycles": num_cycles,
        "num_endpoints": calibration.num_bits,
        # Zero per-register jitter: the interval-table kernel.  Shared
        # capture-clock jitter is still applied (it only shifts the
        # per-cycle query time), so this is the realistic
        # common-query-time configuration, not a stripped-down one.
        "zero_jitter": _sampling_case(
            calibration, voltages, 0.0, shared, repeats
        ),
        # Full noise model: per-register Gaussian jitter on top.  The
        # Gaussian draw itself dominates here, bounding the achievable
        # speedup; both paths consume the identical generator stream.
        "per_register_jitter": _sampling_case(
            calibration, voltages, DEFAULT_JITTER_PS, shared, repeats
        ),
    }

    workers = max_workers if max_workers is not None else default_workers()
    campaign = AttackCampaign(
        sensor, AES128(ExperimentConfig().key), seed=seed
    )
    campaign.characterize()
    # Both paths must share one chunk grid: jitter seeds are keyed on
    # global chunk starts, so the serial baseline is collected at the
    # sharded driver's chunk size and the correlation comparison is
    # bit-exact at any campaign size.  The chunk itself is sized to the
    # reduction pipeline's working-set footprint, not the trace count.
    chunk = plan_chunk_size(
        campaign_traces, campaign.working_set_bytes_per_trace(), workers
    )

    def serial_run():
        data = campaign.collect_reduced_traces(
            campaign_traces, REDUCTION_HW, chunk_size=chunk
        )
        hypotheses = single_bit_hypothesis(
            data["ciphertexts"][:, DEFAULT_TARGET_BYTE]
        )
        return run_cpa(data["leakage"], hypotheses)

    def sharded_run():
        return sharded_attack(
            campaign,
            campaign_traces,
            reduction=REDUCTION_HW,
            max_workers=workers,
            chunk_size=chunk,
        )

    serial = serial_run()
    sharded = sharded_run()
    identical = bool(
        np.array_equal(serial.correlations, sharded.correlations)
    )
    if not identical:
        raise AssertionError("sharded campaign correlations diverge")
    serial_s = _best_of(repeats, serial_run)
    sharded_s = _best_of(repeats, sharded_run)
    return {
        "circuit": circuit,
        "seed": seed,
        "repeats": repeats,
        "cpu_count": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": host_metadata(),
        "sampling": sampling,
        "campaign": {
            "num_traces": campaign_traces,
            "workers": workers,
            "workers_exceed_cpus": _workers_exceed_cpus(workers),
            "chunk_size": chunk,
            "serial_s": serial_s,
            "sharded_s": sharded_s,
            "serial_traces_per_s": campaign_traces / serial_s,
            "sharded_traces_per_s": campaign_traces / sharded_s,
            "speedup": serial_s / sharded_s,
            "identical_correlations": identical,
        },
    }


def write_sampling_benchmark(
    path: str = "BENCH_sampling.json", **kwargs
) -> Dict[str, object]:
    """Run the benchmark and write its record to ``path``."""
    record = run_sampling_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def _stage_record(
    reference_s: float, fast_s: float, n: int
) -> Dict[str, float]:
    return {
        "reference_s": reference_s,
        "fast_s": fast_s,
        "reference_traces_per_s": n / reference_s,
        "fast_traces_per_s": n / fast_s,
        "speedup": reference_s / fast_s,
    }


def run_e2e_benchmark(
    gen_traces: int = 4000,
    campaign_traces: int = 40_000,
    circuit: str = "alu",
    repeats: int = 3,
    max_workers: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Benchmark the vectorized trace-generation pipeline end to end.

    Three per-stage comparisons on ``gen_traces`` random plaintexts —
    batched AES cycle activity vs the per-trace datapath loop, batched
    IIR PDN integration vs the pure-Python recurrence, and the combined
    :class:`~repro.core.tracegen.PhysicalTraceGenerator` fast vs
    reference paths — plus one physical CPA campaign comparison:
    fast kernels sharded over ``max_workers`` workers against the
    per-trace reference pipeline run serially.

    Every stage first asserts the fast output is bit-identical to the
    reference (AES activity, droop waveforms, generated voltages,
    sampled sensor bits, CPA correlations); an ``AssertionError``
    aborts the benchmark, so a recorded speedup can never come from
    computing something different.

    Args:
        gen_traces: traces per trace-generation stage measurement.
        campaign_traces: traces for the campaign comparison.
        circuit: registry circuit used as the sensor.
        repeats: timing repeats (best-of).
        max_workers: campaign worker count (default: machine default).
        seed: campaign seed.
    """
    from repro.aes.batch import encryption_cycle_hd_batch
    from repro.aes.datapath import encryption_cycle_hd
    from repro.core.tracegen import (
        PhysicalTraceGenerator,
        random_plaintexts,
    )
    from repro.experiments.parallel import sharded_physical_attack

    warm_kernels()
    cipher = AES128(ExperimentConfig().key)
    sensor = BenignSensor.from_name(circuit)
    generator = PhysicalTraceGenerator(cipher)
    plaintexts = random_plaintexts(
        gen_traces, seed=derive_seed(seed, "bench-e2e-pt")
    )

    # Stage 1: AES datapath activity -----------------------------------
    def aes_reference():
        return np.array(
            [
                encryption_cycle_hd(cipher, bytes(pt))
                for pt in plaintexts
            ],
            dtype=np.int64,
        )

    def aes_fast():
        return encryption_cycle_hd_batch(cipher, plaintexts)

    if not np.array_equal(aes_reference(), aes_fast()):
        raise AssertionError("batched AES activity diverges from loop")
    aes_stage = _stage_record(
        _best_of(repeats, aes_reference),
        _best_of(repeats, aes_fast),
        gen_traces,
    )

    # Stage 2: PDN integration -----------------------------------------
    from repro.aes.batch import cycle_activity_from_states, BatchedAES128
    from repro.pdn.aggressors import aes_current_waveform_batch

    currents = aes_current_waveform_batch(
        cycle_activity_from_states(
            BatchedAES128.from_cipher(cipher).round_states(plaintexts)
        ),
        generator.num_samples,
        generator.start_sample,
        generator.samples_per_cycle,
    )

    def pdn_reference():
        return np.array(
            [generator.pdn._integrate_reference(row) for row in currents]
        )

    def pdn_fast():
        return generator.pdn.integrate_batch(currents)

    if not np.array_equal(pdn_reference(), pdn_fast()):
        raise AssertionError("IIR PDN integration diverges from loop")
    pdn_stage = _stage_record(
        _best_of(repeats, pdn_reference),
        _best_of(repeats, pdn_fast),
        gen_traces,
    )

    # Stage 3: combined physical trace generation ----------------------
    noise_seed = derive_seed(seed, "bench-e2e-noise")
    fast_data = generator.generate(plaintexts, seed=noise_seed)
    reference_data = generator.generate_reference(
        plaintexts, seed=noise_seed
    )
    if not (
        np.array_equal(
            fast_data["ciphertexts"], reference_data["ciphertexts"]
        )
        and np.array_equal(
            fast_data["voltages"], reference_data["voltages"]
        )
    ):
        raise AssertionError("fast trace generation diverges")
    aligned = fast_data["voltages"][
        :, generator.last_round_sample_indices()[0]
    ]
    jitter_seed = derive_seed(seed, "bench-e2e-jitter")
    if not np.array_equal(
        sensor.sample_bits(aligned, seed=jitter_seed),
        sensor.sample_bits(aligned, seed=jitter_seed, reference=True),
    ):
        raise AssertionError("sensor bank path diverges from reference")
    gen_stage = _stage_record(
        _best_of(
            repeats,
            lambda: generator.generate_reference(
                plaintexts, seed=noise_seed
            ),
        ),
        _best_of(
            repeats, lambda: generator.generate(plaintexts, seed=noise_seed)
        ),
        gen_traces,
    )

    # Stage 4: physical CPA campaign -----------------------------------
    workers = max_workers if max_workers is not None else default_workers()
    exceed = _workers_exceed_cpus(workers)
    # Chunk sized to the generation pipeline's working-set footprint
    # (cache-resident chunks), not to the campaign's trace count.
    chunk = plan_chunk_size(
        campaign_traces, generator.working_set_bytes_per_trace(), workers
    )

    def campaign_reference():
        return sharded_physical_attack(
            generator,
            sensor,
            campaign_traces,
            max_workers=1,
            chunk_size=chunk,
            seed=seed,
            reference=True,
        )

    def campaign_fast():
        return sharded_physical_attack(
            generator,
            sensor,
            campaign_traces,
            max_workers=workers,
            chunk_size=chunk,
            seed=seed,
        )

    def campaign_fast_serial():
        return sharded_physical_attack(
            generator,
            sensor,
            campaign_traces,
            max_workers=1,
            chunk_size=chunk,
            seed=seed,
        )

    reference_result = campaign_reference()
    fast_result = campaign_fast()
    fast_serial_result = campaign_fast_serial()
    if not np.array_equal(
        reference_result.correlations, fast_result.correlations
    ):
        raise AssertionError("fast campaign correlations diverge")
    if not np.array_equal(
        fast_serial_result.correlations, fast_result.correlations
    ):
        raise AssertionError(
            "parallel campaign correlations diverge from fast-serial"
        )
    reference_s = _best_of(repeats, campaign_reference)
    fast_s = _best_of(repeats, campaign_fast)
    fast_serial_s = _best_of(repeats, campaign_fast_serial)

    return {
        "circuit": circuit,
        "seed": seed,
        "repeats": repeats,
        "cpu_count": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": host_metadata(),
        "trace_generation": {
            "num_traces": gen_traces,
            "num_samples": generator.num_samples,
            "aes_activity": aes_stage,
            "pdn_integration": pdn_stage,
            "end_to_end": gen_stage,
        },
        "campaign": {
            "num_traces": campaign_traces,
            "workers": workers,
            "workers_exceed_cpus": exceed,
            "executor": EXECUTOR_THREAD,
            "chunk_size": chunk,
            "reference_serial_s": reference_s,
            "fast_s": fast_s,
            "fast_serial_s": fast_serial_s,
            "reference_traces_per_s": campaign_traces / reference_s,
            "fast_traces_per_s": campaign_traces / fast_s,
            "speedup_vs_reference": reference_s / fast_s,
            # Honest scaling note: kernels identical, workers varied;
            # advisory-only when the host can't host the worker count.
            **_parallel_speedup_fields(fast_serial_s / fast_s, exceed),
            "identical_correlations": True,
        },
    }


def write_e2e_benchmark(
    path: str = "BENCH_e2e.json", **kwargs
) -> Dict[str, object]:
    """Run the e2e benchmark and write its record to ``path``."""
    record = run_e2e_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def _codec_frame_sizes(result) -> Dict[str, object]:
    """Binary-frame vs base64-JSON size of one campaign result.

    The fleet wire moved array payloads off base64-in-JSON onto
    length-prefixed binary frames; this records what that actually
    buys on a real merged attack result (the dominant message class).
    """
    from repro.service.codec import encode, pack_message

    arrays = {
        "checkpoints": result.checkpoints,
        "correlations": result.correlations,
    }
    binary = len(pack_message(arrays))
    binary_raw = len(pack_message(arrays, compress=False))
    base64_json = len(
        json.dumps(encode(arrays), sort_keys=True).encode("utf-8")
    )
    return {
        "base64_json_bytes": base64_json,
        "binary_frame_bytes": binary_raw,
        "binary_frame_zlib_bytes": binary,
        "binary_vs_base64": binary_raw / base64_json,
        "binary_zlib_vs_base64": binary / base64_json,
    }


def run_fleet_benchmark(
    traces: int = 120_000,
    worker_counts=(1, 2),
    repeats: int = 2,
    seed: int = 1,
) -> Dict[str, object]:
    """Benchmark distributed campaign dispatch over loopback workers.

    Starts an in-process campaign service, spawns ``repro worker``
    subprocesses against it over loopback TCP, and times one CPA
    attack job per fleet size.  Before anything is timed, the merged
    fleet result is asserted bit-identical to a direct single-host
    :func:`~repro.service.runners.run_attack` — a recorded speedup can
    never come from merging something different.  Timed repeats clear
    the scheduler's memory cache between submissions so every repeat
    recomputes; worker-side rebuilt-input caches stay warm, which is
    exactly the steady state cache-aware placement targets.

    ``fleet_speedup_2_workers`` (1-worker wall clock over 2-worker
    wall clock) is the figure the CI gate reads; on a host with fewer
    usable CPUs than workers it is ``None`` and the measured ratio is
    recorded as advisory instead (see :func:`_parallel_speedup_fields`
    — time-slicing one core is not a scaling result).
    """
    import asyncio
    import signal
    import subprocess

    import repro
    from repro.service.codec import from_payload
    from repro.service.jobs import JobSpec
    from repro.service.runners import run_attack
    from repro.service.scheduler import CampaignScheduler, SchedulerConfig
    from repro.service.server import CampaignServer

    warm_kernels()
    worker_counts = tuple(sorted(set(int(n) for n in worker_counts)))
    if not worker_counts or worker_counts[0] < 1:
        raise ValueError("worker_counts must be positive integers")
    spec = JobSpec.create(
        "attack", {"traces": int(traces), "seed": int(seed), "fleet": True}
    )
    local_params = dict(spec.params, fleet=False)
    baseline = run_attack(local_params)
    baseline_s = _best_of(repeats, lambda: run_attack(local_params))

    usable = usable_cpu_count()
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)

    async def measure(num_workers: int) -> Dict[str, object]:
        scheduler = CampaignScheduler(SchedulerConfig(max_concurrency=1))
        server = CampaignServer(scheduler, "127.0.0.1", 0)
        host, port = await server.start()
        # Split the usable cores across the fleet so N workers model N
        # hosts sharing nothing, not N pools oversubscribing one host.
        local = max(1, usable // num_workers)
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "%s:%d" % (host, port),
                    "--name",
                    "bench-w%d" % index,
                    "--workers",
                    str(local),
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
                        "only %d/%d bench workers registered"
                        % (scheduler.fleet.num_workers, num_workers)
                    )
                await asyncio.sleep(0.1)

            async def one_run():
                state = scheduler.submit(spec)
                async for _event in state.stream():
                    pass
                if state.status != "done":
                    raise RuntimeError(
                        "fleet bench job failed: %s" % state.error
                    )
                return state

            # Identity gate first — untimed, and it doubles as the
            # warm-up that pays worker-side input rebuilding.
            state = await one_run()
            result = from_payload(state.result)
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
            return {
                "workers": num_workers,
                "local_workers_each": local,
                "seconds": best,
                "traces_per_s": traces / best,
                "identical_correlations": True,
                "placement": {
                    "warm": scheduler.metrics.counter(
                        "fleet_placement_warm"
                    ).value,
                    "cold": scheduler.metrics.counter(
                        "fleet_placement_cold"
                    ).value,
                },
            }
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

    fleet: Dict[str, object] = {}
    for count in worker_counts:
        fleet[str(count)] = asyncio.run(measure(count))

    record: Dict[str, object] = {
        "suite": "fleet",
        "seed": seed,
        "traces": traces,
        "repeats": repeats,
        "host": host_metadata(),
        "codec": _codec_frame_sizes(baseline),
        "single_host_s": baseline_s,
        "single_host_traces_per_s": traces / baseline_s,
        "fleet": fleet,
    }
    if 1 in worker_counts and 2 in worker_counts:
        one_s = fleet["1"]["seconds"]
        two_s = fleet["2"]["seconds"]
        exceed = _workers_exceed_cpus(2)
        record["workers_exceed_cpus"] = exceed
        record.update(
            _parallel_speedup_fields(
                one_s / two_s, exceed, prefix="fleet_speedup_2_workers"
            )
        )
        # Flat alias for the CI gate (None on oversubscribed hosts).
        record["fleet_speedup_2_workers"] = record[
            "fleet_speedup_2_workers_same_kernels"
        ]
    return record


def write_fleet_benchmark(
    path: str = "BENCH_fleet.json", **kwargs
) -> Dict[str, object]:
    """Run the fleet benchmark and write its record to ``path``."""
    record = run_fleet_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record


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
    import subprocess

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
            raise RuntimeError("chaos bench server failed to start")


def _journal_has(journal_dir: str, kind: str) -> bool:
    """Has the journal recorded a ``kind`` lifecycle event yet?

    The chaos harness polls this as its barrier detector: the journal
    is fsync'd before the scheduler acts on a record, so observing
    ``lease_granted`` here means the shard lease genuinely left for a
    worker — killing the server now is maximally inconvenient.
    """
    log = Path(journal_dir) / "journal.jsonl"
    if not log.exists():
        return False
    for raw in log.read_bytes().splitlines():
        try:
            if json.loads(raw).get("record") == kind:
                return True
        except ValueError:
            continue
    return False


def run_chaos_benchmark(
    traces: int = 60_000,
    seed: int = 1,
    plan=None,
) -> Dict[str, object]:
    """The durability drill: SIGKILL the journaled server mid-campaign.

    Starts a real ``repro serve`` subprocess with a write-ahead journal
    plus two ``repro worker --reconnect`` subprocesses, submits two
    jobs (one fleet CPA attack leased to the remote workers, one local
    attack), and — when the journal records the first ``lease_granted``
    barrier — delivers the :class:`~repro.util.faults.FaultPlan`'s
    ``server_kill`` (SIGKILL, no drain).  A fresh server on the same
    port replays the journal, re-admits both jobs, the workers redial
    with seeded backoff (``worker_kill`` at the ``recovered`` barrier
    additionally takes one of them out), and the drill re-attaches to
    both job ids.  Both recovered results are asserted byte-identical
    to undisturbed single-host runs computed before any fault —
    ``identity_diffs`` must be 0 — and the record carries the recovery
    latency and the journal counters.
    """
    import signal
    import subprocess
    import tempfile

    import repro
    from repro.service.client import attach_job, fetch_jobs_overview
    from repro.service.codec import from_payload
    from repro.service.runners import run_attack
    from repro.util.faults import (
        FAULT_SERVER_KILL,
        FAULT_WORKER_KILL,
        FaultPlan,
        FaultSpec,
    )

    if plan is None:
        plan = FaultPlan(
            [
                FaultSpec(FAULT_SERVER_KILL, site="barrier:lease_granted"),
                FaultSpec(FAULT_WORKER_KILL, site="barrier:recovered"),
            ],
            seed=seed,
        )
    warm_kernels()
    from repro.service.jobs import JobSpec

    jobs = {
        name: JobSpec.create("attack", params).params
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
    baselines = {
        name: run_attack(dict(params, fleet=False))
        for name, params in jobs.items()
    }

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)

    root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    journal_dir = str(root / "journal")
    spool_dir = str(root / "spool")
    cache_dir = str(root / "cache")
    workers = []
    server = None
    try:
        server, port = _spawn_server(
            env, 0, journal_dir, spool_dir, cache_dir
        )
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    "127.0.0.1:%d" % port,
                    "--name",
                    "chaos-w%d" % index,
                    "--reconnect",
                    "--max-reconnects",
                    "60",
                    "--quiet",
                ],
                env=env,
            )
            for index in range(2)
        ]
        import asyncio

        from repro.service.client import ServiceClient

        async def _submit_all():
            ids = {}
            async with ServiceClient("127.0.0.1", port) as client:
                deadline = time.monotonic() + 60.0
                while True:
                    snapshot = await client.jobs_overview()
                    fleet = snapshot.get("fleet") or {}
                    if len(fleet.get("workers") or ()) >= len(workers):
                        break
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            "chaos bench workers never registered"
                        )
                    await asyncio.sleep(0.1)
                for name, params in jobs.items():
                    ids[name] = await client.submit_nowait(
                        "attack", params
                    )
            return ids

        job_ids = asyncio.run(_submit_all())

        # Barrier: the journal shows a shard lease in a worker's hands.
        deadline = time.monotonic() + 120.0
        while not _journal_has(journal_dir, "lease_granted"):
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "no lease_granted record before the kill deadline"
                )
            if server.poll() is not None:
                raise RuntimeError("chaos bench server died early")
            time.sleep(0.05)

        killed = plan.wants(FAULT_SERVER_KILL, "barrier:lease_granted")
        if killed:
            server.send_signal(signal.SIGKILL)
            server.wait()

        recovery_start = time.perf_counter()
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
        "suite": "chaos",
        "seed": seed,
        "traces": traces,
        "host": host_metadata(),
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
        "server_killed_at": "barrier:lease_granted",
        "recovery_s": recovery_s,
        "identity_diffs": identity_diffs,
        "identical_results": identity_diffs == 0,
        "journal": counters,
        "lock_released_after_drain": lock_released,
    }


def write_chaos_benchmark(
    path: str = "BENCH_chaos.json", **kwargs
) -> Dict[str, object]:
    """Run the chaos drill and write its record to ``path``."""
    record = run_chaos_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def _backend_case(
    backend: str,
    fn: Callable[[], object],
    reference,
    repeats: int,
    n: int,
) -> Dict[str, object]:
    """Warm + assert-bit-identical + time one kernel on one backend."""
    with kernels.use(backend):
        warm = fn()  # warm-up: JIT/compile cost lands here, untimed
        outputs = warm if isinstance(warm, tuple) else (warm,)
        expected = (
            reference if isinstance(reference, tuple) else (reference,)
        )
        for got, want in zip(outputs, expected):
            if not np.array_equal(got, want):
                raise AssertionError(
                    "backend %r output diverges from the numpy "
                    "reference" % backend
                )
        seconds = _best_of(repeats, fn)
    return {
        "seconds": seconds,
        "traces_per_s": n / seconds,
        "identical_to_numpy": True,
    }


def run_kernels_benchmark(
    aes_traces: int = 20_000,
    pdn_traces: int = 2_000,
    pdn_samples: int = 1_024,
    cpa_traces: int = 50_000,
    resample_traces: int = 4_000,
    resample_samples: int = 256,
    sensor_cycles: int = 50_000,
    repeats: int = 3,
    seed: int = 1,
) -> Dict[str, object]:
    """Per-backend comparison of the registered hot kernels.

    For each kernel (``aes``: fused activity+ciphertexts, ``pdn``:
    batched IIR droop integration, ``cpa``: streaming accumulate over
    256 candidates, ``resample``: polyphase upfirdn over a trace
    batch, ``sensor``: the ALU sensor's jittered Hamming weight over
    its census mask at campaign voltages), every backend available on
    this host is warmed, asserted
    bit-identical to the numpy reference, and timed best-of
    ``repeats``.  ``speedup_vs_numpy`` on the resolved backend is the
    number the acceptance gate reads.
    """
    from repro.aes.batch import BatchedAES128, cycle_activity_and_ciphertexts
    from repro.attacks.cpa import StreamingCPA
    from repro.pdn.model import PDNModel

    warm_kernels()
    rng = make_rng(derive_seed(seed, "bench-kernels"))
    record: Dict[str, object] = {
        "seed": seed,
        "repeats": repeats,
        "host": host_metadata(),
        "kernels": {},
    }

    def sweep(kernel: str, fn: Callable[[], object], n: int) -> None:
        with kernels.use("numpy"):
            reference = fn()
        backends: Dict[str, object] = {}
        for backend in kernels.available_backends(kernel):
            backends[backend] = _backend_case(
                backend, fn, reference, repeats, n
            )
        numpy_s = backends["numpy"]["seconds"]
        for case in backends.values():
            case["speedup_vs_numpy"] = numpy_s / case["seconds"]
        record["kernels"][kernel] = {
            "num_traces": n,
            "resolved_backend": kernels.active_backends()[kernel],
            "backends": backends,
        }

    batched = BatchedAES128(bytes(range(16)))
    aes_pt = rng.integers(0, 256, size=(aes_traces, 16), dtype=np.uint8)
    sweep(
        "aes",
        lambda: cycle_activity_and_ciphertexts(batched, aes_pt),
        aes_traces,
    )

    pdn = PDNModel()
    currents = rng.normal(0.02, 0.005, size=(pdn_traces, pdn_samples))
    sweep("pdn", lambda: pdn.integrate_batch(currents), pdn_traces)

    leakage = rng.integers(0, 33, size=cpa_traces).astype(np.float64)
    hypotheses = rng.integers(
        0, 2, size=(cpa_traces, 256)
    ).astype(np.int8)

    def cpa_fn():
        engine = StreamingCPA()
        engine.update(leakage, hypotheses)
        return (
            np.float64(engine._sum_x),
            np.float64(engine._sum_xx),
            engine._sum_h,
            engine._sum_hh,
            engine._sum_xh,
        )

    sweep("cpa", cpa_fn, cpa_traces)

    from repro.preprocess.resample import polyphase_resample

    resample_batch = rng.normal(
        size=(resample_traces, resample_samples)
    )
    sweep(
        "resample",
        lambda: polyphase_resample(resample_batch, 3, 2),
        resample_traces,
    )

    campaign = AttackCampaign(
        BenignSensor.from_name("alu"), AES128(ExperimentConfig().key),
        seed=seed,
    )
    census = campaign.characterization.census.ro_sensitive
    _, sensor_voltages = campaign.campaign_inputs(sensor_cycles)
    sensor_seed = derive_seed(seed, "bench-kernels-sensor")
    sweep(
        "sensor",
        lambda: campaign.sensor.sample_weight(
            sensor_voltages, seed=sensor_seed, mask=census
        ),
        sensor_cycles,
    )
    record["kernels"]["sensor"]["mask_bits"] = int(census.sum())
    return record


def write_kernels_benchmark(
    path: str = "BENCH_kernels.json", **kwargs
) -> Dict[str, object]:
    """Run the kernels benchmark and write its record to ``path``."""
    record = run_kernels_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record


def run_preprocess_benchmark(
    traces: int = 40_000,
    align_traces: int = 4096,
    severities=(0, 1, 2, 3),
    repeats: int = 3,
    max_workers: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Acquisition-realism benchmark: alignment cost and what it buys.

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
    from repro.core.endpoint_sensor import BenignSensor
    from repro.core.tracegen import (
        PhysicalTraceGenerator,
        random_plaintexts,
    )
    from repro.experiments.parallel import sharded_physical_attack
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
        "host": host_metadata(),
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

    align_s = _best_of(repeats, align_once)
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


def write_preprocess_benchmark(
    path: str = "BENCH_preprocess.json", **kwargs
) -> Dict[str, object]:
    """Run the preprocess benchmark and write its record to ``path``."""
    record = run_preprocess_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record
