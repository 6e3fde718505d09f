"""The kernels micro-benchmark: every backend of every dispatched kernel.

:func:`run_kernels_benchmark` sweeps the five dispatched kernels over
every backend available on this host, asserts each backend
bit-identical to the numpy reference before timing it, and records the
best-of-``repeats`` throughput and the speedup over numpy;
:func:`write_kernels_benchmark` persists the record (``repro bench``
writes ``BENCH_kernels.json``, the tracked snapshot).  CI reads its
identity and speedup rows.  End-to-end campaign and service speed is
measured by ``bench/run.py``, not here; the correctness drills that
used to live beside this benchmark are in
:mod:`repro.experiments.drills`.

Methodology:

* :func:`warm_kernels` runs every kernel once untimed, so the native
  library build and its load-time self-checks land outside the timed
  repeats;
* each measurement is the best of ``repeats`` runs (minimum wall
  clock), the standard way to suppress scheduler noise;
* every backend is asserted bit-identical to numpy before it is timed,
  so a speedup can never come from computing something different.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.core.attack import AttackCampaign
from repro.core.endpoint_sensor import BenignSensor
from repro.experiments.config import ExperimentConfig
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
    and align kernels their load-time self-checks) on first call;
    running each op here keeps that cost out of every timed repeat.
    The warm-up outputs of all five kernels are asserted equal to the
    numpy reference — the same assert-before-timing contract the
    kernel sweeps enforce, just extended to the warm-up itself.
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
    from repro.preprocess.align import estimate_shifts

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
        shifts = estimate_shifts(samples, samples[0], 4)
        weight = sensor.sample_weight(voltages, seed=7)
        engine = StreamingCPA()
        engine.update(leakage, hypotheses)
        arrays = (states, activity, ciphertexts, hyp, droop, shifts, weight)
        return arrays + tuple(engine.state_arrays().values())

    with kernels.use("numpy"):
        reference = run_all()
    warmed = run_all()
    if not all(np.array_equal(a, b) for a, b in zip(reference, warmed)):
        raise AssertionError(
            "kernel warm-up output diverges from the numpy reference "
            "(active backends: %r)" % (kernels.active_backends(),)
        )


def best_of(repeats: int, fn: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
        seconds = best_of(repeats, fn)
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
    sensor_cycles: int = 50_000,
    align_traces: int = 20_000,
    repeats: int = 3,
    seed: int = 1,
) -> Dict[str, object]:
    """Per-backend comparison of the dispatched hot kernels.

    For each kernel (``aes``: fused activity+ciphertexts, ``pdn``:
    batched IIR droop integration, ``cpa``: streaming accumulate over
    256 candidates, ``sensor``: the ALU sensor's jittered Hamming weight over
    its census mask at campaign voltages, ``align``: correlation shift
    search over +-4 samples of jittered 72-sample traces, shifts and
    scores), every backend available on this host is warmed, asserted
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

    align_reference = np.sin(np.arange(72) / 3.0)
    align_shifts = rng.integers(-4, 5, size=(align_traces, 1))
    align_batch = align_reference[
        (np.arange(72) - align_shifts) % 72
    ] + rng.normal(scale=0.2, size=(align_traces, 72))
    from repro.preprocess.align import _estimate_numpy

    sweep(
        "align",
        lambda: (kernels.native_op("align", "estimate") or _estimate_numpy)(
            align_batch, align_reference, 4, "correlation"
        ),
        align_traces,
    )
    return record


def write_kernels_benchmark(
    path: str = "BENCH_kernels.json", **kwargs
) -> Dict[str, object]:
    """Run the kernels benchmark and write its record to ``path``."""
    record = run_kernels_benchmark(**kwargs)
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    return record
