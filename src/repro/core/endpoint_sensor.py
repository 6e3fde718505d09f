"""The benign-logic voltage sensor (the paper's core contribution).

:class:`BenignSensor` turns an ordinary circuit — the registry's ALU or
C6288 multiplier, or any user-provided netlist with a reset/measure
stimulus pair — into a voltage sensor:

1. the circuit is "implemented" (placed and delay-annotated) for its
   legitimate 50 MHz clock;
2. the attacker clocks it at ``overclock_mhz`` (300 MHz) and alternates
   the *reset* and *measure* stimuli on consecutive cycles, so every
   second cycle latches partially-propagated endpoint values — an
   effective sampling rate of half the overclock (150 MHz);
3. the latched endpoint word, post-processed by
   :mod:`repro.core.postprocess`, tracks supply-voltage fluctuations.

The sensor is *stealthy*: its netlist is exactly the benign circuit's
(see the defense benches), and its stimuli are ordinary data inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.circuits.library import CircuitSpec, get_circuit_spec
from repro.core.calibration import SensorCalibration
from repro.core.calibration_cache import cached_calibrate_endpoints
from repro.sensors.base import VoltageSensor
from repro.timing.delay_model import DelayAnnotation
from repro.timing.event_sim import TimedSimulator
from repro.timing.sta import analyze_timing
from repro.timing.techmap import FpgaImplementation, fpga_annotate
from repro.util.rng import derive_seed, make_rng

#: The paper's overclock: benign circuits driven at 300 MHz.
DEFAULT_OVERCLOCK_MHZ = 300.0
#: Default per-register (local) sampling jitter (nominal-scale ps).
DEFAULT_JITTER_PS = 45.0
#: Default common-mode capture-clock jitter shared by all registers.
#: Because it is identical for every endpoint in a cycle, it is not
#: reduced by combining bits — the reason the paper's Hamming-weight
#: attack (150k traces) is only modestly better than its single-bit
#: attack (200k traces).
DEFAULT_SHARED_JITTER_PS = 85.0


@dataclass
class BenignSensorInstance:
    """One placed copy of the benign circuit.

    The C6288 experiment deploys two instances; each gets its own
    placement (seed) and therefore its own waveform bank.
    """

    annotation: DelayAnnotation
    calibration: SensorCalibration
    reset_inputs: Mapping[str, int]
    measure_inputs: Mapping[str, int]

    @property
    def num_bits(self) -> int:
        return self.calibration.num_bits


class BenignSensor(VoltageSensor):
    """Voltage sensor improvised from benign logic.

    Build via :meth:`from_spec` (registry circuits) or by passing
    pre-calibrated instances.

    Example:
        >>> sensor = BenignSensor.from_spec(get_circuit_spec("alu"))
        >>> sensor.num_bits
        192
    """

    def __init__(
        self,
        instances: Sequence[BenignSensorInstance],
        jitter_ps: float = DEFAULT_JITTER_PS,
        shared_jitter_ps: float = DEFAULT_SHARED_JITTER_PS,
        name: str = "benign-sensor",
    ):
        if not instances:
            raise ValueError("need at least one circuit instance")
        self._instances = list(instances)
        self.jitter_ps = float(jitter_ps)
        self.shared_jitter_ps = float(shared_jitter_ps)
        self.name = name

    @classmethod
    def from_spec(
        cls,
        spec: CircuitSpec,
        implementation_seed: int = 0,
        overclock_mhz: float = DEFAULT_OVERCLOCK_MHZ,
        jitter_ps: float = DEFAULT_JITTER_PS,
        shared_jitter_ps: float = DEFAULT_SHARED_JITTER_PS,
        implementation: Optional[FpgaImplementation] = None,
    ) -> "BenignSensor":
        """Implement, calibrate and wrap a registry circuit.

        Each of ``spec.instances`` copies receives a distinct placement
        derived from ``implementation_seed``.
        """
        if overclock_mhz <= 0:
            raise ValueError("overclock must be positive")
        sample_period_ps = 1e6 / overclock_mhz
        instances: List[BenignSensorInstance] = []
        for copy in range(spec.instances):
            seed = derive_seed(implementation_seed, spec.name, copy)
            if implementation is None:
                impl = FpgaImplementation(seed=seed)
            else:
                impl = dataclasses.replace(implementation, seed=seed)
            netlist = spec.build()
            annotation = fpga_annotate(netlist, impl)
            calibration = cached_calibrate_endpoints(
                annotation,
                spec.reset_inputs,
                spec.measure_inputs,
                spec.endpoint_nets,
                sample_period_ps,
                context=(spec.name, seed),
            )
            instances.append(
                BenignSensorInstance(
                    annotation=annotation,
                    calibration=calibration,
                    reset_inputs=spec.reset_inputs,
                    measure_inputs=spec.measure_inputs,
                )
            )
        return cls(
            instances,
            jitter_ps=jitter_ps,
            shared_jitter_ps=shared_jitter_ps,
            name=spec.name,
        )

    @classmethod
    def from_name(cls, circuit_name: str, **kwargs) -> "BenignSensor":
        """Shorthand: build from a circuit registry name."""
        return cls.from_spec(get_circuit_spec(circuit_name), **kwargs)

    # ------------------------------------------------------------------
    # VoltageSensor interface (fast calibrated path)
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Total endpoint bits across all instances."""
        return sum(inst.num_bits for inst in self._instances)

    @property
    def instances(self) -> List[BenignSensorInstance]:
        return list(self._instances)

    @property
    def sample_period_ps(self) -> float:
        return self._instances[0].calibration.sample_period_ps

    def sample_bits(
        self,
        voltages: np.ndarray,
        seed: int = 0,
        reference: bool = False,
    ) -> np.ndarray:
        """Latched endpoint bits per measure cycle (N, num_bits).

        Instance outputs are concatenated in instance order, matching
        the paper's "32-bit outputs of the multipliers are concatenated
        into a 64-bit number".  All instances share the same capture
        clock, so the common-mode jitter draw is shared across them.

        Args:
            voltages: (N,) supply voltage during each measure cycle.
            seed: jitter seed.
            reference: route sampling through the legacy per-endpoint
                loop (:meth:`SensorCalibration.sample_bits_reference`)
                instead of the vectorized waveform bank.  Both paths
                consume the same jitter stream and are bit-identical;
                the reference path exists for validation and as the
                baseline of the e2e performance suite.
        """
        v = np.asarray(voltages, dtype=float)
        shared = self._shared_jitter(v, seed)
        blocks = [
            (
                inst.calibration.sample_bits_reference
                if reference
                else inst.calibration.sample_bits
            )(
                v,
                jitter_ps=self.jitter_ps,
                seed=derive_seed(seed, self.name, "jitter", index),
                shared_jitter_ps=shared,
            )
            for index, inst in enumerate(self._instances)
        ]
        return np.concatenate(blocks, axis=1)

    def sample_weight(
        self,
        voltages: np.ndarray,
        seed: int = 0,
        mask: Optional[np.ndarray] = None,
        reference: bool = False,
    ) -> np.ndarray:
        """Masked Hamming weight of :meth:`sample_bits` per cycle (int64).

        Equal to ``hamming_weight_series(sample_bits(voltages, seed,
        reference), mask)`` for every input — same shared-jitter draw,
        same per-instance jitter seeds — but each instance's share of
        the mask is read through the fused ``sensor`` kernel, which
        never materialises the ``(N, num_bits)`` word.

        Args:
            voltages: (N,) supply voltage during each measure cycle.
            seed: jitter seed.
            mask: (num_bits,) bool selection of the summed bits across
                all instances; None sums every bit.
            reference: read through the legacy per-endpoint loop.
        """
        v = np.asarray(voltages, dtype=float)
        if mask is None:
            keep = np.ones(self.num_bits, dtype=bool)
        else:
            keep = np.asarray(mask, dtype=bool)
            if keep.shape != (self.num_bits,):
                raise ValueError(
                    "mask must have one entry per bit, got %r"
                    % (keep.shape,)
                )
        shared = self._shared_jitter(v, seed)
        weight = np.zeros(v.shape[0], dtype=np.int64)
        offset = 0
        for index, inst in enumerate(self._instances):
            part = keep[offset:offset + inst.num_bits]
            offset += inst.num_bits
            jitter_seed = derive_seed(seed, self.name, "jitter", index)
            if reference:
                bits = inst.calibration.sample_bits_reference(
                    v,
                    jitter_ps=self.jitter_ps,
                    seed=jitter_seed,
                    shared_jitter_ps=shared,
                )
                weight += bits[:, part].sum(axis=1, dtype=np.int64)
            else:
                weight += inst.calibration.sample_weight(
                    v,
                    part,
                    jitter_ps=self.jitter_ps,
                    seed=jitter_seed,
                    shared_jitter_ps=shared,
                )
        return weight

    def _shared_jitter(
        self, voltages: np.ndarray, seed: int
    ) -> Optional[np.ndarray]:
        """The common-mode capture-clock jitter draw (None when off)."""
        if self.shared_jitter_ps <= 0:
            return None
        rng = make_rng(derive_seed(seed, self.name, "shared-jitter"))
        return rng.normal(0.0, self.shared_jitter_ps, size=voltages.shape[0])

    # ------------------------------------------------------------------
    # Ground-truth path (gate-level, slow; used for validation)
    # ------------------------------------------------------------------
    def sample_bits_gate_level(self, voltages: np.ndarray) -> np.ndarray:
        """Jitter-free gate-level re-simulation of :meth:`sample_bits`.

        Runs the event-driven simulator per cycle — exact but ~10^4x
        slower; the test suite uses it to validate the calibrated path.
        """
        v = np.asarray(voltages, dtype=float)
        columns: List[np.ndarray] = []
        for inst in self._instances:
            simulator = TimedSimulator(inst.annotation)
            nets = inst.calibration.endpoint_nets
            rows = np.empty((v.shape[0], len(nets)), dtype=np.uint8)
            for t, voltage in enumerate(v):
                snapshot = simulator.run_transition(
                    inst.reset_inputs,
                    inst.measure_inputs,
                    sample_time_ps=inst.calibration.sample_period_ps,
                    voltage=float(voltage),
                )
                rows[t] = snapshot.outputs(nets)
            columns.append(rows)
        return np.concatenate(columns, axis=1)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def legitimate_fmax_mhz(self) -> float:
        """Max clock the circuit legitimately meets (min over instances)."""
        return min(
            analyze_timing(inst.annotation).max_frequency_mhz
            for inst in self._instances
        )

    def overclock_factor(self) -> float:
        """Ratio of the attack clock to the legitimate fmax."""
        return (1e6 / self.sample_period_ps) / self.legitimate_fmax_mhz()

    def endpoint_settle_times_ps(self) -> np.ndarray:
        """Nominal settle time of every sensor bit (across instances)."""
        times: List[float] = []
        for inst in self._instances:
            times.extend(
                w.settle_time_ps for w in inst.calibration.waveforms
            )
        return np.array(times)
