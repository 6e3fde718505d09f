"""End-to-end physical trace generation: plaintext to supply voltage.

The CPA campaigns in :mod:`repro.core.attack` use the *analytical*
single-sample leakage model (:class:`repro.aes.leakage.LeakageModel`):
the supply voltage at the aligned sensor sample is written directly as
``v_idle - droop_per_bit * activity + noise``.  This module provides
the *physical* alternative: every trace is simulated through the full
chain the paper describes —

1. encrypt the plaintext through the 32-bit datapath model and record
   the per-cycle state-register Hamming distance;
2. convert the activity into a current waveform at the PDN sample rate
   (:func:`repro.pdn.aggressors.aes_current_waveform_batch`);
3. integrate the shared RLC droop response
   (:meth:`repro.pdn.model.PDNModel.integrate_batch`) and add the
   *local* IR drop of the victim region, which tracks the per-cycle
   current directly (the package RLC is far too slow to resolve
   individual 10 ns cycles — the cycle-resolution component of the
   supply seen by a neighbouring sensor is resistive);
4. add ambient supply noise;
5. optionally distort the sample axis the way a real acquisition
   would (:class:`repro.preprocess.spec.MisalignmentSpec`): per-trace
   trigger misalignment, per-trace clock drift, and dropped/duplicated
   sample glitches.  The distortion draws from its own seeded RNG
   streams (``"tracegen-misalign-*"``), strictly separate from the
   ambient-noise stream, so every configuration without a misalignment
   spec remains bit-identical to pre-existing outputs.

Every stage has a vectorized fast path and a per-trace pure-Python
reference (:meth:`PhysicalTraceGenerator.generate_reference` runs the
reference cipher, the scalar waveform builder, and the recurrence
loop).  Both draw the identical noise block, so the fast path is
asserted bit-identical in the test suite and in the e2e benchmark
before any throughput number is recorded.

With the default electrical constants the cycle-resolution leakage is
``local_resistance_ohm * current_per_bit_a = 5e-4`` V per switching
bit — the same scale as ``LeakageModel.droop_per_bit_v`` — so sensors
calibrated against the analytical model behave identically on
physically generated traces.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.aes.aes128 import AES128
from repro.aes.batch import (
    BatchedAES128,
    as_state_array,
    cycle_activity_and_ciphertexts,
)
from repro.aes.datapath import DatapathSchedule, column_hd
from repro.util.bits import hamming_weight
from repro.pdn.aggressors import (
    aes_current_waveform,
    aes_current_waveform_batch,
)
from repro.pdn.model import PDNModel
from repro.preprocess.spec import MisalignmentSpec
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "PhysicalTraceGenerator",
    "campaign_plaintexts",
    "random_plaintexts",
]


def random_plaintexts(num_traces: int, seed: int = 0) -> np.ndarray:
    """Uniformly random plaintext blocks ``(N, 16)`` uint8."""
    rng = make_rng(seed, "plaintexts")
    return rng.integers(0, 256, size=(num_traces, 16), dtype=np.uint8)


def campaign_plaintexts(num_traces: int, seed: int) -> np.ndarray:
    """The plaintexts of a physical campaign with seed ``seed``."""
    return random_plaintexts(num_traces, seed=derive_seed(seed, "e2e-pt"))


class PhysicalTraceGenerator:
    """Simulates the supply-voltage waveform of whole encryptions.

    Args:
        cipher: victim cipher (ground truth for the batched datapath).
        pdn: shared PDN; its sample rate fixes the samples-per-cycle
            ratio (150 MHz sampling of a 100 MHz AES = 1.5).  Ambient
            noise is drawn here (seeded per call), not by the PDN.
        schedule: datapath timing (cycles per round, AES clock).
        start_sample: sample at which the encryption starts.
        num_samples: waveform length; must cover the whole encryption
            so the last-round cycles are observable.
        current_per_bit_a / static_current_a: AES current model (as in
            :func:`repro.pdn.aggressors.aes_current_waveform`).
        local_resistance_ohm: resistive path converting the victim's
            instantaneous current into local supply droop — the
            cycle-resolution leakage component.
        noise_sigma_v: ambient per-sample supply noise.
        value_weight / transition_weight: weights of the combinational
            (Hamming-weight) and register-overwrite (Hamming-distance)
            components of each cycle's switching activity; the defaults
            match :class:`repro.aes.leakage.LeakageModel`.
        misalignment: optional acquisition-time distortion of the
            sample axis (trigger jitter, clock drift, sampling
            glitches).  None (the default) leaves every output exactly
            as before.
    """

    def __init__(
        self,
        cipher: AES128,
        pdn: Optional[PDNModel] = None,
        schedule: DatapathSchedule = DatapathSchedule(),
        start_sample: int = 4,
        num_samples: int = 72,
        current_per_bit_a: float = 6.25e-3,
        static_current_a: float = 0.02,
        local_resistance_ohm: float = 0.08,
        noise_sigma_v: float = 8.0e-4,
        value_weight: float = 1.0,
        transition_weight: float = 0.5,
        misalignment: Optional[MisalignmentSpec] = None,
    ):
        if misalignment is not None and not isinstance(
            misalignment, MisalignmentSpec
        ):
            raise TypeError(
                "misalignment must be a MisalignmentSpec, got %r"
                % (misalignment,)
            )
        self.misalignment = misalignment
        self.cipher = cipher
        self.pdn = pdn or PDNModel()
        self.schedule = schedule
        self.start_sample = int(start_sample)
        self.num_samples = int(num_samples)
        self.current_per_bit_a = float(current_per_bit_a)
        self.static_current_a = float(static_current_a)
        self.local_resistance_ohm = float(local_resistance_ohm)
        self.noise_sigma_v = float(noise_sigma_v)
        self.value_weight = float(value_weight)
        self.transition_weight = float(transition_weight)
        if self.start_sample < 0:
            raise ValueError("start_sample must be non-negative")
        end = int(round(
            self.start_sample
            + self.schedule.total_cycles * self.samples_per_cycle
        ))
        if end > self.num_samples:
            raise ValueError(
                "num_samples=%d cannot hold a whole encryption "
                "(needs %d samples from start_sample=%d)"
                % (self.num_samples, end, self.start_sample)
            )

    @property
    def samples_per_cycle(self) -> float:
        """PDN samples per AES clock cycle."""
        return self.pdn.sample_rate_hz / self.schedule.clock_hz

    def _batched_cipher(self) -> BatchedAES128:
        """Per-instance :class:`BatchedAES128`, built once.

        The expansion is cheap but sits on the per-chunk hot path of
        sharded campaigns; caching it makes worker-side chunk loops
        re-derive nothing per chunk.  Lazy so unpickled generators
        rebuild it on first use.
        """
        cached = self.__dict__.get("_batched_aes")
        if cached is None:
            cached = BatchedAES128.from_cipher(self.cipher)
            self.__dict__["_batched_aes"] = cached
        return cached

    def last_round_sample_indices(self) -> np.ndarray:
        """Waveform sample aligned with each of the 4 last-round cycles.

        Index ``c`` is the first sample of last-round cycle ``c`` — the
        instant the sensor's measure cycle latches while column ``c``
        of the state register is being overwritten.
        """
        return np.array(
            [
                int(round(self.start_sample + cycle * self.samples_per_cycle))
                for cycle in self.schedule.last_round_cycles()
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Fast batched path
    # ------------------------------------------------------------------
    def generate(
        self, plaintexts: np.ndarray, seed: int = 0
    ) -> Dict[str, np.ndarray]:
        """Simulate a batch of encryptions end to end (vectorized).

        Args:
            plaintexts: ``(N, 16)`` uint8 blocks.
            seed: ambient-noise seed for this batch.

        Returns:
            dict with ``"ciphertexts"`` (N, 16) uint8 and
            ``"voltages"`` (N, num_samples) float.
        """
        data = self.generate_deterministic(plaintexts)
        data["voltages"] = self._acquire(data["voltages"], seed)
        return data

    def generate_deterministic(
        self, plaintexts: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """The noise-free part of :meth:`generate`.

        Every stage here (batched AES, waveform building, PDN
        integration) is elementwise or per-row, so row ``i`` of the
        output depends only on ``plaintexts[i]``: concatenating the
        plaintexts of several requests, running one deterministic pass,
        and slicing the rows back out is bit-identical to running each
        request separately.  The service batching window
        (:mod:`repro.service.scheduler`) relies on exactly this
        property to coalesce compatible trace-generation jobs into a
        single batched-AES call.
        """
        blocks = as_state_array(plaintexts)
        # Fused kernel op: per-cycle activity and ciphertexts in one
        # pass (the native backend never materializes the (N, 12, 16)
        # round-state tensor this loop used to allocate per chunk).
        activity, ciphertexts = cycle_activity_and_ciphertexts(
            self._batched_cipher(),
            blocks,
            self.schedule,
            value_weight=self.value_weight,
            transition_weight=self.transition_weight,
        )
        currents = aes_current_waveform_batch(
            activity,
            self.num_samples,
            self.start_sample,
            self.samples_per_cycle,
            current_per_bit_a=self.current_per_bit_a,
            static_current_a=self.static_current_a,
        )
        droop = self.pdn.integrate_batch(currents)
        return {
            "ciphertexts": ciphertexts,
            "voltages": (
                self.pdn.params.nominal_voltage
                - droop
                - self.local_resistance_ohm * currents
            ),
        }

    def add_ambient_noise(
        self, voltages: np.ndarray, seed: int
    ) -> np.ndarray:
        """Add the seeded ambient supply noise block to clean voltages.

        The noise block's shape and generator stream depend only on
        ``seed`` and ``voltages.shape``, so applying it to a slice of a
        larger deterministic batch equals applying it to the same
        traces generated alone.
        """
        if self.noise_sigma_v <= 0:
            return voltages
        rng = make_rng(seed, "tracegen-noise")
        return voltages + rng.normal(
            0.0, self.noise_sigma_v, size=voltages.shape
        )

    def _acquire(self, voltages: np.ndarray, seed: int) -> np.ndarray:
        """Shared acquisition tail: ambient noise, then misalignment.

        Both the fast batched path and the per-trace reference path end
        here, so fast==reference bit-identity holds with or without a
        misalignment spec.
        """
        return self.apply_misalignment(
            self.add_ambient_noise(voltages, seed), seed
        )

    def apply_misalignment(
        self,
        voltages: np.ndarray,
        seed: int,
        spec: Optional[MisalignmentSpec] = None,
    ) -> np.ndarray:
        """Distort the sample axis per the (or a given) misalignment spec.

        Each trace is re-read at warped sample positions built from
        three independent seeded streams —
        ``"tracegen-misalign-shift"`` (per-trace trigger offset),
        ``"tracegen-misalign-drift"`` (per-trace clock-rate factor) and
        ``"tracegen-misalign-glitch"`` (per-sample drop/duplicate
        events) — via edge-clamped linear interpolation.  Like the
        ambient-noise block, the draws depend only on ``(seed, shape)``,
        so block-aligned sharding reproduces the identical distortion;
        integer uniform shifts gather samples bitwise, which is what
        lets correlation alignment undo them exactly.

        Returns ``voltages`` unchanged (same object) when no spec is
        active — the pre-existing pipeline is untouched.
        """
        spec = self.misalignment if spec is None else spec
        if spec is None or not spec.enabled:
            return voltages
        num_traces, num_samples = voltages.shape
        positions = np.broadcast_to(
            np.arange(num_samples, dtype=np.float64),
            (num_traces, num_samples),
        )
        fractional = False
        if spec.glitch_rate > 0:
            rng = make_rng(seed, "tracegen-misalign-glitch")
            draw = rng.random(size=(num_traces, num_samples))
            # A dropped sample advances the source by 2, a duplicated
            # one re-reads it; the first output sample stays anchored.
            step = np.ones((num_traces, num_samples))
            step[draw < spec.glitch_rate / 2] = 2.0
            step[draw >= 1.0 - spec.glitch_rate / 2] = 0.0
            positions = np.cumsum(step, axis=1) - step[:, :1]
        if spec.drift > 0:
            rng = make_rng(seed, "tracegen-misalign-drift")
            factors = rng.uniform(
                1.0 - spec.drift, 1.0 + spec.drift, size=num_traces
            )
            positions = positions * factors[:, None]
            fractional = True
        if spec.shift_mode == "uniform":
            rng = make_rng(seed, "tracegen-misalign-shift")
            half = int(round(spec.shift_samples))
            shifts = rng.integers(
                -half, half + 1, size=num_traces
            ).astype(np.float64)
            positions = positions + shifts[:, None]
        elif spec.shift_mode == "gaussian":
            rng = make_rng(seed, "tracegen-misalign-shift")
            shifts = rng.normal(0.0, spec.shift_samples, size=num_traces)
            positions = positions + shifts[:, None]
            fractional = True
        if not fractional:
            # Integer warps are pure gathers: clamp and take, so the
            # surviving samples keep their exact bit patterns.
            indices = np.clip(
                positions.astype(np.int64), 0, num_samples - 1
            )
            return np.take_along_axis(voltages, indices, axis=1)
        lower = np.floor(positions)
        frac = positions - lower
        low = np.clip(lower.astype(np.int64), 0, num_samples - 1)
        high = np.clip(lower.astype(np.int64) + 1, 0, num_samples - 1)
        return (
            np.take_along_axis(voltages, low, axis=1) * (1.0 - frac)
            + np.take_along_axis(voltages, high, axis=1) * frac
        )

    # ------------------------------------------------------------------
    # Per-trace reference path
    # ------------------------------------------------------------------
    def generate_reference(
        self, plaintexts: np.ndarray, seed: int = 0
    ) -> Dict[str, np.ndarray]:
        """Per-trace pure-Python counterpart of :meth:`generate`.

        Runs the reference cipher, the scalar waveform builder, and the
        recurrence-loop integrator for every trace, drawing the same
        noise block — bit-identical to the batched path, ~100x slower.
        """
        blocks = as_state_array(plaintexts)
        num_traces = blocks.shape[0]
        ciphertexts = np.empty((num_traces, 16), dtype=np.uint8)
        currents = np.empty((num_traces, self.num_samples))
        droop = np.empty((num_traces, self.num_samples))
        for t in range(num_traces):
            states = self.cipher.round_states(bytes(blocks[t]))
            ciphertexts[t] = states[11]
            activity = []
            for cycle in range(self.schedule.total_cycles):
                round_index = cycle // self.schedule.cycles_per_round
                column = (cycle % self.schedule.cycles_per_round) % 4
                value = sum(
                    hamming_weight(states[round_index][4 * column + row])
                    for row in range(4)
                )
                transition = column_hd(
                    states[round_index], states[round_index + 1], column
                )
                activity.append(
                    self.value_weight * value
                    + self.transition_weight * transition
                )
            currents[t] = aes_current_waveform(
                activity,
                self.num_samples,
                self.start_sample,
                self.samples_per_cycle,
                current_per_bit_a=self.current_per_bit_a,
                static_current_a=self.static_current_a,
            )
            droop[t] = self.pdn._integrate_reference(currents[t])
        return {
            "ciphertexts": ciphertexts,
            "voltages": self._finish(num_traces, currents, droop, seed),
        }

    def _finish(
        self,
        num_traces: int,
        currents: np.ndarray,
        droop: np.ndarray,
        seed: int,
    ) -> np.ndarray:
        """Shared tail: nominal minus droops, then the acquisition stage
        (seeded noise block, then any configured misalignment)."""
        voltages = (
            self.pdn.params.nominal_voltage
            - droop
            - self.local_resistance_ohm * currents
        )
        return self._acquire(voltages, seed)
