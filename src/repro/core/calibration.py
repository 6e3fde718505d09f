"""Endpoint calibration: from gate-level waveforms to a fast sensor model.

The gate-level timed simulator is exact but costs ~0.1 s per sampled
cycle on the C6288; CPA campaigns need 10^5–10^6 cycles.  Calibration
bridges the gap with a property of the delay model: **all gate delays
share one multiplicative voltage factor**, so the response of the whole
circuit to the reset→measure stimulus at supply ``v`` is the nominal
response with the time axis stretched by ``delay_factor(v)``.

Calibration therefore runs the event-driven simulator **once** at the
nominal voltage, records every endpoint's full transition history, and
afterwards evaluates, entirely in numpy::

    bit_i(trace t) = W_i( T / f(v_t) + jitter_{t,i} )

where ``W_i`` is endpoint i's recorded waveform, ``T`` the overclocked
sampling period, ``f`` the delay factor, and the jitter term models
capture-register sampling noise (clock jitter, local supply gradients,
metastability) that is *not* shared between endpoints.

The equivalence between this fast path and the gate-level simulator
(at zero jitter) is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.waveform_bank import WaveformBank, masked_weight_numpy
from repro.timing.delay_model import DelayAnnotation, DelayModel
from repro.timing.event_sim import TimedSimulator, endpoint_waveforms
from repro.util import kernels
from repro.util.errors import ReproError
from repro.util.rng import make_rng


class NonFiniteSensorInputError(ReproError):
    """A NaN/Inf supply voltage or shared-jitter value reached a sensor.

    A non-finite query time has no latch interval: the sampling paths
    would disagree on it (the padded kernel latches the initial value,
    :meth:`EndpointWaveform.value_at` the settled one), so sampling
    rejects it and names the first offending cycle.
    """


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NonFiniteSensorInputError(
            "non-finite %s at cycle %d (value %r; %d such cycle(s))"
            % (what, bad[0], float(values.flat[bad[0]]), bad.size)
        )


@dataclass
class EndpointWaveform:
    """Recorded nominal-voltage waveform of one endpoint.

    Attributes:
        net: endpoint net name.
        edge_times_ps: ascending transition times; the first entry is
            ``-inf`` carrying the initial (reset-settled) value.
        values_after_edge: endpoint value from each edge onwards.
    """

    net: str
    edge_times_ps: np.ndarray
    values_after_edge: np.ndarray

    def __post_init__(self) -> None:
        if self.edge_times_ps.shape != self.values_after_edge.shape:
            raise ValueError("edge arrays must have equal length")
        if np.any(np.diff(self.edge_times_ps) < 0):
            raise ValueError("edge times must be ascending")

    @property
    def initial_value(self) -> int:
        return int(self.values_after_edge[0])

    @property
    def settled_value(self) -> int:
        return int(self.values_after_edge[-1])

    @property
    def settle_time_ps(self) -> float:
        """Time of the last transition (0 when the endpoint is static)."""
        if self.edge_times_ps.shape[0] < 2:
            return 0.0
        return float(self.edge_times_ps[-1])

    @property
    def num_transitions(self) -> int:
        return int(self.edge_times_ps.shape[0] - 1)

    def value_at(self, times_ps: np.ndarray) -> np.ndarray:
        """Waveform value at each (nominal-scale) query time."""
        t = np.asarray(times_ps, dtype=float)
        index = np.searchsorted(self.edge_times_ps, t, side="right") - 1
        return self.values_after_edge[np.clip(index, 0, None)]

    def edges_in_window(self, lo_ps: float, hi_ps: float) -> int:
        """Number of transitions with time in ``[lo_ps, hi_ps]``."""
        times = self.edge_times_ps[1:]
        return int(np.sum((times >= lo_ps) & (times <= hi_ps)))


@dataclass
class SensorCalibration:
    """Calibrated waveform bank for one placed benign circuit.

    Attributes:
        waveforms: one :class:`EndpointWaveform` per observed endpoint,
            in sensor-bit order.
        sample_period_ps: real-time sampling period T (the overclocked
            measure-cycle length; 3333 ps at 300 MHz).
        delay_model: converts supply voltage to the time-stretch factor.
    """

    waveforms: List[EndpointWaveform]
    sample_period_ps: float
    delay_model: DelayModel
    _bank: Optional[WaveformBank] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_bits(self) -> int:
        return len(self.waveforms)

    @property
    def bank(self) -> WaveformBank:
        """Flattened vectorized sampling kernel (built lazily once)."""
        if self._bank is None:
            self._bank = WaveformBank(self.waveforms)
        return self._bank

    @property
    def endpoint_nets(self) -> List[str]:
        return [w.net for w in self.waveforms]

    def nominal_times(self, voltages: np.ndarray) -> np.ndarray:
        """Map supply voltages to nominal-scale sampling times T/f(v)."""
        factor = np.asarray(
            self.delay_model.delay_factor(np.asarray(voltages, dtype=float))
        )
        return self.sample_period_ps / factor

    def _query_times(
        self,
        voltages: np.ndarray,
        shared_jitter_ps: Optional[np.ndarray],
    ) -> np.ndarray:
        """Per-cycle query times with shared jitter folded in.

        Raises:
            NonFiniteSensorInputError: a voltage or shared-jitter value
                is NaN or infinite (the first bad cycle is named).
        """
        v = np.asarray(voltages, dtype=float)
        _require_finite(v, "supply voltage")
        tau = self.nominal_times(v)
        if shared_jitter_ps is not None:
            shared = np.asarray(shared_jitter_ps, dtype=float)
            if shared.shape != tau.shape:
                raise ValueError(
                    "shared jitter shape %r does not match voltages %r"
                    % (shared.shape, tau.shape)
                )
            _require_finite(shared, "shared jitter")
            tau = tau + shared
        return tau

    def sample_bits(
        self,
        voltages: np.ndarray,
        jitter_ps: float = 0.0,
        seed: int = 0,
        shared_jitter_ps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Latched endpoint values for a vector of per-cycle voltages.

        Sampling runs through the vectorized :class:`WaveformBank`
        kernel; :meth:`sample_bits_reference` keeps the original
        per-endpoint loop, and the test suite asserts both paths are
        bit-identical (the jitter draw consumes the same generator
        stream in both).

        Args:
            voltages: (N,) supply voltage during each measure cycle.
            jitter_ps: sigma of per-(cycle, endpoint) Gaussian sampling
                jitter, in nominal-scale picoseconds.  Models noise
                local to each capture register.
            seed: jitter seed.
            shared_jitter_ps: optional (N,) per-cycle time offset added
                to every endpoint equally — capture-clock jitter, which
                is common-mode across the register bank and therefore
                does not average out over bits.  Must match the shape
                of ``voltages``.

        Returns:
            uint8 array (N, num_bits).
        """
        tau = self._query_times(voltages, shared_jitter_ps)
        return self.bank.sample(tau, jitter_ps=jitter_ps, seed=seed)

    def sample_weight(
        self,
        voltages: np.ndarray,
        mask: np.ndarray,
        jitter_ps: float = 0.0,
        seed: int = 0,
        shared_jitter_ps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Masked Hamming weight of :meth:`sample_bits` per cycle.

        Equal, for every input, to ``sample_bits(...)[:, mask].sum(axis=1)``
        as int64, through the dispatched ``sensor`` kernel.

        Args:
            mask: (num_bits,) bool selection of the summed endpoints.
            voltages / jitter_ps / seed / shared_jitter_ps: as for
                :meth:`sample_bits`.
        """
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (self.num_bits,):
            raise ValueError(
                "mask must have one entry per bit, got %r" % (keep.shape,)
            )
        tau = self._query_times(voltages, shared_jitter_ps)
        op = (
            kernels.native_op("sensor", "masked_weight")
            or masked_weight_numpy
        )
        return op(self.bank, tau, jitter_ps, seed, keep)

    def sample_bits_reference(
        self,
        voltages: np.ndarray,
        jitter_ps: float = 0.0,
        seed: int = 0,
        shared_jitter_ps: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Legacy per-endpoint sampling loop (reference implementation).

        Kept as the ground truth the bank kernel is validated against;
        see :meth:`sample_bits` for the argument contract.
        """
        tau = self._query_times(voltages, shared_jitter_ps)
        n = tau.shape[0]
        bits = np.empty((n, self.num_bits), dtype=np.uint8)
        rng = make_rng(seed, "endpoint-jitter") if jitter_ps > 0 else None
        for i, waveform in enumerate(self.waveforms):
            if rng is not None:
                query = tau + rng.normal(0.0, jitter_ps, size=n)
            else:
                query = tau
            bits[:, i] = waveform.value_at(query)
        return bits

    def voltage_window(
        self, v_low: float, v_high: float
    ) -> Tuple[float, float]:
        """Nominal-time window swept by voltages in ``[v_low, v_high]``."""
        if v_low > v_high:
            raise ValueError("v_low must not exceed v_high")
        lo = self.sample_period_ps / self.delay_model.delay_factor(v_low)
        hi = self.sample_period_ps / self.delay_model.delay_factor(v_high)
        return float(lo), float(hi)

    def potentially_sensitive(
        self, v_low: float, v_high: float, margin_ps: float = 0.0
    ) -> np.ndarray:
        """Mask of endpoints with an edge inside the voltage window.

        A fast analytical predictor of which bits *can* toggle when the
        supply sweeps ``[v_low, v_high]`` (jitter widens the window by
        ``margin_ps`` on both sides); the empirical census in
        :mod:`repro.core.postprocess` measures which ones actually do.
        """
        lo, hi = self.voltage_window(v_low, v_high)
        return np.array(
            [
                w.edges_in_window(lo - margin_ps, hi + margin_ps) > 0
                for w in self.waveforms
            ],
            dtype=bool,
        )


def calibrate_endpoints(
    annotation: DelayAnnotation,
    reset_inputs: Mapping[str, int],
    measure_inputs: Mapping[str, int],
    endpoint_nets: Sequence[str],
    sample_period_ps: float,
) -> SensorCalibration:
    """Run the gate-level simulator once and build the fast model.

    Args:
        annotation: placed-and-annotated netlist.
        reset_inputs / measure_inputs: the alternating stimulus pair.
        endpoint_nets: observed endpoints, in sensor-bit order.
        sample_period_ps: overclocked measure-cycle length.
    """
    if sample_period_ps <= 0:
        raise ValueError("sample period must be positive")
    simulator = TimedSimulator(annotation)
    history = endpoint_waveforms(
        simulator, reset_inputs, measure_inputs, endpoint_nets, voltage=1.0
    )
    waveforms: List[EndpointWaveform] = []
    for net in endpoint_nets:
        events = history[net]
        times = np.array([t for t, _ in events], dtype=float)
        values = np.array([v for _, v in events], dtype=np.uint8)
        waveforms.append(EndpointWaveform(net, times, values))
    return SensorCalibration(
        waveforms=waveforms,
        sample_period_ps=sample_period_ps,
        delay_model=annotation.model,
    )
