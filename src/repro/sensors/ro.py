"""Ring oscillators: the RO netlist and the RO-counter sensor.

Ring oscillators serve two roles in the paper:

* **Aggressor** (Sec. IV): an array of 8000 ROs is switched on and off
  to generate strong, controlled voltage fluctuations — the stimulus
  for the sensitivity censuses of Figs. 5–8 and 14–16.  Its current
  schedule is :class:`repro.pdn.ROAggressorSchedule`; one RO instance
  (:func:`build_ro_netlist`) is what a bitstream checker scans.
* **Sensor** (related work, Fig. 1 left): counting RO oscillations in a
  fixed window estimates supply voltage, since oscillation frequency is
  inversely proportional to loop delay.  Included as the slow baseline
  sensor; bitstream checkers flag its combinational loop immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sensors.base import VoltageSensor
from repro.timing.delay_model import DelayModel
from repro.util.rng import make_rng


def build_ro_netlist(
    num_inverters: int = 3, name: str = "ro", with_enable: bool = True
) -> Netlist:
    """Structural netlist of one ring oscillator.

    An odd chain of inverters closed into a combinational loop, with an
    optional enable NAND breaking into the loop.  The netlist is frozen
    with ``allow_cycles=True`` — it cannot be functionally evaluated,
    but the defense scanner inspects it structurally.
    """
    if num_inverters < 1 or num_inverters % 2 == 0:
        raise ValueError("inverter count must be odd and >= 1")
    # Built on Netlist directly (not NetlistBuilder): the loop closure
    # needs a forward reference to the last inverter's output.
    netlist = Netlist(name)
    loop_back = "inv%d" % (num_inverters - 1)
    if with_enable:
        netlist.add_input("enable")
        netlist.add_gate("loop_in", "NAND", ["enable", loop_back])
        previous = "loop_in"
    else:
        previous = loop_back
    for i in range(num_inverters):
        netlist.add_gate("inv%d" % i, "NOT", [previous])
        previous = "inv%d" % i
    netlist.add_output(loop_back)
    return netlist.freeze(allow_cycles=True)


@dataclass
class ROSensor(VoltageSensor):
    """Counter-based RO voltage sensor (asynchronous, low bandwidth).

    Oscillation frequency scales as ``f_nominal / delay_factor(v)``;
    the sensor counts rising edges in a measurement window.  Counting
    quantization makes this sensor far slower than a TDC for power
    analysis (Zhao & Suh, S&P 2018), which is why the paper uses the
    TDC as its measurement baseline.

    Attributes:
        nominal_freq_hz: oscillation frequency at nominal voltage.
        window_s: counting window duration.
        delay_model: supply-voltage delay scaling.
        jitter_counts: sigma of count jitter.
    """

    nominal_freq_hz: float = 400e6
    window_s: float = 1e-6
    delay_model: DelayModel = None  # type: ignore[assignment]
    jitter_counts: float = 0.5

    def __post_init__(self) -> None:
        if self.delay_model is None:
            self.delay_model = DelayModel()
        if self.nominal_freq_hz <= 0 or self.window_s <= 0:
            raise ValueError("frequency and window must be positive")

    @property
    def num_bits(self) -> int:
        """Width of the count register."""
        max_count = self.nominal_freq_hz * self.window_s * 2
        return max(1, int(np.ceil(np.log2(max_count + 1))))

    def sample_scalar(self, voltages: np.ndarray, seed: int = 0) -> np.ndarray:
        """Oscillation count per measurement window.

        Each entry of ``voltages`` is treated as the average supply
        during one counting window.
        """
        v = np.asarray(voltages, dtype=float)
        factor = np.asarray(self.delay_model.delay_factor(v), dtype=float)
        counts = self.nominal_freq_hz * self.window_s / factor
        if self.jitter_counts > 0:
            rng = make_rng(seed, "ro-jitter")
            counts = counts + rng.normal(0.0, self.jitter_counts, v.shape)
        return np.maximum(np.round(counts), 0).astype(np.int64)

    def sample_bits(self, voltages: np.ndarray, seed: int = 0) -> np.ndarray:
        """Binary count-register contents per window."""
        counts = self.sample_scalar(voltages, seed=seed)
        bits = np.zeros((counts.shape[0], self.num_bits), dtype=np.uint8)
        for i in range(self.num_bits):
            bits[:, i] = (counts >> i) & 1
        return bits
