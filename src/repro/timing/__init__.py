"""Timing substrate: delay models, STA, event-driven timed simulation.

The chain used throughout the library:

1. :func:`annotate_delays` assigns voltage-scalable nominal delays to a
   netlist (gate intrinsic + deterministic routing scatter);
2. :func:`analyze_timing` performs static timing analysis for max-clock
   reporting and the strict timing-check defense;
3. :class:`TimedSimulator` plays reset→measure transitions at a given
   supply voltage and reports what overclocked capture registers latch.
   One event loop records each net's edge history; snapshots
   (:meth:`TimedSimulator.run_transition`), waveforms
   (:func:`endpoint_waveforms`) and settle times
   (:func:`endpoint_settle_times`) are read off it.
"""

from repro.timing.delay_model import (
    ALPHA,
    NOMINAL_VOLTAGE,
    THRESHOLD_VOLTAGE,
    DelayAnnotation,
    DelayModel,
    annotate_delays,
)
from repro.timing.event_sim import (
    TimedSimulator,
    TimedSnapshot,
    endpoint_settle_times,
    endpoint_waveforms,
)
from repro.timing.techmap import (
    DEFAULT_CELL_DELAYS_PS,
    FpgaImplementation,
    fpga_annotate,
)
from repro.timing.sta import (
    TimingPath,
    TimingReport,
    analyze_timing,
)

__all__ = [
    "ALPHA",
    "DEFAULT_CELL_DELAYS_PS",
    "FpgaImplementation",
    "fpga_annotate",
    "DelayAnnotation",
    "DelayModel",
    "NOMINAL_VOLTAGE",
    "THRESHOLD_VOLTAGE",
    "TimedSimulator",
    "TimedSnapshot",
    "TimingPath",
    "TimingReport",
    "analyze_timing",
    "annotate_delays",
    "endpoint_settle_times",
    "endpoint_waveforms",
]
