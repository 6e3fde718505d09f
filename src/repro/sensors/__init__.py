"""Reference sensors.

The established attack circuits the paper compares against (and that
bitstream checkers detect): the TDC delay-line sensor, the RO-counter
sensor, and the RO netlist that the 8000-RO aggressor array
(:class:`repro.pdn.ROAggressorSchedule`) is built from.
"""

from repro.sensors.base import VoltageSensor
from repro.sensors.ro import (
    ROSensor,
    build_ro_netlist,
)
from repro.sensors.tdc import TDCSensor, build_tdc_netlist

__all__ = [
    "ROSensor",
    "TDCSensor",
    "VoltageSensor",
    "build_ro_netlist",
    "build_tdc_netlist",
]
