"""Multi-tenant FPGA fabric substrate.

Models the device the experiments run on: the XC7Z020-like site grid
and tenant regions (:mod:`device`), gate placement (:mod:`placement`),
floorplan rendering for Figs. 3/4 (:mod:`floorplan`), and MMCM clocking
(:mod:`clocking`).  The BRAM/UART capture path and host script of the
paper's Fig. 2 are not modeled: campaigns hand sensor words to the
attack directly.
"""

from repro.fabric.clocking import (
    NUM_MMCMS,
    REFERENCE_CLOCK_MHZ,
    ClockTree,
    MMCMConfig,
    paper_clock_tree,
    synthesize_clock,
)
from repro.fabric.device import (
    FpgaDevice,
    Region,
    default_multi_tenant_device,
)
from repro.fabric.floorplan import (
    DEFAULT_GLYPHS,
    EMPTY_GLYPH,
    SENSITIVE_GLYPH,
    Floorplan,
)
from repro.fabric.placement import Placement, place_netlist

__all__ = [
    "ClockTree",
    "DEFAULT_GLYPHS",
    "EMPTY_GLYPH",
    "Floorplan",
    "FpgaDevice",
    "MMCMConfig",
    "NUM_MMCMS",
    "Placement",
    "REFERENCE_CLOCK_MHZ",
    "Region",
    "SENSITIVE_GLYPH",
    "default_multi_tenant_device",
    "paper_clock_tree",
    "place_netlist",
    "synthesize_clock",
]
