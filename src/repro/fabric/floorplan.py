"""Floorplan rendering (text form of the paper's Figs. 3 and 4).

The paper's floorplan figures show the device view with each block
color-coded (ALU/C6288 yellow, TDC green, AES lilac, ROs light blue)
and the sensitive path endpoints marked red.  The terminal equivalent
renders the site grid with one character per (downsampled) site:

* block glyphs: ``A`` AES, ``B`` benign circuit, ``T`` TDC, ``R`` ROs;
* ``#`` marks a site hosting at least one *sensitive endpoint*
  register (red in the paper);
* ``.`` is unused fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.fabric.device import FpgaDevice
from repro.fabric.placement import Placement

#: Default glyphs for the paper's blocks.
DEFAULT_GLYPHS = {
    "victim_aes": "A",
    "attacker_benign": "B",
    "attacker_tdc": "T",
    "ro_array": "R",
}

SENSITIVE_GLYPH = "#"
EMPTY_GLYPH = "."


@dataclass
class Floorplan:
    """A renderable device floorplan.

    Attributes:
        device: the device whose regions are drawn.
        placements: placements drawn inside their regions.
        sensitive_nets: per placement-index, the endpoint nets to mark.
        glyphs: region name -> block glyph.
    """

    device: FpgaDevice
    placements: List[Placement]
    sensitive_nets: Dict[int, List[str]]
    glyphs: Mapping[str, str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.glyphs is None:
            self.glyphs = dict(DEFAULT_GLYPHS)

    def _glyph_for_region(self, name: str) -> str:
        glyph = self.glyphs.get(name, name[:1].upper() or "?")
        return glyph[0]

    def render(
        self, max_width: int = 100, max_height: int = 40
    ) -> str:
        """Render the floorplan as ASCII art.

        The site grid is downsampled to at most ``max_width`` x
        ``max_height`` characters; a cell shows the sensitive marker if
        any covered site hosts a sensitive endpoint, else the block
        glyph of any covered placement/region, else empty fabric.
        """
        if max_width < 4 or max_height < 4:
            raise ValueError("render area too small")
        sx = max(1, -(-self.device.columns // max_width))   # ceil div
        sy = max(1, -(-self.device.rows // max_height))
        width = -(-self.device.columns // sx)
        height = -(-self.device.rows // sy)

        grid = [[EMPTY_GLYPH] * width for _ in range(height)]

        def plot(x: int, y: int, glyph: str, force: bool = False) -> None:
            cx, cy = x // sx, y // sy
            row = height - 1 - cy  # y grows upward, rows print downward
            if force or grid[row][cx] == EMPTY_GLYPH:
                grid[row][cx] = glyph

        # Region outlines / fills.
        for name, region in self.device.regions.items():
            glyph = self._glyph_for_region(name).lower()
            for x, y in region.sites():
                plot(x, y, glyph)

        # Placed gates (upper-case) and sensitive endpoints (marker).
        for index, placement in enumerate(self.placements):
            glyph = self._glyph_for_region(placement.region.name)
            for site in placement.site_of.values():
                plot(site[0], site[1], glyph, force=True)
            for net in self.sensitive_nets.get(index, []):
                if net in placement.site_of:
                    x, y = placement.site_of[net]
                    plot(x, y, SENSITIVE_GLYPH, force=True)

        header = "%s floorplan (%dx%d sites, 1 char ~ %dx%d)" % (
            self.device.name,
            self.device.columns,
            self.device.rows,
            sx,
            sy,
        )
        legend_parts = [
            "%s=%s" % (self._glyph_for_region(name), name)
            for name in sorted(self.device.regions)
        ]
        legend = "legend: %s, %s=sensitive endpoint, lower-case=region" % (
            ", ".join(legend_parts),
            SENSITIVE_GLYPH,
        )
        body = "\n".join("".join(row) for row in grid)
        return "%s\n%s\n%s" % (header, legend, body)

    def sensitive_site_count(self) -> int:
        """Number of distinct sites hosting sensitive endpoints."""
        sites = set()
        for index, placement in enumerate(self.placements):
            for net in self.sensitive_nets.get(index, []):
                if net in placement.site_of:
                    sites.add(placement.site_of[net])
        return len(sites)
