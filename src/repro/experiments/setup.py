"""Assembly of the paper's experimental system (Fig. 2).

:class:`ExperimentSetup` builds and caches the heavyweight pieces —
placed/calibrated benign sensors, attack campaigns, the device
floorplan — so the per-figure drivers stay declarative.  One setup
object corresponds to one implementation run of the paper's design on
one board.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aes.aes128 import AES128
from repro.circuits.library import get_circuit_spec
from repro.core.attack import AttackCampaign, CharacterizationResult
from repro.core.endpoint_sensor import BenignSensor
from repro.experiments.config import ExperimentConfig
from repro.fabric.clocking import ClockTree, paper_clock_tree
from repro.fabric.device import FpgaDevice, default_multi_tenant_device
from repro.fabric.floorplan import Floorplan
from repro.fabric.placement import Placement, place_netlist
from repro.sensors.tdc import TDCSensor
from repro.util.rng import derive_seed


class ExperimentSetup:
    """Caches sensors, campaigns and the floorplan for one config."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config or ExperimentConfig()
        self.cipher = AES128(self.config.key)
        self.tdc = TDCSensor()
        self.clock_tree: ClockTree = paper_clock_tree()
        self._sensors: Dict[str, BenignSensor] = {}
        self._campaigns: Dict[str, AttackCampaign] = {}
        self._characterizations: Dict[str, CharacterizationResult] = {}
        self._bit_rankings: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Cached builders
    # ------------------------------------------------------------------
    def sensor(self, circuit: str) -> BenignSensor:
        """The calibrated benign sensor for a registry circuit."""
        if circuit not in self._sensors:
            self._sensors[circuit] = BenignSensor.from_name(
                circuit,
                implementation_seed=self.config.seed,
                overclock_mhz=self.config.overclock_mhz,
            )
        return self._sensors[circuit]

    def campaign(self, circuit: str) -> AttackCampaign:
        """The attack campaign wired to a circuit's sensor."""
        if circuit not in self._campaigns:
            self._campaigns[circuit] = AttackCampaign(
                self.sensor(circuit),
                self.cipher,
                seed=derive_seed(self.config.seed, "campaign", circuit),
            )
        return self._campaigns[circuit]

    def characterization(self, circuit: str) -> CharacterizationResult:
        """The RO/AES characterization for a circuit (cached)."""
        if circuit not in self._characterizations:
            self._characterizations[circuit] = self.campaign(
                circuit
            ).characterize(
                num_samples=self.config.characterization_samples
            )
        return self._characterizations[circuit]

    def single_bit_ranking(self, circuit: str) -> List[int]:
        """Trial-CPA ranking of single-bit sensor endpoints (cached).

        The paper picks its single-bit endpoints (ALU bits 21/6, C6288
        bit 28) by offline analysis of the collected traces; this is
        the equivalent selection for this implementation run.
        """
        if circuit not in self._bit_rankings:
            self.characterization(circuit)
            trial = min(100_000, self.config.num_traces)
            self._bit_rankings[circuit] = self.campaign(
                circuit
            ).select_single_bit(
                trial_traces=trial,
                target_byte=self.config.target_byte,
                target_bit=self.config.target_bit,
            )
        return self._bit_rankings[circuit]

    # ------------------------------------------------------------------
    # Floorplans (Figs. 3 / 4)
    # ------------------------------------------------------------------
    def floorplan(self, circuit: str) -> Tuple[FpgaDevice, Floorplan]:
        """Place the circuit and mark its sensitive endpoints.

        Returns the populated device and a renderable floorplan where
        the benign circuit's sensitive endpoints (from the RO census)
        carry the marker glyph — the red sites of Figs. 3/4.
        """
        device = default_multi_tenant_device()
        spec = get_circuit_spec(circuit)
        characterization = self.characterization(circuit)
        sensitive = characterization.census.ro_sensitive

        placements: List[Placement] = []
        sensitive_nets: Dict[int, List[str]] = {}
        region = device.region("attacker_benign")
        bits_per_instance = len(spec.endpoint_nets)
        for index in range(spec.instances):
            netlist = spec.build()
            placement = place_netlist(
                netlist,
                region,
                seed=derive_seed(self.config.seed, "place", circuit, index),
            )
            offset = index * bits_per_instance
            nets = [
                net
                for bit, net in enumerate(spec.endpoint_nets)
                if sensitive[offset + bit]
            ]
            sensitive_nets[len(placements)] = nets
            placements.append(placement)
        floorplan = Floorplan(device, placements, sensitive_nets)
        return device, floorplan
