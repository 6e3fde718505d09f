"""Static timing analysis over annotated netlists.

STA computes worst-case arrival times assuming every path can be
simultaneously active.  The library uses it in three roles:

* reporting the legitimate maximum clock rate of a benign circuit (the
  paper synthesizes the ALU/C6288 for 50 MHz and then overclocks them
  to 300 MHz);
* ranking endpoints by nominal path delay (the raw material for the
  calibration layer); and
* the *strict timing check* defense of Sec. VI, which compares a
  tenant's requested clock against the analyzed critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.timing.delay_model import DelayAnnotation


@dataclass(frozen=True)
class TimingPath:
    """One register-to-register (here: input-to-endpoint) path.

    Attributes:
        endpoint: the primary-output net the path terminates at.
        arrival_ps: path delay in picoseconds at nominal voltage.
        nets: nets along the path from launching input to endpoint.
    """

    endpoint: str
    arrival_ps: float
    nets: Tuple[str, ...]

    @property
    def startpoint(self) -> str:
        return self.nets[0]

    @property
    def depth(self) -> int:
        """Number of gates traversed."""
        return len(self.nets) - 1


@dataclass
class TimingReport:
    """Full STA result for one annotated netlist.

    Attributes:
        arrival_ps: worst arrival time of every net.
        endpoint_arrivals: arrival times of primary outputs only.
        critical_path: the single worst path.
        clock_period_ps: analyzed period (0 if none supplied).
    """

    arrival_ps: Dict[str, float]
    endpoint_arrivals: Dict[str, float]
    critical_path: TimingPath
    clock_period_ps: float = 0.0

    @property
    def critical_delay_ps(self) -> float:
        return self.critical_path.arrival_ps

    @property
    def max_frequency_mhz(self) -> float:
        """Highest clock (MHz) that meets timing at nominal voltage."""
        return 1e6 / self.critical_delay_ps

    def slack_ps(self, endpoint: str) -> float:
        """Setup slack of ``endpoint`` against ``clock_period_ps``."""
        if self.clock_period_ps <= 0:
            raise ValueError("report was built without a clock period")
        return self.clock_period_ps - self.endpoint_arrivals[endpoint]

    def failing_endpoints(self) -> List[str]:
        """Endpoints with negative slack at the analyzed period."""
        if self.clock_period_ps <= 0:
            raise ValueError("report was built without a clock period")
        return [
            net
            for net, arrival in self.endpoint_arrivals.items()
            if arrival > self.clock_period_ps
        ]


def analyze_timing(
    annotation: DelayAnnotation, clock_period_ps: float = 0.0
) -> TimingReport:
    """Run STA on an annotated netlist.

    Arrival time of a primary input is 0; of a gate output, the max
    input arrival plus the gate's annotated nominal delay.

    Args:
        annotation: delays from :func:`repro.timing.annotate_delays`.
        clock_period_ps: optional period for slack reporting.
    """
    netlist = annotation.netlist
    arrival: Dict[str, float] = {net: 0.0 for net in netlist.inputs}
    worst_pred: Dict[str, Optional[str]] = {net: None for net in netlist.inputs}
    for gate in netlist.gates:  # topological order (frozen netlist)
        best_net = gate.inputs[0]
        best_time = arrival[best_net]
        for net in gate.inputs[1:]:
            if arrival[net] > best_time:
                best_time = arrival[net]
                best_net = net
        arrival[gate.output] = best_time + annotation.gate_delay_ps[gate.output]
        worst_pred[gate.output] = best_net

    endpoint_arrivals = {net: arrival[net] for net in netlist.outputs}
    worst_endpoint = max(endpoint_arrivals, key=endpoint_arrivals.get)
    path_nets: List[str] = [worst_endpoint]
    cursor: Optional[str] = worst_pred[worst_endpoint]
    while cursor is not None:
        path_nets.append(cursor)
        cursor = worst_pred[cursor]
    path_nets.reverse()
    critical = TimingPath(
        worst_endpoint, endpoint_arrivals[worst_endpoint], tuple(path_nets)
    )
    return TimingReport(
        arrival_ps=arrival,
        endpoint_arrivals=endpoint_arrivals,
        critical_path=critical,
        clock_period_ps=clock_period_ps,
    )
