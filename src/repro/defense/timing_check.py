"""Strict timing-based checking — the countermeasure of Sec. VI.

The paper's Discussion observes that a *timing-aware* check would
catch the attack: compare every tenant clock request against the
static-timing fmax of the logic in that clock domain and refuse clocks
that violate it.  It also explains why this is hard to deploy: real
designs are full of false paths and multicycle paths that designers
exempt from timing closure, and those exemptions can hide sensor
paths.

This module implements both sides:

* :func:`strict_timing_check` — the check itself (flags the 300 MHz
  request for a 50 MHz ALU);
* false-path exemptions via :class:`TimingConstraints` — showing that
  a tenant who declares the sensor endpoints as false paths slips a
  formally "timing-clean" design past the check, reproducing the
  paper's argument that even this defense is porous in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.timing.delay_model import DelayAnnotation
from repro.timing.sta import analyze_timing


@dataclass(frozen=True)
class TimingConstraints:
    """Tenant-supplied timing exemptions.

    Attributes:
        false_path_endpoints: endpoints exempted from timing analysis
            ("these outputs are quasi-static / never sampled at speed").
        multicycle_endpoints: endpoint -> allowed cycle count.
    """

    false_path_endpoints: FrozenSet[str] = frozenset()

    @classmethod
    def exempting(cls, endpoints: Iterable[str]) -> "TimingConstraints":
        return cls(false_path_endpoints=frozenset(endpoints))


@dataclass
class TimingCheckReport:
    """Outcome of the strict timing check for one clock domain.

    Attributes:
        requested_mhz: the tenant's clock request.
        fmax_mhz: analyzed maximum frequency over *checked* endpoints.
        failing_endpoints: endpoints that cannot meet the request.
        exempted_endpoints: endpoints skipped due to constraints.
    """

    requested_mhz: float
    fmax_mhz: float
    failing_endpoints: List[str]
    exempted_endpoints: List[str]

    @property
    def accepted(self) -> bool:
        return not self.failing_endpoints

    @property
    def exemptions_hide_violations(self) -> bool:
        """Whether exempted endpoints would fail the check."""
        return bool(self.exempted_endpoints) and self.accepted

    def summary(self) -> str:
        verdict = "ACCEPT" if self.accepted else "REJECT"
        return (
            "%s: requested %.0f MHz vs fmax %.1f MHz "
            "(%d failing, %d exempted)"
            % (
                verdict,
                self.requested_mhz,
                self.fmax_mhz,
                len(self.failing_endpoints),
                len(self.exempted_endpoints),
            )
        )


def strict_timing_check(
    annotation: DelayAnnotation,
    requested_clock_mhz: float,
    constraints: Optional[TimingConstraints] = None,
    margin: float = 0.05,
) -> TimingCheckReport:
    """Check a clock request against the design's analyzed timing.

    Args:
        annotation: the placed, delay-annotated tenant netlist.
        requested_clock_mhz: the MMCM frequency the tenant asked for.
        constraints: tenant-declared false paths (exempt endpoints).
        margin: required timing margin (fraction of the period) —
            providers would insist on some guard band.

    Returns:
        a :class:`TimingCheckReport`; rejected when any *non-exempt*
        endpoint's arrival exceeds the derated period.
    """
    if requested_clock_mhz <= 0:
        raise ValueError("requested clock must be positive")
    if not 0 <= margin < 1:
        raise ValueError("margin must be in [0, 1)")
    constraints = constraints or TimingConstraints()
    period_ps = 1e6 / requested_clock_mhz * (1.0 - margin)
    report = analyze_timing(annotation, clock_period_ps=period_ps)

    failing: List[str] = []
    exempted: List[str] = []
    for endpoint, arrival in report.endpoint_arrivals.items():
        if arrival <= period_ps:
            continue
        if endpoint in constraints.false_path_endpoints:
            exempted.append(endpoint)
        else:
            failing.append(endpoint)
    checked = [
        a
        for e, a in report.endpoint_arrivals.items()
        if e not in constraints.false_path_endpoints
    ]
    fmax = 1e6 / max(checked) if checked and max(checked) > 0 else float("inf")
    return TimingCheckReport(
        requested_mhz=requested_clock_mhz,
        fmax_mhz=fmax,
        failing_endpoints=sorted(failing),
        exempted_endpoints=sorted(exempted),
    )
