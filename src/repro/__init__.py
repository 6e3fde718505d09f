"""repro: reproduction of "Stealthy Logic Misuse for Power Analysis
Attacks in Multi-Tenant FPGAs" (DATE 2021).

The library demonstrates — on a simulated multi-tenant FPGA — how
benign logic (an ALU, an ISCAS-85 C6288 multiplier) can be misused as a
voltage-fluctuation sensor for correlation power analysis against a
co-tenant AES module, and why netlist/bitstream checking does not catch
it.

Subpackage guide:

* :mod:`repro.core` — the paper's contribution: benign-logic sensing,
  calibration, post-processing, ATPG stimuli search, attack pipeline.
* :mod:`repro.netlist` / :mod:`repro.circuits` — gate-level substrate
  and the ALU / C6288 benign circuits.
* :mod:`repro.timing` — voltage-dependent delays, STA, timed simulation.
* :mod:`repro.pdn` / :mod:`repro.fabric` — power-distribution network
  transients and the multi-tenant FPGA device model.
* :mod:`repro.sensors` — reference TDC / RO sensors and the RO netlist.
* :mod:`repro.aes` — the AES-128 victim and its leakage model.
* :mod:`repro.attacks` — the CPA engine and key-recovery metrics.
* :mod:`repro.defense` — bitstream/netlist checking countermeasures.
* :mod:`repro.experiments` — drivers regenerating every paper figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
