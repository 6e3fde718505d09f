"""Second-order transient model of the on-die power distribution network.

The PDN couples all tenants of the FPGA electrically (paper Sec. II):
current drawn by one region produces supply-voltage fluctuations that
are observable everywhere on the die.  A chip-package PDN behaves, to
first order, like a series RLC network: a current step produces a
voltage *droop* followed by damped ringing, and a sudden current release
produces an *overshoot* — exactly the shapes in the paper's Fig. 6.

We model the supply seen by each region as::

    v(t) = V_nom - z(t) + ambient_noise
    z'' + 2*zeta*omega0*z' + omega0^2 * z = omega0^2 * R * i(t)

where ``i(t)`` is the total current drawn (sum over regions, weighted
by inter-region coupling), ``R`` the effective PDN resistance, and
``omega0 = 2*pi*f_res`` the package resonance.  The ODE is discretized
with a semi-implicit Euler scheme at the simulation sample rate; the
state update collapses algebraically into the second-order linear
recurrence::

    droop[n] = c1*droop[n-1] + c2*droop[n-2] + b0*i[n]
    c1 = 2 - (omega0*dt)^2 - 2*zeta*omega0*dt
    c2 = -(1 - 2*zeta*omega0*dt)
    b0 = (omega0*dt)^2 * R

which is evaluated through the ``pdn`` kernel of
:mod:`repro.util.kernels` (:meth:`PDNModel.integrate_batch`: a numpy
recurrence vectorized across traces, or the native C loop); the
pure-Python recurrence loop (:meth:`PDNModel._integrate_reference`) is
kept as the bit-identical ground truth the fast path is validated
against.  The recurrence is stable only while ``omega0*dt`` stays below
its Jury bound — :meth:`PDNModel.recurrence_coefficients` raises
``ValueError`` for resonance/sample-rate combinations that would
silently diverge.

Typical FPGA PDN resonances sit in the 100 kHz – 10 MHz band; the
default 2 MHz makes a 4 MHz RO on/off pattern produce the two clearly
separated droop/overshoot events of Fig. 6 when sampled at 150 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util import kernels
from repro.util.rng import make_rng

# ----------------------------------------------------------------------
# Registered kernel backends for the droop recurrence.  The numpy pair
# is the bit-identity reference; the native sequential loop produces the
# same float64 operation sequence per sample, so both match bit-for-bit.
# ----------------------------------------------------------------------


def _integrate_numpy(
    current: np.ndarray, c1: float, c2: float, b0: float
) -> np.ndarray:
    droop = np.empty(current.shape[0], dtype=np.float64)
    z1 = 0.0
    z2 = 0.0
    for n in range(current.shape[0]):
        z = c1 * z1 + c2 * z2 + b0 * current[n]
        droop[n] = z
        z2 = z1
        z1 = z
    return droop


def _integrate_batch_numpy(
    currents: np.ndarray, c1: float, c2: float, b0: float
) -> np.ndarray:
    droop = np.empty_like(currents)
    z1 = np.zeros(currents.shape[0])
    z2 = np.zeros(currents.shape[0])
    for n in range(currents.shape[1]):
        z = c1 * z1 + c2 * z2 + b0 * currents[:, n]
        droop[:, n] = z
        z2 = z1
        z1 = z
    return droop



@dataclass(frozen=True)
class PDNParameters:
    """Electrical parameters of the simulated PDN.

    Attributes:
        nominal_voltage: idle core supply in volts.
        resistance_ohm: effective PDN resistance converting current
            (amperes) into static IR droop (volts).
        resonance_hz: RLC resonance frequency of the chip+package.
        damping: damping ratio ``zeta`` (< 1: underdamped, rings).
        noise_sigma_v: standard deviation of ambient supply noise per
            sample (regulator ripple, unrelated tenant activity).
    """

    nominal_voltage: float = 1.0
    resistance_ohm: float = 0.08
    resonance_hz: float = 2.0e6
    damping: float = 0.2
    noise_sigma_v: float = 0.0012

    def __post_init__(self) -> None:
        if self.resistance_ohm < 0:
            raise ValueError("resistance must be non-negative")
        if self.resonance_hz <= 0:
            raise ValueError("resonance frequency must be positive")
        if not 0 < self.damping:
            raise ValueError("damping ratio must be positive")
        if self.noise_sigma_v < 0:
            raise ValueError("noise sigma must be non-negative")


class PDNModel:
    """Transient PDN simulator shared by all tenants.

    Args:
        params: electrical parameters.
        sample_rate_hz: integration/sampling rate.  The sensing
            experiments run at the sensors' effective sample rate
            (150 MHz), which comfortably resolves a ~MHz resonance.
        regions: region names; currents are summed with pairwise
            coupling before driving the shared PDN state.
        coupling: mapping ``(observer, source) -> weight``; defaults to
            1.0 (fully shared PDN).  Values < 1 model partial supply
            separation between die regions.
        seed: seed for ambient noise.

    Example:
        >>> pdn = PDNModel(sample_rate_hz=150e6, seed=7)
        >>> current = np.zeros(300); current[100:] = 0.5
        >>> v = pdn.simulate({"shared": current})["shared"]
        >>> v[:90].mean() > v[120:180].mean()  # droop after the step
        True
    """

    def __init__(
        self,
        params: PDNParameters = PDNParameters(),
        sample_rate_hz: float = 150e6,
        regions: Sequence[str] = ("shared",),
        coupling: Optional[Mapping[tuple, float]] = None,
        seed: int = 0,
    ):
        if sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if not regions:
            raise ValueError("need at least one region")
        self.params = params
        self.sample_rate_hz = sample_rate_hz
        self.regions = tuple(regions)
        self._coupling = dict(coupling or {})
        self._seed = seed
        # Fail fast on resonance/sample-rate combinations whose Euler
        # recurrence diverges (satellite: stability guard).
        self.recurrence_coefficients()

    def coupling_weight(self, observer: str, source: str) -> float:
        """Coupling from a current source region to an observer region."""
        return self._coupling.get((observer, source), 1.0)

    def recurrence_coefficients(self) -> Tuple[float, float, float]:
        """``(c1, c2, b0)`` of the discretized droop recurrence.

        ``droop[n] = c1*droop[n-1] + c2*droop[n-2] + b0*current[n]`` is
        the semi-implicit Euler update of the RLC ODE written as a
        direct-form IIR filter (see the module docstring for the
        derivation).

        Raises:
            ValueError: when the recurrence is unstable.  With
                ``x = omega0*dt``, the Jury criteria for both poles of
                ``z^2 - c1*z - c2`` to lie inside the unit circle are
                ``2*zeta*x < 2`` and ``x^2 + 4*zeta*x < 4``; past that
                bound the integrator would return exponentially growing
                garbage droop instead of physics.
        """
        p = self.params
        dt = 1.0 / self.sample_rate_hz
        x = 2.0 * np.pi * p.resonance_hz * dt
        two_zeta = 2.0 * p.damping
        if two_zeta * x >= 2.0 or x * x + 2.0 * two_zeta * x >= 4.0:
            raise ValueError(
                "semi-implicit Euler recurrence unstable: omega0*dt = "
                "%.4g (resonance %.4g Hz at %.4g Hz sampling, damping "
                "%.3g) violates the stability bound; lower resonance_hz "
                "or raise sample_rate_hz"
                % (x, p.resonance_hz, self.sample_rate_hz, p.damping)
            )
        c1 = 2.0 - x * x - two_zeta * x
        c2 = -(1.0 - two_zeta * x)
        b0 = x * x * p.resistance_ohm
        return c1, c2, b0

    def _integrate_reference(self, current: np.ndarray) -> np.ndarray:
        """Pure-Python recurrence loop (ground truth for the IIR path)."""
        c1, c2, b0 = self.recurrence_coefficients()
        droop = np.empty(current.shape[0], dtype=np.float64)
        z1 = 0.0  # droop[n-1] (volts)
        z2 = 0.0  # droop[n-2]
        for n in range(current.shape[0]):
            z = c1 * z1 + c2 * z2 + b0 * current[n]
            droop[n] = z
            z2 = z1
            z1 = z
        return droop

    def _integrate(self, current: np.ndarray) -> np.ndarray:
        """Integrate the RLC droop response for one current waveform.

        Under the ``native`` kernels the compiled sequential loop runs,
        under ``numpy`` the reference recurrence — both bit-identical.
        """
        current = np.asarray(current, dtype=np.float64)
        c1, c2, b0 = self.recurrence_coefficients()
        op = kernels.native_op("pdn", "integrate") or _integrate_numpy
        return op(current, c1, c2, b0)

    def integrate_batch(self, currents: np.ndarray) -> np.ndarray:
        """Droop responses for a batch of current waveforms.

        Args:
            currents: float array ``(traces, samples)``; each row is an
                independent waveform integrated from rest.

        Returns:
            float array ``(traces, samples)`` of droop voltages; row
            ``t`` is bit-identical to ``_integrate(currents[t])`` (the
            recurrence touches each sample with the same three fused
            operations whether evaluated per row or across the batch).
        """
        currents = np.asarray(currents, dtype=np.float64)
        if currents.ndim != 2:
            raise ValueError(
                "currents must have shape (traces, samples), got %r"
                % (currents.shape,)
            )
        c1, c2, b0 = self.recurrence_coefficients()
        op = (
            kernels.native_op("pdn", "integrate_batch")
            or _integrate_batch_numpy
        )
        return op(currents, c1, c2, b0)

    def simulate(
        self,
        region_currents: Mapping[str, np.ndarray],
        noise: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Simulate supply voltage seen in every region.

        Args:
            region_currents: current waveform (amperes, one sample per
                tick) per source region.  Waveforms must share a length.
            noise: include ambient supply noise.

        Returns:
            per-region voltage waveforms of the same length.
        """
        lengths = {len(w) for w in region_currents.values()}
        if len(lengths) > 1:
            raise ValueError("current waveforms must share a length")
        if not lengths:
            raise ValueError("no current waveforms supplied")
        num_samples = lengths.pop()

        sources = {
            name: np.asarray(w, dtype=float)
            for name, w in region_currents.items()
        }
        voltages: Dict[str, np.ndarray] = {}
        for observer in self.regions:
            total = np.zeros(num_samples)
            for source_name, waveform in sources.items():
                total += self.coupling_weight(observer, source_name) * waveform
            droop = self._integrate(total)
            v = self.params.nominal_voltage - droop
            if noise and self.params.noise_sigma_v > 0:
                rng = make_rng(self._seed, "pdn-noise", observer)
                v = v + rng.normal(
                    0.0, self.params.noise_sigma_v, size=num_samples
                )
            voltages[observer] = v
        return voltages

    def step_response(self, num_samples: int, amplitude_a: float = 1.0
                      ) -> np.ndarray:
        """Noise-free voltage response to a current step at sample 0."""
        current = np.full(num_samples, float(amplitude_a))
        return self.simulate({self.regions[0]: current}, noise=False)[
            self.regions[0]
        ]
