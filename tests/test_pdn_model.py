"""Tests for the PDN transient model."""

import numpy as np
import pytest

from repro.pdn import PDNModel, PDNParameters


class TestParameters:
    def test_defaults_valid(self):
        PDNParameters()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resistance_ohm": -1.0},
            {"resonance_hz": 0.0},
            {"damping": 0.0},
            {"noise_sigma_v": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PDNParameters(**kwargs)


class TestStepResponse:
    def test_droop_direction(self):
        pdn = PDNModel(seed=0)
        v = pdn.step_response(600, amplitude_a=1.0)
        assert v[0] == pytest.approx(1.0, abs=1e-3)
        assert v[300:].mean() < 1.0

    def test_settles_to_ir_drop(self):
        params = PDNParameters(noise_sigma_v=0.0)
        pdn = PDNModel(params, seed=0)
        v = pdn.step_response(4000, amplitude_a=1.0)
        assert v[-1] == pytest.approx(1.0 - params.resistance_ohm, rel=0.02)

    def test_underdamped_rings_below_target(self):
        params = PDNParameters(noise_sigma_v=0.0, damping=0.2)
        pdn = PDNModel(params, seed=0)
        v = pdn.step_response(2000, amplitude_a=1.0)
        static = 1.0 - params.resistance_ohm
        assert v.min() < static - 0.005  # first droop undershoots

    def test_release_overshoots(self):
        params = PDNParameters(noise_sigma_v=0.0, damping=0.2)
        pdn = PDNModel(params, seed=0)
        current = np.zeros(800)
        current[100:400] = 1.0
        v = pdn.simulate({"x": current}, noise=False)["shared"]
        assert v[420:600].max() > 1.0  # overshoot above nominal

    def test_amplitude_scales_linearly(self):
        params = PDNParameters(noise_sigma_v=0.0)
        pdn = PDNModel(params, seed=0)
        v1 = pdn.step_response(1000, amplitude_a=0.5)
        v2 = pdn.step_response(1000, amplitude_a=1.0)
        droop1 = 1.0 - v1
        droop2 = 1.0 - v2
        assert np.allclose(2 * droop1, droop2, atol=1e-9)


class TestSimulate:
    def test_noise_reproducible(self):
        current = np.zeros(100)
        a = PDNModel(seed=4).simulate({"x": current})["shared"]
        b = PDNModel(seed=4).simulate({"x": current})["shared"]
        assert np.allclose(a, b)

    def test_noise_seed_varies(self):
        current = np.zeros(100)
        a = PDNModel(seed=4).simulate({"x": current})["shared"]
        b = PDNModel(seed=5).simulate({"x": current})["shared"]
        assert not np.allclose(a, b)

    def test_noise_disabled(self):
        current = np.zeros(100)
        v = PDNModel(seed=4).simulate({"x": current}, noise=False)["shared"]
        assert np.allclose(v, 1.0)

    def test_mismatched_lengths_rejected(self):
        pdn = PDNModel()
        with pytest.raises(ValueError):
            pdn.simulate({"a": np.zeros(10), "b": np.zeros(20)})

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            PDNModel().simulate({})

    def test_region_coupling(self):
        pdn = PDNModel(
            regions=("near", "far"),
            coupling={("far", "x"): 0.5},
            seed=0,
        )
        current = np.zeros(500)
        current[100:] = 1.0
        out = pdn.simulate({"x": current}, noise=False)
        near_droop = 1.0 - out["near"].min()
        far_droop = 1.0 - out["far"].min()
        assert far_droop == pytest.approx(near_droop * 0.5, rel=1e-6)

    def test_currents_superpose(self):
        pdn = PDNModel(seed=0)
        step = np.zeros(500)
        step[100:] = 0.5
        single = pdn.simulate({"a": step}, noise=False)["shared"]
        double = pdn.simulate({"a": step, "b": step}, noise=False)["shared"]
        assert np.allclose(1.0 - double, 2 * (1.0 - single), atol=1e-9)


class TestRecurrenceIntegrator:
    def _waveforms(self, traces=6, samples=400, seed=3):
        rng = np.random.default_rng(seed)
        currents = rng.uniform(0.0, 0.5, size=(traces, samples))
        currents[:, :50] = 0.0  # start from rest like a real capture
        return currents

    def test_fast_path_bit_identical_to_reference(self):
        pdn = PDNModel(PDNParameters(noise_sigma_v=0.0), seed=0)
        for current in self._waveforms():
            assert np.array_equal(
                pdn._integrate(current), pdn._integrate_reference(current)
            )

    def test_batch_bit_identical_to_per_trace(self):
        pdn = PDNModel(PDNParameters(noise_sigma_v=0.0), seed=0)
        currents = self._waveforms()
        batch = pdn.integrate_batch(currents)
        assert batch.shape == currents.shape
        for t, current in enumerate(currents):
            assert np.array_equal(batch[t], pdn._integrate(current))

    def test_batch_rejects_wrong_rank(self):
        pdn = PDNModel(seed=0)
        with pytest.raises(ValueError):
            pdn.integrate_batch(np.zeros(100))

    def test_coefficients_reproduce_original_euler_loop(self):
        # The recurrence must stay the same discretization the original
        # per-sample state-form loop implemented (z/dz semi-implicit
        # Euler), not merely some stable filter.
        params = PDNParameters(noise_sigma_v=0.0)
        pdn = PDNModel(params, seed=0)
        current = self._waveforms(traces=1)[0]
        dt = 1.0 / pdn.sample_rate_hz
        omega = 2.0 * np.pi * params.resonance_hz
        z = dz = 0.0
        droop = np.empty_like(current)
        for n in range(current.shape[0]):
            ddz = omega**2 * (params.resistance_ohm * current[n] - z) \
                - 2.0 * params.damping * omega * dz
            dz += ddz * dt
            z += dz * dt
            droop[n] = z
        assert np.allclose(pdn._integrate(current), droop,
                           rtol=1e-10, atol=1e-14)

    def test_step_response_unchanged_semantics(self):
        params = PDNParameters(noise_sigma_v=0.0)
        v = PDNModel(params, seed=0).step_response(4000, amplitude_a=1.0)
        assert v[-1] == pytest.approx(1.0 - params.resistance_ohm, rel=0.02)


class TestStabilityGuard:
    def test_default_configuration_is_stable(self):
        c1, c2, b0 = PDNModel().recurrence_coefficients()
        assert abs(c1) < 2.0 and abs(c2) < 1.0 and b0 > 0.0

    def test_unstable_resonance_raises(self):
        # 40 MHz resonance at 150 MHz sampling: omega0*dt ~ 1.68,
        # x^2 + 4*zeta*x ~ 4.15 > 4 — the old loop silently diverged.
        params = PDNParameters(resonance_hz=40e6, noise_sigma_v=0.0)
        with pytest.raises(ValueError, match="unstable"):
            PDNModel(params, sample_rate_hz=150e6)

    def test_low_sample_rate_raises(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            PDNModel(PDNParameters(), sample_rate_hz=4e6)

    def test_near_bound_but_stable_accepted(self):
        # 20 MHz at 150 MHz sampling: x ~ 0.84, x^2+4*zeta*x ~ 1.37 < 4.
        pdn = PDNModel(
            PDNParameters(resonance_hz=20e6, noise_sigma_v=0.0),
            sample_rate_hz=150e6,
        )
        droop = pdn._integrate(np.ones(2000))
        assert np.isfinite(droop).all()
        assert abs(droop[-1] - pdn.params.resistance_ohm) < 0.01
