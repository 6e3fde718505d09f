"""Shared fixtures.

Heavyweight objects (placed sensors, characterizations) are built once
per session; tests must not mutate them.
"""

from __future__ import annotations

import threading

import pytest

from repro.aes import AES128
from repro.circuits import build_alu, build_c6288, get_circuit_spec
from repro.core import AttackCampaign, BenignSensor
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.timing import annotate_delays, fpga_annotate


@pytest.fixture(scope="session")
def alu16():
    """A small ALU netlist for functional tests."""
    return build_alu(16)


@pytest.fixture(scope="session")
def mult8():
    """An 8x8 C6288-style multiplier for functional tests."""
    return build_c6288(8)


@pytest.fixture(scope="session")
def alu_sensor():
    """The full 192-bit ALU benign sensor (paper configuration)."""
    return BenignSensor.from_name("alu")


@pytest.fixture(scope="session")
def c6288_sensor():
    """The paper's 2x C6288 benign sensor."""
    return BenignSensor.from_name("c6288x2")


@pytest.fixture(scope="session")
def cipher():
    return AES128(bytes(range(16)))


@pytest.fixture(scope="session")
def alu_campaign(alu_sensor, cipher):
    campaign = AttackCampaign(alu_sensor, cipher, seed=1)
    campaign.characterize()
    return campaign


@pytest.fixture
def held_slot(monkeypatch):
    """The service's attack runner, made to wait for the returned event
    first: a submitted attack keeps its worker busy until it is set."""
    from repro.service import scheduler

    release = threading.Event()
    real = scheduler.run_attack

    def held(*args, **kwargs):
        release.wait(60)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler, "run_attack", held)
    yield release
    release.set()


@pytest.fixture(scope="session")
def small_setup():
    """Experiment setup at a test-friendly trace budget."""
    return ExperimentSetup(ExperimentConfig(num_traces=20_000))
