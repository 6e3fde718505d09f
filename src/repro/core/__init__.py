"""The paper's core contribution: benign logic misused as a sensor.

Pipeline components:

* :class:`BenignSensor` — implement/calibrate a benign circuit and
  sample its overclocked endpoints as a voltage sensor;
* :mod:`repro.core.calibration` — gate-level waveform extraction and
  the fast vectorized sampling model;
* :mod:`repro.core.postprocess` — sensitive-bit census, variance
  ranking, Hamming-weight reduction;
* :mod:`repro.core.atpg` — automated stimuli search (Sec. VI);
* :class:`AttackCampaign` — end-to-end key recovery orchestration.
"""

from repro.core.atpg import (
    ActivationObjective,
    MaxEndpointDelay,
    StimulusCandidate,
    WindowCoverage,
    find_activation_stimulus,
    stimulus_quality,
)
from repro.core.attack import (
    REDUCTION_HW,
    REDUCTION_SINGLE_BIT,
    AttackCampaign,
    CharacterizationResult,
)
from repro.core.covert import (
    CovertChannelResult,
    CovertReceiver,
    CovertTransmitter,
    OOKModulation,
    run_covert_channel,
)
from repro.core.calibration import (
    EndpointWaveform,
    SensorCalibration,
    calibrate_endpoints,
)
from repro.core.calibration_cache import (
    cached_calibrate_endpoints,
    calibration_stats,
    clear_calibration_cache,
)
from repro.core.endpoint_sensor import (
    DEFAULT_JITTER_PS,
    DEFAULT_SHARED_JITTER_PS,
    DEFAULT_OVERCLOCK_MHZ,
    BenignSensor,
    BenignSensorInstance,
)
from repro.core.tracegen import PhysicalTraceGenerator, random_plaintexts
from repro.core.waveform_bank import WaveformBank
from repro.core.postprocess import (
    SensitivityCensus,
    best_bit,
    bit_variances,
    bits_of_interest,
    hamming_weight_series,
    rank_bits_by_variance,
    sensitivity_census,
    toggling_bits,
)

__all__ = [
    "ActivationObjective",
    "AttackCampaign",
    "BenignSensor",
    "BenignSensorInstance",
    "CharacterizationResult",
    "CovertChannelResult",
    "CovertReceiver",
    "CovertTransmitter",
    "OOKModulation",
    "PhysicalTraceGenerator",
    "random_plaintexts",
    "run_covert_channel",
    "DEFAULT_JITTER_PS",
    "DEFAULT_SHARED_JITTER_PS",
    "DEFAULT_OVERCLOCK_MHZ",
    "EndpointWaveform",
    "MaxEndpointDelay",
    "REDUCTION_HW",
    "REDUCTION_SINGLE_BIT",
    "SensitivityCensus",
    "SensorCalibration",
    "StimulusCandidate",
    "WaveformBank",
    "WindowCoverage",
    "best_bit",
    "bit_variances",
    "bits_of_interest",
    "cached_calibrate_endpoints",
    "calibrate_endpoints",
    "calibration_stats",
    "clear_calibration_cache",
    "find_activation_stimulus",
    "hamming_weight_series",
    "rank_bits_by_variance",
    "sensitivity_census",
    "stimulus_quality",
    "toggling_bits",
]
