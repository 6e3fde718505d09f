"""End-to-end benign-sensor key-recovery attack orchestration.

:class:`AttackCampaign` wires the full pipeline of the paper's Fig. 2
into one object:

1. **Characterize** — run the RO on/off schedule and an AES burst
   through the PDN, capture the benign sensor, and census the
   sensitive bits (Figs. 5–8 / 14–16);
2. **Collect** — for each of N encryptions, compute the victim's
   last-round activity, the resulting supply voltage at the aligned
   sensor sample, and the latched endpoint word (vectorized per
   :data:`STREAM_BLOCK`);
3. **Reduce** — Hamming weight over bits of interest, or a single
   endpoint bit;
4. **Attack** — CPA on the reduced trace against the single-bit
   last-round hypothesis.

The same campaign object drives the TDC for baseline comparisons, so
"ALU vs TDC" experiments share every other pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aes.aes128 import AES128
from repro.aes.leakage import LeakageModel, random_ciphertexts
from repro.attacks.cpa import CPAResult, run_cpa
from repro.attacks.models import (
    BYTE_VALUES,
    DEFAULT_TARGET_BIT,
    DEFAULT_TARGET_BYTE,
    single_bit_hypothesis,
)
from repro.core.endpoint_sensor import BenignSensor
from repro.core.postprocess import SensitivityCensus, sensitivity_census
from repro.pdn.aggressors import ROAggressorSchedule, aes_current_waveform
from repro.pdn.model import PDNModel
from repro.sensors.ro import ROSensor
from repro.sensors.tdc import TDCSensor
from repro.util.rng import derive_seed

#: Reduction modes accepted by :meth:`AttackCampaign.collect_reduced_traces`.
REDUCTION_HW = "hamming_weight"
REDUCTION_SINGLE_BIT = "single_bit"

#: The stream block: every per-trace random stream of a campaign
#: (sensor jitter, ambient noise, acquisition jitter) is seeded per
#: block of this many traces, keyed on the block's *global* start index.
#: It is also the unit of work, so a shard is any run of whole blocks
#: and every consumer (the serial collectors below, the sharded drivers
#: and fleet leases in :mod:`repro.experiments.parallel`) reproduces
#: identical leakage however the campaign is partitioned.  Fixed, not a
#: parameter: changing it changes every campaign longer than one block.
STREAM_BLOCK = 4096


@dataclass
class CharacterizationResult:
    """Output of the preliminary RO/AES characterization.

    Attributes:
        census: sensitive-bit census (Figs. 7/15).
        ro_bits: raw captures under RO activity (Figs. 5/14).
        aes_bits: raw captures under AES activity.
        ro_voltages / aes_voltages: the underlying supply waveforms.
        variances_ro / variances_aes: per-bit variances (Figs. 8/16).
    """

    census: SensitivityCensus
    ro_bits: np.ndarray
    aes_bits: np.ndarray
    ro_voltages: np.ndarray
    aes_voltages: np.ndarray

    @property
    def variances_ro(self) -> np.ndarray:
        return self.ro_bits.astype(float).var(axis=0)

    @property
    def variances_aes(self) -> np.ndarray:
        return self.aes_bits.astype(float).var(axis=0)

    def bit_response_correlations(self) -> np.ndarray:
        """|corr| of each endpoint bit with the common voltage signal.

        The attacker cannot observe the supply directly, but the
        Hamming weight of all sensitive bits is itself a voltage proxy
        (Fig. 6), so ``|corr(bit_i, HW - bit_i)`` measured on the AES
        characterization capture ranks how cleanly each endpoint
        couples to voltage *at the attack-time operating point*.  This
        is an entirely offline analysis, as the paper notes for its
        single-bit selection.
        """
        bits = self.aes_bits.astype(np.float64)
        mask = self.census.ro_sensitive
        hw = bits[:, mask].sum(axis=1)
        rho = np.zeros(bits.shape[1])
        for i in range(bits.shape[1]):
            x = bits[:, i]
            if x.std() == 0:
                continue
            proxy = hw - x if mask[i] else hw
            if proxy.std() == 0:
                continue
            rho[i] = abs(float(np.corrcoef(x, proxy)[0, 1]))
        return rho

    def best_bit(self, rank: int = 0) -> int:
        """Single-bit sensor endpoint at the given quality rank.

        Bits are ranked by :meth:`bit_response_correlations` among the
        RO-sensitive set; ``rank=0`` is the paper's "highest variance"
        pick (bit 21 of their ALU, bit 28 of their C6288 — the indices
        differ per implementation run), ``rank=1`` the alternate bit of
        Fig. 13.
        """
        rho = self.bit_response_correlations()
        candidates = np.flatnonzero(self.census.ro_sensitive)
        if candidates.size == 0:
            raise RuntimeError("characterization found no sensitive bits")
        order = candidates[np.argsort(-rho[candidates], kind="stable")]
        if rank >= order.size:
            raise ValueError(
                "rank %d exceeds the %d sensitive bits" % (rank, order.size)
            )
        return int(order[rank])


class AttackCampaign:
    """Orchestrates characterization, collection, and CPA.

    Args:
        sensor: the benign sensor under evaluation.
        cipher: victim cipher (its last round key is the target).
        leakage: victim leakage/voltage model.
        pdn: PDN used for the characterization transients.
        seed: campaign seed (traces, noise, jitter all derive from it).
    """

    def __init__(
        self,
        sensor: BenignSensor,
        cipher: AES128,
        leakage: Optional[LeakageModel] = None,
        pdn: Optional[PDNModel] = None,
        seed: int = 0,
    ):
        self.sensor = sensor
        self.cipher = cipher
        self.leakage = leakage or LeakageModel()
        self.pdn = pdn or PDNModel(seed=derive_seed(seed, "pdn"))
        self.seed = seed
        self._characterization: Optional[CharacterizationResult] = None

    # ------------------------------------------------------------------
    # Phase 1: characterization
    # ------------------------------------------------------------------
    def characterize(
        self,
        ro_schedule: Optional[ROAggressorSchedule] = None,
        num_samples: int = 1200,
        aes_cycle_hd: Optional[Sequence[int]] = None,
        census_samples: int = 400,
    ) -> CharacterizationResult:
        """Run the RO and AES preliminary experiments (Sec. V-A).

        Args:
            ro_schedule: RO on/off pattern (default: paper's 8000 ROs).
            num_samples: characterization capture length (the longer
                tail improves the single-bit ranking statistics).
            aes_cycle_hd: per-cycle AES activity; defaults to repeated
                encryptions of random plaintexts through the datapath
                model.
            census_samples: capture prefix used for the toggling
                census.  "Toggles at least once" grows with observation
                time, so the census window is fixed (the paper's
                Fig. 5-style captures are a few hundred samples) while
                the full capture still feeds the variance/response
                ranking.
        """
        schedule = ro_schedule or ROAggressorSchedule()
        ro_current = schedule.current_waveform(num_samples)
        ro_voltages = self.pdn.simulate({"attacker": ro_current})[
            self.pdn.regions[0]
        ]
        ro_bits = self.sensor.sample_bits(
            ro_voltages, seed=derive_seed(self.seed, "char-ro")
        )

        if aes_cycle_hd is None:
            aes_cycle_hd = self._default_aes_activity(num_samples)
        aes_current = aes_current_waveform(
            aes_cycle_hd,
            num_samples,
            start_sample=0,
            samples_per_cycle=1.5,  # 100 MHz AES at 150 MHz sampling
        )
        aes_voltages = self.pdn.simulate({"victim": aes_current})[
            self.pdn.regions[0]
        ]
        aes_bits = self.sensor.sample_bits(
            aes_voltages, seed=derive_seed(self.seed, "char-aes")
        )
        window = min(census_samples, num_samples)
        result = CharacterizationResult(
            census=sensitivity_census(
                ro_bits[:window], aes_bits[:window]
            ),
            ro_bits=ro_bits,
            aes_bits=aes_bits,
            ro_voltages=ro_voltages,
            aes_voltages=aes_voltages,
        )
        self._characterization = result
        return result

    def _default_aes_activity(self, num_samples: int) -> List[int]:
        """Back-to-back encryptions of random plaintexts (cycle HDs).

        The plaintext draw is one block ``(count, 16)`` from the same
        generator state the original per-plaintext loop consumed, and a
        numpy Generator produces identical bytes either way, so the
        batched datapath returns the exact activity sequence the serial
        ``encryption_cycle_hd`` loop produced.
        """
        from repro.aes.batch import encryption_cycle_hd_batch

        rng = np.random.default_rng(derive_seed(self.seed, "char-aes-pt"))
        needed_cycles = int(np.ceil(num_samples / 1.5)) + 44
        count = -(-needed_cycles // 44)
        plaintexts = rng.integers(0, 256, size=(count, 16), dtype=np.uint8)
        return (
            encryption_cycle_hd_batch(self.cipher, plaintexts)
            .reshape(-1)
            .tolist()
        )

    @property
    def characterization(self) -> CharacterizationResult:
        if self._characterization is None:
            self.characterize()
        assert self._characterization is not None
        return self._characterization

    # ------------------------------------------------------------------
    # Phase 2+3+4: collection, reduction, CPA
    # ------------------------------------------------------------------
    def resolve_reduction(
        self, reduction: str, bit: Optional[int] = None
    ) -> Tuple[Optional[np.ndarray], Optional[int]]:
        """Validate a reduction mode against the characterization.

        Returns:
            ``(mask, bit)``: the sensitive-bit mask for Hamming-weight
            reduction (else None), and the resolved endpoint index for
            single-bit reduction (else None).
        """
        characterization = self.characterization
        if reduction == REDUCTION_HW:
            mask = characterization.census.ro_sensitive
            if not mask.any():
                raise RuntimeError("no sensitive bits to reduce over")
            return mask, None
        if reduction == REDUCTION_SINGLE_BIT:
            if bit is None:
                bit = characterization.best_bit()
            if not 0 <= bit < self.sensor.num_bits:
                raise ValueError("bit %d outside endpoint word" % bit)
            return None, bit
        raise ValueError("unknown reduction %r" % (reduction,))

    def ciphertexts(self, num_traces: int) -> np.ndarray:
        """The campaign's seeded ciphertext draw, ``(N, 16)``."""
        return random_ciphertexts(
            num_traces, seed=derive_seed(self.seed, "campaign-ct")
        )

    def campaign_inputs(
        self, num_traces: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ciphertexts and aligned supply voltages for one campaign.

        Both draws are campaign-global (seeded once for all N traces),
        so any partitioning of downstream work observes the same
        victim behaviour.
        """
        ciphertexts = self.ciphertexts(num_traces)
        voltages = self.leakage.voltages(
            ciphertexts,
            self.cipher.last_round_key,
            seed=derive_seed(self.seed, "campaign-noise"),
        )
        return ciphertexts, voltages

    def column_inputs(
        self, num_traces: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`campaign_inputs` with the voltages of all four
        last-round column cycles, ``(N, 4)`` — the full-key campaign's
        inputs, from the same ciphertext and noise draws."""
        ciphertexts = self.ciphertexts(num_traces)
        voltages = self.leakage.column_voltages(
            ciphertexts,
            self.cipher.last_round_key,
            seed=derive_seed(self.seed, "campaign-noise"),
        )
        return ciphertexts, voltages

    def reduced_leakage_block(
        self,
        voltages: np.ndarray,
        global_start: int,
        reduction: str,
        mask: Optional[np.ndarray],
        bit: Optional[int],
    ) -> np.ndarray:
        """Reduced sensor leakage for one stream block of the campaign.

        Args:
            voltages: voltage slice for traces
                ``[global_start, global_start + len(voltages))``, at
                most one :data:`STREAM_BLOCK` long.
            global_start: the block's offset in the full campaign, a
                multiple of :data:`STREAM_BLOCK` — the jitter seed is
                keyed on it, so identical blocks yield identical
                leakage no matter which worker or loop computes them.
            reduction / mask / bit: from :meth:`resolve_reduction`;
                single-bit reduction reads the one-hot mask of ``bit``.
        """
        if reduction != REDUCTION_HW:
            mask = np.zeros(self.sensor.num_bits, dtype=bool)
            mask[bit] = True
        weight = self.sensor.sample_weight(
            voltages,
            seed=derive_seed(self.seed, "campaign-jitter", global_start),
            mask=mask,
        )
        if reduction == REDUCTION_HW:
            return weight
        return weight.astype(np.float64)

    def collect_reduced_traces(
        self,
        num_traces: int,
        reduction: str = REDUCTION_HW,
        bit: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Generate ciphertexts and reduced sensor traces.

        Args:
            num_traces: encryptions to observe.
            reduction: ``"hamming_weight"`` over the bits of interest,
                or ``"single_bit"``.
            bit: endpoint index for single-bit reduction (default: the
                characterization's best bit).

        Returns:
            dict with ``"ciphertexts"`` (N, 16), ``"leakage"`` (N,)
            reduced sensor values, and ``"voltages"`` (N,).
        """
        if num_traces < 2:
            raise ValueError("need at least 2 traces")
        mask, bit = self.resolve_reduction(reduction, bit)
        ciphertexts, voltages = self.campaign_inputs(num_traces)
        leakage = np.empty(num_traces, dtype=np.float64)
        for start in range(0, num_traces, STREAM_BLOCK):
            end = min(start + STREAM_BLOCK, num_traces)
            leakage[start:end] = self.reduced_leakage_block(
                voltages[start:end], start, reduction, mask, bit
            )
        return {
            "ciphertexts": ciphertexts,
            "leakage": leakage,
            "voltages": voltages,
        }

    def select_single_bit(
        self,
        top_k: int = 10,
        trial_traces: int = 100_000,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> List[int]:
        """Rank candidate endpoints by a trial-CPA distinguishing score.

        The paper notes the single-bit analysis "is entirely offline and
        easily repeated": an attacker who has collected traces simply
        tries each candidate endpoint and keeps the one whose CPA shows
        the most distinguished peak.  No key knowledge is involved — a
        genuinely informative bit makes *some* candidate's correlation
        stand out from the pack, and that margin is the score.

        Args:
            top_k: candidate endpoints taken from the characterization's
                response-correlation ranking.
            trial_traces: traces used per trial (a prefix of the same
                campaign the full attack consumes).
            target_byte / target_bit: hypothesis parameters.

        Returns:
            candidate bit indices sorted by decreasing distinguishing
            score.
        """
        characterization = self.characterization
        rho = characterization.bit_response_correlations()
        candidates = np.flatnonzero(characterization.census.ro_sensitive)
        if candidates.size == 0:
            raise RuntimeError("characterization found no sensitive bits")
        order = candidates[np.argsort(-rho[candidates], kind="stable")]
        order = order[: max(1, top_k)]

        ciphertexts, voltages = self.campaign_inputs(trial_traces)
        table = single_bit_hypothesis(BYTE_VALUES, bit=target_bit)
        scores: Dict[int, float] = {}
        columns = {int(b): np.empty(trial_traces) for b in order}
        for start in range(0, trial_traces, STREAM_BLOCK):
            end = min(start + STREAM_BLOCK, trial_traces)
            bits = self.sensor.sample_bits(
                voltages[start:end],
                seed=derive_seed(self.seed, "campaign-jitter", start),
            )
            for b in order:
                columns[int(b)][start:end] = bits[:, int(b)]
        for b in order:
            result = run_cpa(
                columns[int(b)],
                ciphertexts[:, target_byte],
                table,
                checkpoints=[trial_traces],
            )
            final = np.abs(result.correlations[-1])
            top_two = np.partition(final, -2)[-2:]
            second = max(top_two[0], 1e-12)
            scores[int(b)] = float(top_two[1] / second)
        return sorted(scores, key=scores.get, reverse=True)

    def attack(
        self,
        num_traces: int,
        reduction: str = REDUCTION_HW,
        bit: Optional[int] = None,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
        checkpoints: Optional[Sequence[int]] = None,
    ) -> CPAResult:
        """Collect traces and run the last-round single-bit CPA.

        Returns a :class:`CPAResult` carrying the correct key byte, so
        rank and measurements-to-disclosure metrics are available.
        """
        data = self.collect_reduced_traces(num_traces, reduction, bit)
        return run_cpa(
            data["leakage"],
            data["ciphertexts"][:, target_byte],
            single_bit_hypothesis(BYTE_VALUES, bit=target_bit),
            checkpoints=checkpoints,
            correct_key=self.cipher.last_round_key[target_byte],
        )

    def column_leakage_block(
        self,
        voltages: np.ndarray,
        global_start: int,
        column: int,
        mask: np.ndarray,
    ) -> np.ndarray:
        """Hamming-weight leakage for one column over one stream block.

        Mirrors :meth:`reduced_leakage_block`: the jitter seed is keyed
        on ``(column, global_start)``, matching the serial collector.
        """
        return self.sensor.sample_weight(
            voltages,
            seed=derive_seed(
                self.seed, "campaign-jitter", column, global_start
            ),
            mask=mask,
        )

    def collect_column_traces(
        self, num_traces: int
    ) -> Dict[str, np.ndarray]:
        """Reduced traces for all four last-round column cycles.

        The 150 MHz sensor captures one endpoint word per last-round
        cycle; this collects the Hamming-weight reduction for each of
        the four cycles — the input to the full 16-byte key recovery
        (:mod:`repro.attacks.full_key`).

        Returns:
            dict with ``"ciphertexts"`` (N, 16) and ``"leakage"``
            (N, 4).
        """
        if num_traces < 2:
            raise ValueError("need at least 2 traces")
        mask = self.characterization.census.ro_sensitive
        if not mask.any():
            raise RuntimeError("no sensitive bits to reduce over")
        ciphertexts, voltages = self.column_inputs(num_traces)
        leakage = np.empty((num_traces, 4), dtype=np.float64)
        for column in range(4):
            for start in range(0, num_traces, STREAM_BLOCK):
                end = min(start + STREAM_BLOCK, num_traces)
                leakage[start:end, column] = self.column_leakage_block(
                    voltages[start:end, column], start, column, mask
                )
        return {"ciphertexts": ciphertexts, "leakage": leakage}

    def attack_full_key(
        self,
        num_traces: int,
        target_bit: int = DEFAULT_TARGET_BIT,
    ) -> "FullKeyResult":
        """Recover all 16 bytes of the last round key (paper extension).

        Collects column-resolved traces and runs the per-byte CPA of
        :func:`repro.attacks.full_key.recover_last_round_key`.
        """
        from repro.attacks.full_key import recover_last_round_key

        data = self.collect_column_traces(num_traces)
        return recover_last_round_key(
            data["leakage"],
            data["ciphertexts"],
            target_bit=target_bit,
            correct_key=self.cipher.last_round_key,
        )

    def attack_with_tdc(
        self,
        num_traces: int,
        tdc: Optional[TDCSensor] = None,
        bit: Optional[int] = None,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
        checkpoints: Optional[Sequence[int]] = None,
    ) -> CPAResult:
        """Baseline: same campaign, measured with a TDC instead.

        Args:
            bit: if given, use only that TDC tap register (Fig. 11);
                otherwise the decoded thermometer value (Fig. 9).
        """
        sensor = tdc or TDCSensor()
        ciphertexts, voltages = self.campaign_inputs(num_traces)
        if bit is None:
            leakage = sensor.sample_scalar(
                voltages, seed=derive_seed(self.seed, "tdc")
            ).astype(np.float64)
        else:
            leakage = sensor.single_bit(
                voltages, bit=bit, seed=derive_seed(self.seed, "tdc")
            ).astype(np.float64)
        return run_cpa(
            leakage,
            ciphertexts[:, target_byte],
            single_bit_hypothesis(BYTE_VALUES, bit=target_bit),
            checkpoints=checkpoints,
            correct_key=self.cipher.last_round_key[target_byte],
        )

    def attack_with_ro_counter(
        self,
        num_traces: int,
        ro_sensor: Optional[ROSensor] = None,
        target_byte: int = DEFAULT_TARGET_BYTE,
        target_bit: int = DEFAULT_TARGET_BIT,
        checkpoints: Optional[Sequence[int]] = None,
    ) -> CPAResult:
        """Baseline with the asynchronous RO-counter sensor (Fig. 1 left).

        The RO counter integrates over its whole counting window (1 us
        by default), so the 6.7 ns last-round sample that carries the
        secret is diluted by the window-to-sample ratio before the
        counter even quantizes it — the reason loop-based sensors are
        only suitable for "low speed power analysis attacks" (Sec. II)
        and the paper measures against a TDC instead.
        """
        sensor = ro_sensor or ROSensor()
        ciphertexts, voltages = self.campaign_inputs(num_traces)
        # Window-average dilution: the informative sample occupies one
        # sensor sample period of the counting window.
        sample_period_s = 1.0 / 150e6
        dilution = min(1.0, sample_period_s / sensor.window_s)
        averaged = (
            self.leakage.v_idle
            + (voltages - self.leakage.v_idle) * dilution
        )
        leakage = sensor.sample_scalar(
            averaged, seed=derive_seed(self.seed, "ro-counter")
        ).astype(np.float64)
        return run_cpa(
            leakage,
            ciphertexts[:, target_byte],
            single_bit_hypothesis(BYTE_VALUES, bit=target_bit),
            checkpoints=checkpoints,
            correct_key=self.cipher.last_round_key[target_byte],
        )
