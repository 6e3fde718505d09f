"""Batch experiment runner and markdown report generation.

``run_all_figures`` executes every evaluation figure at a chosen trace
budget and returns structured records; ``render_report`` turns them
into the paper-vs-measured markdown table used in EXPERIMENTS.md and by
the ``repro report`` CLI command.

Execution is figure-granular: each figure is an independent
``(figure_id, thunk)`` pair, so a ``checkpoint_path`` can make the
multi-hour report crash-safe — after every completed figure the
records-so-far are written atomically to a JSON checkpoint stamped with
a configuration hash, and ``resume=True`` skips figures that are
already recorded (rejecting a checkpoint produced under a different
configuration).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.preprocess.spec import MisalignmentSpec, PreprocessSpec

from repro.experiments.checkpoint import CheckpointError
from repro.experiments.config import PAPER_EXPECTED, ExperimentConfig
from repro.experiments.cpa_experiments import CPA_FIGURES
from repro.experiments.preliminary import (
    fig03_04_floorplan,
    fig05_raw_toggle,
    fig06_tdc_vs_benign,
    fig07_15_census,
    fig08_16_variance,
)
from repro.experiments.report import describe_mtd
from repro.experiments.setup import ExperimentSetup
from repro.util.fileio import atomic_write

#: Bumped whenever the report-checkpoint layout changes incompatibly.
REPORT_CHECKPOINT_VERSION = 1


@dataclass
class FigureRecord:
    """One figure's outcome in report form.

    Attributes:
        figure: figure id (``"fig07"``...).
        paper: what the paper reports.
        measured: one-line summary of our measurement.
        ok: whether the qualitative result matched.
    """

    figure: str
    paper: str
    measured: str
    ok: bool


def _fig03(setup: ExperimentSetup) -> FigureRecord:
    floorplan = fig03_04_floorplan(setup, "alu")
    return FigureRecord(
        "fig03",
        PAPER_EXPECTED["fig03"],
        "%d sensitive endpoint sites scattered over the region"
        % floorplan["sensitive_sites"],
        floorplan["sensitive_sites"] > 20,
    )


def _fig04(setup: ExperimentSetup) -> FigureRecord:
    floorplan = fig03_04_floorplan(setup, "c6288x2")
    return FigureRecord(
        "fig04",
        PAPER_EXPECTED["fig04"],
        "%d sensitive endpoint sites (2 instances)"
        % floorplan["sensitive_sites"],
        floorplan["sensitive_sites"] > 10,
    )


def _fig05(setup: ExperimentSetup) -> FigureRecord:
    raw = fig05_raw_toggle(setup, "alu")
    return FigureRecord(
        "fig05",
        PAPER_EXPECTED["fig05"],
        "%d of 192 endpoints toggling after RO enable (%d before)"
        % (raw["toggling_after_enable"], raw["toggling_before_enable"]),
        raw["toggling_after_enable"] > raw["toggling_before_enable"],
    )


def _fig06(setup: ExperimentSetup) -> FigureRecord:
    comparison = fig06_tdc_vs_benign(setup, "alu")
    return FigureRecord(
        "fig06",
        PAPER_EXPECTED["fig06"],
        "TDC %.0f -> %.0f droop, overshoot %.0f; sensor corr %.2f"
        % (
            comparison["tdc_idle"],
            comparison["tdc_droop_min"],
            comparison["tdc_overshoot_max"],
            comparison["correlation"],
        ),
        comparison["correlation"] > 0.7,
    )


def _fig07(setup: ExperimentSetup) -> FigureRecord:
    census = fig07_15_census(setup, "alu")
    return FigureRecord(
        "fig07",
        PAPER_EXPECTED["fig07"],
        "%(ro_sensitive)d RO / %(aes_sensitive)d AES "
        "(%(aes_subset_of_ro)d subset) / %(unaffected)d silent"
        % census,
        65 <= census["ro_sensitive"] <= 95,
    )


def _fig08(setup: ExperimentSetup) -> FigureRecord:
    variance = fig08_16_variance(setup, "alu")
    return FigureRecord(
        "fig08",
        PAPER_EXPECTED["fig08"],
        "best endpoints of this run: %d, %d"
        % (variance["best_bit"], variance["second_bit"]),
        True,
    )


def _fig14(setup: ExperimentSetup) -> FigureRecord:
    raw = fig05_raw_toggle(setup, "c6288x2")
    return FigureRecord(
        "fig14",
        PAPER_EXPECTED["fig14"],
        "%d of 64 endpoints toggling after RO enable"
        % raw["toggling_after_enable"],
        raw["toggling_after_enable"] >= 35,
    )


def _fig15(setup: ExperimentSetup) -> FigureRecord:
    census = fig07_15_census(setup, "c6288x2")
    return FigureRecord(
        "fig15",
        PAPER_EXPECTED["fig15"],
        "%(ro_sensitive)d RO / %(aes_sensitive)d AES "
        "(%(aes_subset_of_ro)d subset) / %(unaffected)d silent"
        % census,
        40 <= census["ro_sensitive"] <= 58,
    )


def _fig16(setup: ExperimentSetup) -> FigureRecord:
    variance = fig08_16_variance(setup, "c6288x2")
    return FigureRecord(
        "fig16",
        PAPER_EXPECTED["fig16"],
        "best endpoint of this run: %d" % variance["best_bit"],
        True,
    )


_PRELIMINARY_FIGURES: Dict[
    str, Callable[[ExperimentSetup], FigureRecord]
] = {
    "fig03": _fig03,
    "fig04": _fig04,
    "fig05": _fig05,
    "fig06": _fig06,
    "fig07": _fig07,
    "fig08": _fig08,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
}


def _cpa_figure_thunk(
    figure: str,
) -> Callable[[ExperimentSetup], FigureRecord]:
    def run(setup: ExperimentSetup) -> FigureRecord:
        outcome = CPA_FIGURES[figure](setup)
        measured = "%s%s" % (
            describe_mtd(outcome.mtd),
            ""
            if outcome.sensor_bit is None
            else " (endpoint %d)" % outcome.sensor_bit,
        )
        return FigureRecord(
            figure, PAPER_EXPECTED[figure], measured, outcome.disclosed
        )

    return run


def _acquisition_figure_thunk(
    jitter: Optional["MisalignmentSpec"],
    preprocess: Optional["PreprocessSpec"],
) -> Callable[[ExperimentSetup], FigureRecord]:
    """The acquisition-realism figure: jitter -> align -> CPA.

    Runs the end-to-end physical campaign twice at the requested
    misalignment severity — once raw, once through the preprocessing
    chain — and reports whether preprocessing restores key recovery.
    """

    def run(setup: ExperimentSetup) -> FigureRecord:
        from repro.attacks.full_key import (  # noqa: PLC0415
            column_of_key_byte,
        )
        from repro.core.tracegen import (  # noqa: PLC0415
            PhysicalTraceGenerator,
        )
        from repro.experiments.parallel import (  # noqa: PLC0415
            sharded_physical_attack,
        )
        from repro.preprocess.pipeline import (  # noqa: PLC0415
            resolve_preprocess,
        )
        from repro.util.rng import derive_seed  # noqa: PLC0415

        # Tail margin around the encryption window so trigger shifts
        # displace content instead of clipping it at the trace edge.
        generator = PhysicalTraceGenerator(
            setup.cipher,
            start_sample=12,
            num_samples=88,
            misalignment=jitter,
        )
        sensor = setup.campaign("alu").sensor
        seed = derive_seed(setup.config.seed, "acquisition-figure")
        traces = min(int(setup.config.num_traces), 40_000)
        column = column_of_key_byte(setup.config.target_byte)
        resolved = resolve_preprocess(
            preprocess,
            generator,
            seed,
            columns=(column,),
            target_byte=setup.config.target_byte,
        )
        raw = sharded_physical_attack(
            generator,
            sensor,
            traces,
            target_byte=setup.config.target_byte,
            max_workers=setup.config.max_workers,
            seed=seed,
        )
        processed = (
            raw
            if resolved is None
            else sharded_physical_attack(
                generator,
                sensor,
                traces,
                target_byte=setup.config.target_byte,
                max_workers=setup.config.max_workers,
                seed=seed,
                preprocess=resolved,
            )
        )
        jitter_label = "none" if jitter is None else jitter.to_string()
        pre_label = (
            "none" if preprocess is None else preprocess.to_string()
        )
        return FigureRecord(
            "acq01",
            "realistic acquisition: preprocessing restores the CPA "
            "leakage that trigger misalignment destroys",
            "jitter=%s: raw rank %d, preprocess=%s rank %d at %d traces"
            % (
                jitter_label,
                raw.key_ranks()[-1],
                pre_label,
                processed.key_ranks()[-1],
                traces,
            ),
            processed.key_ranks()[-1] == 0,
        )

    return run


def figure_plan(
    include_cpa: bool = True,
    jitter: Optional["MisalignmentSpec"] = None,
    preprocess: Optional["PreprocessSpec"] = None,
) -> List[Tuple[str, Callable[[ExperimentSetup], FigureRecord]]]:
    """Every figure as an independent ``(figure_id, thunk)`` pair.

    The plan order is deterministic (figure id); each thunk is a pure
    function of the (cached) :class:`ExperimentSetup`, which is what
    makes figure-granular checkpoint/resume sound.  Passing a jitter
    and/or preprocess spec appends the acquisition-realism figure
    (``acq01``); without them the plan is unchanged.
    """
    plan = dict(_PRELIMINARY_FIGURES)
    if include_cpa:
        for figure in CPA_FIGURES:
            plan[figure] = _cpa_figure_thunk(figure)
    if jitter is not None or preprocess is not None:
        plan["acq01"] = _acquisition_figure_thunk(jitter, preprocess)
    return sorted(plan.items())


def _report_config_hash(
    config: ExperimentConfig,
    figures: List[str],
    jitter: Optional["MisalignmentSpec"] = None,
    preprocess: Optional["PreprocessSpec"] = None,
) -> str:
    """Fingerprint of everything that determines the report's records."""
    payload_config = {
        "seed": config.seed,
        "key": config.key.hex(),
        "num_traces": config.num_traces,
        "characterization_samples": (
            config.characterization_samples
        ),
        "target_byte": config.target_byte,
        "target_bit": config.target_bit,
        "overclock_mhz": config.overclock_mhz,
    }
    # Only present when set, so acquisition-free reports keep their
    # pre-existing hashes (and stay resumable across this change).
    if jitter is not None:
        payload_config["jitter"] = jitter.to_string()
    if preprocess is not None:
        payload_config["preprocess"] = preprocess.to_string()
    payload = json.dumps(
        {
            "version": REPORT_CHECKPOINT_VERSION,
            "config": payload_config,
            "figures": figures,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_report_checkpoint(
    path: str, config_hash: str
) -> Dict[str, FigureRecord]:
    """Completed records from a report checkpoint, or an error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        version = int(data["version"])
        if version != REPORT_CHECKPOINT_VERSION:
            raise CheckpointError(
                path,
                "version %d not supported (expected %d)"
                % (version, REPORT_CHECKPOINT_VERSION),
            )
        stored_hash = data["config_hash"]
        records = {
            figure: FigureRecord(
                figure=figure,
                paper=str(record["paper"]),
                measured=str(record["measured"]),
                ok=bool(record["ok"]),
            )
            for figure, record in data["records"].items()
        }
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            path, "unreadable or corrupt (%s)" % exc
        ) from exc
    if stored_hash != config_hash:
        raise CheckpointError(
            path,
            "configuration hash mismatch — refusing to resume a "
            "different report run",
        )
    return records


def _save_report_checkpoint(
    path: str, config_hash: str, records: Dict[str, FigureRecord]
) -> None:
    payload = json.dumps(
        {
            "version": REPORT_CHECKPOINT_VERSION,
            "config_hash": config_hash,
            "records": {
                figure: {
                    "paper": record.paper,
                    "measured": record.measured,
                    "ok": record.ok,
                }
                for figure, record in sorted(records.items())
            },
        },
        sort_keys=True,
        indent=2,
    )
    atomic_write(
        path, lambda handle: handle.write(payload.encode("utf-8"))
    )


def run_all_figures(
    config: Optional[ExperimentConfig] = None,
    include_cpa: bool = True,
    jitter: Optional["MisalignmentSpec"] = None,
    preprocess: Optional["PreprocessSpec"] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> List[FigureRecord]:
    """Run every evaluation figure and collect report records.

    Args:
        config: experiment configuration (paper scale by default).
        include_cpa: skip the expensive CPA campaigns when False.
        jitter: acquisition misalignment spec; with ``preprocess``,
            adds the acquisition-realism figure (``acq01``).
        preprocess: preprocessing spec for the acquisition figure.
        checkpoint_path: write a JSON checkpoint of the records here
            (atomically) after every completed figure.
        resume: skip figures already recorded in ``checkpoint_path``;
            the stored configuration hash must match this run's.
    """
    config = config or ExperimentConfig()
    setup = ExperimentSetup(config)
    plan = figure_plan(include_cpa, jitter=jitter, preprocess=preprocess)
    config_hash = _report_config_hash(
        config,
        [figure for figure, _ in plan],
        jitter=jitter,
        preprocess=preprocess,
    )
    records: Dict[str, FigureRecord] = {}
    if (
        resume
        and checkpoint_path is not None
        and os.path.exists(checkpoint_path)
    ):
        records = _load_report_checkpoint(checkpoint_path, config_hash)
    for figure, thunk in plan:
        if figure in records:
            continue
        records[figure] = thunk(setup)
        if checkpoint_path is not None:
            _save_report_checkpoint(checkpoint_path, config_hash, records)
    return [record for _, record in sorted(records.items())]


def render_report(records: List[FigureRecord]) -> str:
    """Render records as a markdown paper-vs-measured table."""
    lines = [
        "| Figure | Paper | Measured | OK |",
        "|---|---|---|---|",
    ]
    for record in records:
        lines.append(
            "| %s | %s | %s | %s |"
            % (
                record.figure,
                record.paper,
                record.measured,
                "yes" if record.ok else "NO",
            )
        )
    passed = sum(record.ok for record in records)
    lines.append("")
    lines.append(
        "%d of %d figures reproduce the paper's qualitative result."
        % (passed, len(records))
    )
    return "\n".join(lines)
