"""Tests for the batch experiment runner and report rendering."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, runner
from repro.experiments.runner import (
    FigureRecord,
    render_report,
    run_all_figures,
)


class TestRunAllFigures:
    @pytest.fixture(scope="class")
    def records(self):
        # Preliminary figures only: fast and deterministic.
        return run_all_figures(
            ExperimentConfig(num_traces=5000), include_cpa=False
        )

    def test_covers_preliminary_figures(self, records):
        figures = {record.figure for record in records}
        assert figures == {
            "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
            "fig14", "fig15", "fig16",
        }

    def test_all_preliminary_ok(self, records):
        failures = [r.figure for r in records if not r.ok]
        assert failures == []

    def test_records_sorted(self, records):
        figures = [record.figure for record in records]
        assert figures == sorted(figures)

    def test_measured_strings_populated(self, records):
        assert all(record.measured for record in records)


class TestVarianceVerdict:
    """Figs. 8/16 are OK only when the variance picks are sensitive
    endpoints and the RO-driven variance sits on sensitive endpoints."""

    @staticmethod
    def verdict(monkeypatch, figure, best_bit, variance_ro):
        variance = {
            "sensitive_mask": np.array([True, True, False, False]),
            "variance_ro": np.asarray(variance_ro, dtype=float),
            "best_bit": best_bit,
            "second_bit": 1,
        }
        monkeypatch.setattr(
            runner, "fig08_16_variance", lambda setup, circuit: variance
        )
        return runner._PRELIMINARY_FIGURES[figure](None).ok

    @pytest.mark.parametrize("figure", ["fig08", "fig16"])
    def test_sensitive_picks_carrying_variance_pass(
        self, monkeypatch, figure
    ):
        assert self.verdict(monkeypatch, figure, 0, [5.0, 3.0, 0.01, 0.0])

    @pytest.mark.parametrize("figure", ["fig08", "fig16"])
    def test_insensitive_best_bit_fails(self, monkeypatch, figure):
        assert not self.verdict(monkeypatch, figure, 2, [5.0, 3.0, 0.0, 0.0])

    @pytest.mark.parametrize("figure", ["fig08", "fig16"])
    def test_variance_off_the_sensitive_set_fails(self, monkeypatch, figure):
        assert not self.verdict(monkeypatch, figure, 0, [5.0, 3.0, 1.0, 0.0])


class TestRenderReport:
    def test_markdown_table(self):
        records = [
            FigureRecord("fig07", "paper says X", "we measured Y", True),
            FigureRecord("fig10", "paper says Z", "we failed", False),
        ]
        text = render_report(records)
        assert "| fig07 |" in text
        assert "| yes |" in text
        assert "| NO |" in text
        assert "1 of 2 figures" in text


class TestFigurePlan:
    def test_plan_matches_run_order(self):
        from repro.experiments.runner import figure_plan

        plan = figure_plan(include_cpa=False)
        assert [figure for figure, _ in plan] == sorted(
            figure for figure, _ in plan
        )
        assert all(callable(thunk) for _, thunk in plan)

    def test_cpa_figures_gated(self):
        from repro.experiments.runner import figure_plan

        fast = {figure for figure, _ in figure_plan(include_cpa=False)}
        full = {figure for figure, _ in figure_plan(include_cpa=True)}
        assert fast < full
        assert {"fig09", "fig10"} <= full - fast


class TestReportCheckpoint:
    @pytest.fixture(scope="class")
    def checkpointed(self, tmp_path_factory):
        path = str(
            tmp_path_factory.mktemp("report") / "report-checkpoint.json"
        )
        config = ExperimentConfig(num_traces=5000)
        records = run_all_figures(
            config, include_cpa=False, checkpoint_path=path
        )
        return config, path, records

    def test_checkpoint_records_every_figure(self, checkpointed):
        import json

        _, path, records = checkpointed
        with open(path) as handle:
            payload = json.load(handle)
        assert set(payload["records"]) == {
            record.figure for record in records
        }

    def test_resume_skips_recorded_figures(self, checkpointed):
        import json

        config, path, records = checkpointed
        # Drop one figure from the checkpoint; a resumed run must
        # recompute exactly that figure and reproduce the rest.
        with open(path) as handle:
            payload = json.load(handle)
        del payload["records"]["fig07"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        resumed = run_all_figures(
            config, include_cpa=False, checkpoint_path=path, resume=True
        )
        assert [
            (r.figure, r.paper, r.measured, r.ok) for r in resumed
        ] == [
            (r.figure, r.paper, r.measured, r.ok) for r in records
        ]

    def test_resume_rejects_config_change(self, checkpointed):
        from repro.experiments.checkpoint import CheckpointError

        _, path, _ = checkpointed
        with pytest.raises(CheckpointError, match="config"):
            run_all_figures(
                ExperimentConfig(num_traces=6000),
                include_cpa=False,
                checkpoint_path=path,
                resume=True,
            )
