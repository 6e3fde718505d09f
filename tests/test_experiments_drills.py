"""Tiny-size runs of the correctness drills.

CI runs the drills at full size and gates on their ratios; here they
run small enough for the unit suite, so a broken identity gate or a
renamed record field fails before CI does.  The chaos drill's tiny run
is ``tests/test_service_recovery.py::TestSubprocessChaosDrill``.
"""

import json

from repro.experiments.drills import preprocess_drill, scaling_drill
from repro.util.executors import usable_cpu_count


class TestPreprocessDrill:
    def test_identity_gates_and_record(self):
        record = preprocess_drill(
            traces=2000, align_traces=256, severities=(0, 2), repeats=1,
            max_workers=2, seed=5,
        )
        assert record["identity"] == {
            "disabled_spec_bit_identical": True,
            "workers_1_vs_2_bit_identical": True,
        }
        assert record["alignment"]["traces"] == 256
        assert record["alignment"]["traces_per_s"] > 0
        assert [e["severity"] for e in record["severity_sweep"]] == [0, 2]
        for entry in record["severity_sweep"]:
            assert entry["raw_recovered"] == (entry["raw_rank"] == 0)
            assert entry["aligned_recovered"] == (entry["aligned_rank"] == 0)
        assert "recovery_frontier" in record
        json.dumps(record)


class TestScalingDrill:
    def test_identity_gates_and_record(self):
        record = scaling_drill(
            local_traces=2000, fleet_traces=4000, repeats=1, seed=3
        )
        assert record["usable_cpus"] == usable_cpu_count()
        for half in ("local", "fleet"):
            entry = record[half]
            assert entry["identical_correlations"] is True
            assert entry["speedup"] == (
                entry["workers_1_s"] / entry["workers_2_s"]
            )
        json.dumps(record)
