"""Self-tests of the benchmark: ``pytest bench -q``.

The smoke runs start real child processes (campaign children, a
server and a worker) on small inputs; each takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DECLARATION = common.load_declaration()
END_TO_END = [entry["name"] for entry in DECLARATION["end_to_end"]]
PER_LAYER = [entry["name"] for entry in DECLARATION["per_layer"]]
WORKLOADS = [entry["name"] for entry in DECLARATION["workloads"]]


def _bench(*args: str, timeout: float = 170, cwd: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declaration_follows_its_schema():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARATION["command"] == ["python3", "bench/run.py"]
    assert DECLARATION["paths"] == ["bench"]
    assert WORKLOADS == run.WORKLOADS
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert all(NAME.match(name) for name in names)
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END) + len(PER_LAYER)
    bounds = {entry["name"]: entry["bound"] for entry in DECLARATION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(e for e in DECLARATION["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_every_layer_metric_names_what_it_moves():
    for name in PER_LAYER:
        if name in spans.BOOKKEEPING:
            continue
        layer = name.rsplit(".", 1)[0]
        if name.endswith((".self_s", ".calls")) and layer in spans.MOVES:
            metric, workloads = spans.MOVES[layer]
        else:
            metric, workloads = spans.MOVES[name]
        assert metric in END_TO_END, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def test_smoke_run_emits_every_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    began = time.monotonic()
    done = _bench("--smoke", "--seed", "1", "--out", str(out))
    elapsed = time.monotonic() - began
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 60, elapsed
    summary = _last_json(done.stdout)
    assert summary["correct"] and summary["failed"] == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == WORKLOADS
    for name, result in record["workloads"].items():
        assert result["correct"], name
        assert list(result["metrics"]) == END_TO_END, name
        assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_traced_smoke_ledger_adds_up(tmp_path):
    out = tmp_path / "trace.json"
    done = _bench("--smoke", "--trace", "1", "--seconds", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    record = json.loads(out.read_text())
    for name, result in record["workloads"].items():
        metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
        assert list(metrics) == PER_LAYER, name
        attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        attributed += metrics["driver.wait_s"] + metrics["unattributed_s"]
        assert metrics["busy_s"] > 0, name
        assert abs(attributed - metrics["busy_s"]) <= 0.05 * metrics["busy_s"], name


def test_forced_digest_mismatch_fails_the_run():
    done = _bench("--smoke", "--workload", "attack-analytic", "--force-mismatch")
    assert done.returncode != 0
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "attack-analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.parametrize(
    "base, head, expected",
    [
        ([100, 101, 99], [100, 100.5, 99.5], "unchanged"),
        ([100, 101, 99], [80, 81, 79], "regressed"),
        ([100, 101, 99], [120, 121, 119], "improved"),
        ([100, 150, 60], [100, 101, 99], "unresolved"),
        ([100, 150, 60], [200, 210, 220], "improved"),
    ],
)
def test_compare_verdicts(base, head, expected):
    status, _change = compare.verdict(base, head, bound=0.10, higher=True)
    assert status == expected
