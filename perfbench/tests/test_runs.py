"""End-to-end runs of the benchmark command: result format, checks and fixtures.

Each run takes seconds (set-up is paper scale), so these tests drive
the real command with ``--seconds 1``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import FIXTURES, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert ("setup_s", "s", "lower", 0.25) in END_TO_END
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sim-figure2", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, *_ in END_TO_END]
    for name, unit, *_ in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{workload}  {name} = " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_splits_the_wall_time(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = {k: v["value"] for k, v in result_of(proc)["metrics"].items()}
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0
    assert metrics["channels.request_connection.calls"] > 0
    assert metrics["routing.primary_plan.calls"] > 0


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_known_bad_fixture_fails_the_run(fixture):
    proc = bench("--workload", FIXTURES[fixture], "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--fixture", fixture)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert result_of(proc)["correct"] is False
    assert "CHECK FAILED" in proc.stdout
