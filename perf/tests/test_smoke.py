"""Smoke run of the benchmark over all four workloads at ``--scale smoke``.

Outside tier-1's ``tests/`` path; run explicitly::

    python -m pytest perf/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(out: Path, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--scale", "smoke", "--seconds", "1",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc, json.loads((out / "result.json").read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc, result = _run(out, 1)
    return proc, result, json.loads((out / "trace.json").read_text())


def _check_lines(proc, specs):
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
            spec["name"]: spec["unit"] for spec in specs
        }
    return lines


def test_untraced_reports_every_end_to_end_metric(untraced):
    proc, result = untraced
    for line in _check_lines(proc, BENCHMARK["end_to_end"]):
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    meta = result["meta"]
    for key in ("python", "numpy", "scipy", "nproc", "git", "seed", "scale", "seconds"):
        assert key in meta
    assert list(result["workloads"]) == WORKLOADS
    for record in result["workloads"].values():
        assert record["correct"] and not record["mismatches"]
        assert len(record["outputs_digest"]) == 64
        assert len(record["load_before"]) == len(record["load_after"]) == 3
    assert "gen_late_ms" in result["workloads"]["serve"]["details"]["nominal"]


def test_traced_pass_nests_spans_and_replays_exactly(traced):
    proc, result, trace = traced
    _check_lines(proc, BENCHMARK["per_layer"])
    for name in WORKLOADS:
        assert result["workloads"][name]["mismatches"] == []
        spans = trace["workloads"][name]["spans"]
        assert trace["workloads"][name]["nesting_errors"] == []
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            parent = by_id.get(span["parent"])
            if parent is not None:
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        names = {span["name"] for span in spans}
        assert {"fit", "stage.pair_train", "replay.pair_train", "detect", "replay.detect"} <= names


def test_compare_same_results_is_unchanged_and_flags_a_regression(untraced, tmp_path):
    result = json.loads(json.dumps(untraced[1]))
    for record in result["workloads"].values():
        for entry in record["metrics"].values():
            entry["spread"] = 0.0
    old = tmp_path / "old.json"
    old.write_text(json.dumps(result))
    same = subprocess.run(
        [sys.executable, "-m", "perf.compare", str(old), str(old)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "unresolved" not in same.stdout
    for record in result["workloads"].values():
        record["metrics"]["fit_s"]["value"] *= 2
    new = tmp_path / "new.json"
    new.write_text(json.dumps(result))
    worse = subprocess.run(
        [sys.executable, "-m", "perf.compare", str(old), str(new)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert worse.returncode == 1 and "worse" in worse.stdout


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
