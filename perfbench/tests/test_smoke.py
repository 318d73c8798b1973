"""Smoke test of the benchmark itself, on tiny corpora.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Each case copies the benchmark and the library sources into a temporary
checkout and runs ``perfbench/run.py`` there, as the benchmark is run
from a fresh checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "perfbench"))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from spans import LAYER_METRICS, LAYERS  # noqa: E402

TIMEOUT = 120


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("checkout")
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(REPO / "perfbench", root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, capture_output=True, text=True, timeout=TIMEOUT
    )


def run_tiny(root: Path, workload: str, trace: int, seconds: str = "0.3") -> dict:
    proc = bench(root, "--workload", workload, "--seed", "5", "--seconds", seconds, "--trace", str(trace),
                 "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_with_unit_and_no_errors(checkout, workload):
    result = run_tiny(checkout, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], float)
    assert metrics["success_rate"]["value"] == 1.0  # error rate 0


def _record(root: Path, workload: str, seed: int) -> dict:
    return json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())


def test_results_repeat_for_a_seed(checkout):
    first = run_tiny(checkout, "search-sp", 0)["metrics"]
    record_one = _record(checkout, "search-sp", 5)
    second = run_tiny(checkout, "search-sp", 0)["metrics"]
    record_two = _record(checkout, "search-sp", 5)
    for name in ("map_medium", "map_hard", "index_bytes_per_image"):
        assert first[name] == second[name]
    assert record_one["sha256"] == record_two["sha256"]
    assert set(record_one["sha256"]) == {"ref_index", "ref_rankings", "run_index", "run_rankings"}


def test_quality_numbers_do_not_depend_on_the_seed(checkout):
    """They come from the reference corpus; the run's corpus follows the seed."""
    records = []
    for seed in ("5", "6"):
        proc = bench(checkout, "--workload", "search-sp", "--seed", seed, "--seconds", "0", "--trace", "0",
                     "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        records.append(_record(checkout, "search-sp", int(seed)))
    one, two = records
    for name in ("map_medium", "map_hard"):
        assert one["end_to_end"][name] == two["end_to_end"][name]
    assert one["index_bytes_per_image"]["ref"] == two["index_bytes_per_image"]["ref"]
    assert one["sha256"]["ref_index"] == two["sha256"]["ref_index"]
    assert one["sha256"]["ref_rankings"] == two["sha256"]["ref_rankings"]
    assert one["sha256"]["run_index"] != two["sha256"]["run_index"]


def test_traced_run_reports_every_layer(checkout):
    seen: set[str] = set()
    for workload in WORKLOAD_NAMES:
        # With no time budget the loop ends once each traced kind of
        # operation has also run untraced, as in a run with few operations.
        result = run_tiny(checkout, workload, 1, seconds="0")
        assert result["failed"] == 0
        assert set(LAYER_METRICS) <= set(result["metrics"])
        assert result["metrics"]["trace.missing_wrappers"]["value"] == 0
        spans = (checkout / ".bench_out" / f"{workload}-seed5-trace1.spans.jsonl").read_text().splitlines()
        layers = {json.loads(line)["name"].split(".", 1)[0] for line in spans}
        if workload == "search-sp":
            assert layers == set(LAYERS)
        seen |= layers
    assert seen == set(LAYERS)


def test_benchmark_json_matches_the_metrics(checkout):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (unit, _, _) in LAYER_METRICS.items():
        assert per_layer.pop(name) == unit
    assert set(per_layer) == {"trace.overhead_pct", "trace.missing_wrappers"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
