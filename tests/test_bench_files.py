"""The committed benchmark results at the repository root match the benchmark's declaration."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_result_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_reports_a_declared_workload_correctly(path):
    workload = path.stem.removeprefix("BENCH_")
    assert workload in {w["name"] for w in DECLARED["workloads"]}
    result = json.loads(path.read_text(encoding="utf-8"))["result"]
    assert result["correct"] is True
    for metric in DECLARED["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert isinstance(entry["value"], (int, float)), metric["name"]
        assert entry["unit"] == metric["unit"], metric["name"]
