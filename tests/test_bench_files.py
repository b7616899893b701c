"""The committed benchmark results at the repository root match the benchmark's declaration,
and every name the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
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


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module", sorted(SPANS.TRACED))
def test_every_traced_function_exists(module):
    target = importlib.import_module(f"noveltycheck.{module}")
    missing = [name for name in SPANS.TRACED[module] if not callable(getattr(target, name, None))]
    assert missing == []


@pytest.mark.parametrize("module, cls", SPANS.PHASE_RESULTS, ids=lambda v: v)
def test_every_phase_result_keeps_its_artifact_wrappers(module, cls):
    result = getattr(importlib.import_module(f"noveltycheck.{module}"), cls)
    assert callable(getattr(result, "to_dict", None))
    assert callable(getattr(result, "from_dict", None))
