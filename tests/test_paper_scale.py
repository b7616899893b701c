"""Paper-scale outputs pinned by digest, at one and at four workers.

Inputs come from the seeded benchmark generator ``perfbench/workload.py``
(imported, not run). Each case runs the whole pipeline offline with the mock
clients, then compares the sha256 of ``phase1/2/3.json`` and of the
Markdown report with ``tests/goldens/paper_scale.json``. The digest of the
generated inputs is pinned too, so a generator change is reported as such
rather than as a change in the program's output. So is the digest of the
model requests, since the mock replies match on substrings and would not
notice a prompt that drifts by a byte. Each case also makes as
many model calls per prompt at four workers as at one, so no call started
early is discarded or made twice, and verifies quotes at either worker
count.

A failing case prints the digests it computed, for refreshing the golden
file after an intended change.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import json
from pathlib import Path

import orjson
import pytest

from noveltycheck import pipeline, verification
from noveltycheck.pipeline import PipelineConfig, run_pipeline
from noveltycheck.prompts import TEMPERATURES, load_prompt
from noveltycheck.retrieval import RetryPolicy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "goldens" / "paper_scale.json"
CASES = [("fulltext_verify", 1), ("abstract_wait", 1), ("abstract_wait", 2)]
WORKERS = (1, 4)
ARTIFACTS = ("phase1.json", "phase2.json", "phase3.json")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workload", ROOT / "perfbench" / "workload.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def generator():
    return _load_generator()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _write_inputs(generator, workload: str, seed: int, inputs: Path) -> tuple[str, dict]:
    """Write the generated inputs as the generator's CLI does; return their digest."""
    generator.write(workload, seed, inputs)
    digest = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    settings = json.loads((inputs / "settings.json").read_text(encoding="utf-8"))
    return digest.hexdigest(), settings


def _requests_digest(calls: list[dict]) -> str:
    """sha256 over the sorted sha256s of each (system, user, temperature) request."""
    each = sorted(
        _sha256(json.dumps([c["system"], c["user"], c["temperature"]]).encode()) for c in calls
    )
    return _sha256("\n".join(each).encode())


def _run(inputs: Path, out: Path, settings: dict, workers: int) -> dict[str, str]:
    cfg = PipelineConfig(
        output_dir=out,
        mock=True,
        llm_fixture=inputs / "llm.json",
        search_fixture=inputs / "search.json",
        retry=RetryPolicy(initial_delay=settings["initial_delay"], concurrency=workers),
        analysis_concurrency=workers,
        fixed_timestamp=settings["timestamp"],
    )
    manifest = run_pipeline((inputs / "paper.txt").read_text(encoding="utf-8"), cfg)
    assert manifest.succeeded, manifest.failure_log
    for name in (*ARTIFACTS, "manifest.json"):  # a resume reads them with orjson
        path = out / name
        fast, plain = orjson.loads(path.read_bytes()), json.loads(path.read_text(encoding="utf-8"))
        assert json.dumps(fast) == json.dumps(plain), name
    digests = {name: _sha256((out / name).read_bytes()) for name in ARTIFACTS}
    reports = sorted(out.glob("*.md"))
    assert len(reports) == 1, reports
    digests["report.md"] = _sha256(reports[0].read_bytes())
    return digests


@pytest.mark.parametrize("workload,seed", CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_paper_scale_outputs_match_digests(
    generator, golden, tmp_path, monkeypatch, workload, seed
):
    key = f"{workload}-{seed}"
    inputs_digest, settings = _write_inputs(generator, workload, seed, tmp_path / "inputs")
    expected = golden[key]
    assert inputs_digest == expected["inputs"], (
        f"perfbench/workload.py generated different {key} inputs: the generator changed, "
        "not the program; refresh tests/goldens/paper_scale.json for the new inputs"
    )
    built = []
    build_clients = pipeline.build_clients

    def recording_build_clients(cfg):
        built.append(build_clients(cfg))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_clients", recording_build_clients)
    checks = []
    verify = verification._verify

    def recording_verify(quote, doc, hits_only):
        checks.append(quote)
        return verify(quote, doc, hits_only)

    monkeypatch.setattr(verification, "_verify", recording_verify)
    prompt_names = {load_prompt(name): name for name in TEMPERATURES}
    calls_per_prompt = []
    for workers in WORKERS:
        checks.clear()
        digests = _run(tmp_path / "inputs", tmp_path / f"out{workers}", settings, workers)
        assert digests == expected["outputs"], (
            f"{key} outputs differ at {workers} workers: {json.dumps(digests, indent=2)}"
        )
        assert checks, f"{key} verified no quotes at {workers} workers"
        llm = built[-1][0]
        assert _requests_digest(llm.calls) == expected["requests"], (
            f"{key} model requests differ at {workers} workers: {_requests_digest(llm.calls)}"
        )
        calls_per_prompt.append(collections.Counter(prompt_names[c["system"]] for c in llm.calls))
    assert calls_per_prompt[1] == calls_per_prompt[0], (
        f"{key} model calls per prompt differ between {WORKERS[0]} and {WORKERS[1]} workers"
    )
