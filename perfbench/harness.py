"""Client injection and single-report execution for the benchmark.

``run_pipeline`` builds its own clients, so the benchmark replaces
``noveltycheck.pipeline.build_clients`` from here. The program's
``MockLlmClient`` / ``MockSearchClient`` stay underneath, built per report
from fixture dicts parsed once during set-up (a fresh mock per report keeps
``fail_times`` state and call logs per report). Injected latency and call
counters live in ``TimedLlm`` / ``TimedSearch``, decorators that implement
the program's ``LlmClient`` / ``SearchClient`` interfaces.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import noveltycheck.pipeline as pipeline
from noveltycheck.clients import (
    LlmClient,
    MockLlmClient,
    MockSearchClient,
    SearchClient,
    SearchHit,
)
from noveltycheck.pipeline import PipelineConfig, RunManifest
from noveltycheck.retrieval import RetryPolicy


@dataclass
class CallStats:
    """Per-report counters of one client, updated from worker threads."""

    calls: int = 0
    prompt_chars: int = 0
    wait_s: float = 0.0
    errors: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, wait: float, chars: int, error: bool) -> None:
        with self._lock:
            self.calls += 1
            self.prompt_chars += chars
            self.wait_s += wait
            self.errors += int(error)


class _Timed:
    """Shared body of the client decorators: latency, span, counters."""

    def __init__(self, inner, latency: float, tracer=None) -> None:
        self.inner, self.latency, self.tracer = inner, latency, tracer
        self.stats = CallStats()

    def _call(self, span_name: str, chars: int, fn, *args):
        span = self.tracer.span(span_name) if self.tracer else nullcontext()
        start = time.perf_counter()
        failed = True
        try:
            with span:
                if self.latency:
                    time.sleep(self.latency)
                result = fn(*args)
            failed = False
            return result
        finally:
            self.stats.add(time.perf_counter() - start, chars, failed)


class TimedLlm(_Timed, LlmClient):
    """Adds a fixed round-trip latency and counts calls, prompt size and wait."""

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        return self._call(
            "clients.llm", len(system_prompt) + len(user_prompt),
            self.inner.complete, system_prompt, user_prompt, temperature,
        )


class TimedSearch(_Timed, SearchClient):
    """Adds a fixed round-trip latency and counts calls, wait and errors."""

    def search(self, query: str) -> list[SearchHit]:
        return self._call("clients.search", len(query), self.inner.search, query)


class ClientFactory:
    """Stands in for ``pipeline.build_clients`` once installed.

    Fixture dicts are keyed by resolved path and parsed at most once; the
    clients built for the latest report stay readable in ``last``.
    """

    def __init__(self) -> None:
        self.fixtures: dict[Path, dict] = {}
        self.llm_latency = 0.0
        self.search_latency = 0.0
        self.tracer = None
        self.last: Optional[tuple[TimedLlm, TimedSearch]] = None

    def preload(self, *paths: Path) -> None:
        for path in paths:
            self._fixture(path)

    def _fixture(self, path) -> dict:
        key = Path(path).resolve()
        if key not in self.fixtures:
            with open(key, "r", encoding="utf-8") as fh:
                self.fixtures[key] = json.load(fh)
        return self.fixtures[key]

    def build_clients(self, cfg: PipelineConfig) -> tuple[LlmClient, SearchClient]:
        cfg.validate()
        if not cfg.mock:
            raise ValueError("the benchmark only runs mock configurations")
        llm = TimedLlm(MockLlmClient(self._fixture(cfg.llm_fixture)), self.llm_latency, self.tracer)
        search = TimedSearch(
            MockSearchClient(self._fixture(cfg.search_fixture)), self.search_latency, self.tracer
        )
        self.last = (llm, search)
        return llm, search

    def install(self) -> None:
        pipeline.build_clients = self.build_clients


def make_config(inputs: Path, out: Path, settings: dict, *, reference: bool = False) -> PipelineConfig:
    """The workload's pipeline settings; ``reference`` forces one worker."""
    concurrency = 1 if reference else settings["concurrency"]
    return PipelineConfig(
        output_dir=out,
        mock=True,
        llm_fixture=inputs / "llm.json",
        search_fixture=inputs / "search.json",
        retry=RetryPolicy(initial_delay=settings["initial_delay"], concurrency=concurrency),
        analysis_concurrency=concurrency,
        resume=settings["resume"] and not reference,
        fixed_timestamp=settings["timestamp"],
    )


@dataclass
class Report:
    """What one ``run_pipeline`` call cost and left behind."""

    wall_s: float
    cpu_s: float
    manifest: Optional[RunManifest]
    error: Optional[str]
    llm: Optional[CallStats] = None
    search: Optional[CallStats] = None


def run_report(paper_text: str, cfg: PipelineConfig, factory: Optional[ClientFactory]) -> Report:
    """Time one report; an exception escaping the program counts as a failed report."""
    manifest, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        # looked up on the module, so a traced run_pipeline is the one called
        manifest = pipeline.run_pipeline(paper_text, cfg)
    except Exception as exc:  # the report fails its checks; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    report = Report(wall, cpu, manifest, error)
    if factory is not None and factory.last is not None:
        report.llm, report.search = factory.last[0].stats, factory.last[1].stats
        factory.last = None
    return report


def report_markdown(out: Path) -> Optional[Path]:
    return next((p for p in sorted(out.iterdir()) if p.suffix == ".md"), None)


def fidelity_failures(root: Path, work: Path, factory: ClientFactory) -> list[str]:
    """Run the bundled fixtures through the installed wrappers; compare with goldens."""
    fixtures, goldens = root / "tests" / "fixtures", root / "tests" / "goldens"
    out = work / "fidelity"
    out.mkdir(parents=True, exist_ok=True)
    cfg = PipelineConfig(
        output_dir=out,
        mock=True,
        llm_fixture=fixtures / "mock_llm.json",
        search_fixture=fixtures / "mock_search.json",
        target_url="https://arxiv.org/abs/2504.01234",
        fixed_timestamp="2026-01-15T00:00:00+00:00",
    )
    saved = factory.llm_latency, factory.search_latency
    factory.llm_latency = factory.search_latency = 0.0
    try:
        report = run_report((fixtures / "target_paper.txt").read_text(encoding="utf-8"), cfg, factory)
    finally:
        factory.llm_latency, factory.search_latency = saved
    if report.error or not report.manifest.succeeded:
        return [f"fidelity run failed: {report.error or report.manifest.failure_log}"]
    failures = []
    md = report_markdown(out)
    for produced, golden in (
        (out / "phase2.json", goldens / "phase2.json"),
        (out / "phase3.json", goldens / "phase3.json"),
        (md, goldens / "report.md"),
    ):
        if produced is None or produced.read_bytes() != golden.read_bytes():
            failures.append(f"fidelity: {golden.name} differs from the golden bytes")
    return failures
