"""End-to-end pipeline driver with per-phase artifacts and resumability.

Each phase persists its output as a standalone JSON document before the
next phase starts, so a failed run can resume from the last good artifact
and every phase can be developed and inspected in isolation.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from . import __version__
from .analysis import CoreScopeCalls, NoveltyReport, run_analysis_phase, start_core_scope_calls
from .clients import (
    HttpLlmClient,
    HttpSearchClient,
    LlmClient,
    MockLlmClient,
    MockSearchClient,
    SearchClient,
)
from .codec import encode
from .errors import InvalidInputError, NoveltyCheckError, PhaseAbortError
from .extraction import Phase1Result, run_extraction_phase
from .papers import (
    PaperRecord,
    PublicationDate,
    canonical_id_of,
    infer_publication_date,
    preprocess_document,
)
from .render import RenderConfig, output_filename, render_markdown, render_pdf
from .retrieval import (
    DEFAULT_TOPK_CONTRIBUTION,
    DEFAULT_TOPK_CORE,
    CandidateSet,
    Phase2Result,
    QueryRunner,
    RetryPolicy,
    run_retrieval_phase,
)
from .scheduler import Scheduler

logger = logging.getLogger(__name__)

PHASES = ("phase1", "phase2", "phase3", "phase4")


@dataclass
class PipelineConfig:
    """Everything a run needs: clients, knobs, and output location."""

    output_dir: Path
    mock: bool = False
    llm_fixture: Optional[Path] = None
    search_fixture: Optional[Path] = None
    llm_endpoint: Optional[str] = None
    llm_model: str = "default"
    llm_api_key: Optional[str] = None
    search_endpoint: Optional[str] = None
    search_api_key: Optional[str] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    topk_core: int = DEFAULT_TOPK_CORE
    topk_contribution: int = DEFAULT_TOPK_CONTRIBUTION
    analysis_concurrency: int = 1
    resume: bool = False
    fixed_timestamp: Optional[str] = None
    target_title: Optional[str] = None
    target_url: Optional[str] = None
    emit_pdf: bool = False
    quote_truncation_limit: int = 90
    # the backoff wait between search attempts, made off the search lane's workers;
    # by default one that a failed run cuts short
    sleep: Optional[Callable[[float], object]] = None

    def validate(self) -> None:
        for name in ("analysis_concurrency", "topk_core", "topk_contribution"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be at least 1")
        RenderConfig(quote_truncation_limit=self.quote_truncation_limit)
        if self.mock:
            if not self.llm_fixture or not self.search_fixture:
                raise InvalidInputError("mock mode requires fixture paths for both clients")
        else:
            if not self.llm_endpoint or not self.search_endpoint:
                raise InvalidInputError("non-mock mode requires llm and search endpoints")


def build_clients(cfg: PipelineConfig) -> tuple[LlmClient, SearchClient]:
    cfg.validate()
    if cfg.mock:
        return (
            MockLlmClient.from_file(cfg.llm_fixture),
            MockSearchClient.from_file(cfg.search_fixture),
        )
    return (
        HttpLlmClient(cfg.llm_endpoint, cfg.llm_model, cfg.llm_api_key),
        HttpSearchClient(cfg.search_endpoint, cfg.search_api_key),
    )


@dataclass
class PhaseStatus:
    status: str = "pending"  # pending, completed, skipped, failed
    artifact: Optional[str] = None
    started_at: Optional[str] = None
    finished_at: Optional[str] = None
    error: Optional[str] = None


@dataclass
class RunManifest:
    """Per-phase status, artifact paths, and the failure log for one run."""

    phases: dict[str, PhaseStatus] = field(
        default_factory=lambda: {name: PhaseStatus() for name in PHASES}
    )
    failure_log: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return all(
            self.phases[name].status in ("completed", "skipped") for name in PHASES
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` in one step, so a crashed write leaves the old bytes intact."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    _write_text(path, json.dumps(payload, indent=2, ensure_ascii=False, allow_nan=False) + "\n")


def _read_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


# --- front matter ------------------------------------------------------------------


def parse_front_matter(paper_text: str) -> tuple[str, str]:
    """Best-effort title and abstract from plain text: first line, abstract section."""
    lines = paper_text.splitlines()
    title = ""
    for line in lines:
        stripped = line.strip().lstrip("#").strip()
        if stripped:
            title = stripped
            break
    abstract_lines: list[str] = []
    collecting = False
    for line in lines:
        core = line.strip().lstrip("#").strip().rstrip(":.").lower()
        if not collecting and core == "abstract":
            collecting = True
            continue
        if collecting:
            stripped = line.strip()
            if stripped.startswith("#") or (abstract_lines and not stripped):
                break
            if stripped:
                abstract_lines.append(stripped)
    return title, " ".join(abstract_lines)


def build_target_record(paper_text: str, cfg: PipelineConfig) -> PaperRecord:
    """The target from its text and the knobs; its publication date is looked up on a lane."""
    title, abstract = parse_front_matter(paper_text)
    title = cfg.target_title or title or "Untitled target paper"
    return PaperRecord(
        canonical_id=canonical_id_of({"title": title}),
        title=title,
        abstract=abstract,
        url=cfg.target_url,
    )


# --- pipeline ----------------------------------------------------------------------


class _PhaseRunner:
    def __init__(self, manifest: RunManifest, manifest_path: Path, resumable: bool) -> None:
        self.manifest = manifest
        self.manifest_path = manifest_path
        self._reuse = resumable

    def persist(self) -> None:
        manifest = {**encode(self.manifest), "succeeded": self.manifest.succeeded}
        _write_json(self.manifest_path, manifest)

    def _fail(self, name: str, exc: Exception) -> None:
        status = self.manifest.phases[name]
        status.status = "failed"
        status.finished_at = _now()
        status.error = str(exc)
        self.manifest.failure_log.append(f"{name}: {exc}")
        self.persist()

    def run(self, name: str, artifact: Path, compute: Callable[[], Any], *, load: Callable[[], Any]):
        """Execute one phase, honoring resume and recording status transitions.

        The first phase that is computed rather than reused turns reuse off
        for every later phase, whose artifact may predate the new input.
        """
        status = self.manifest.phases[name]
        if self._reuse and artifact.exists():
            logger.info("%s: reusing existing artifact %s", name, artifact.name)
            status.status = "skipped"
            status.artifact = artifact.name
            self.persist()
            try:
                return load()
            except Exception as exc:
                abort = PhaseAbortError(name, f"cannot load {artifact.name}: {exc}")
                self._fail(name, abort)
                raise abort from exc
        self._reuse = False
        status.started_at = _now()
        self.persist()
        try:
            result = compute()
        except NoveltyCheckError as exc:
            self._fail(name, exc)
            raise
        except Exception as exc:
            logger.exception("%s failed", name)
            abort = PhaseAbortError(name, f"{type(exc).__name__}: {exc}")
            self._fail(name, abort)
            raise abort from exc
        status.status = "completed"
        status.finished_at = _now()
        status.artifact = artifact.name
        self.persist()
        return result


def run_pipeline(paper_text: str, cfg: PipelineConfig) -> RunManifest:
    """Execute Phases I-IV, persisting one artifact per phase.

    The run owns one lane per client: a model lane of ``analysis_concurrency``
    workers and a search lane of ``retry.concurrency`` workers. Phase I starts
    each scope's searches as soon as its queries exist, and Phase II collects
    them. Once it has filtered the core scope, Phase III's core-scope calls
    start on the model lane over the core scope's own deduplicated pool:
    the one-liners, and the taxonomy task, which submits the
    core-task comparison's calls once the taxonomy is built. On a phase
    failure the manifest records the error, queued calls are dropped,
    searches waiting to retry give up, and the run stops cleanly; with
    ``resume`` enabled a later invocation picks up after the last persisted
    artifact.
    """
    if not paper_text or not paper_text.strip():
        raise InvalidInputError("paper text must be non-empty")
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    llm, search = build_clients(cfg)
    manifest = RunManifest()
    runner = _PhaseRunner(manifest, out / "manifest.json", resumable=cfg.resume)
    generated_at = cfg.fixed_timestamp or _now()

    phase1_path = out / "phase1.json"
    phase2_path = out / "phase2.json"
    phase3_path = out / "phase3.json"
    front = build_target_record(paper_text, cfg)

    search_lane = Scheduler(cfg.retry.concurrency)
    model_lane = Scheduler(cfg.analysis_concurrency)
    queries = QueryRunner(search, cfg.retry, search_lane, sleep=cfg.sleep)

    @functools.cache
    def _date_lookup() -> Future[Optional[PublicationDate]]:
        """The target's date lookup, queued on the first call: Phase I's once its own are queued."""
        return model_lane.submit(
            infer_publication_date, url=cfg.target_url, front_matter=paper_text[:4000], llm=llm
        )

    @functools.cache
    def _target() -> PaperRecord:
        return replace(front, publication_date=_date_lookup().result())

    @functools.cache
    def _target_doc() -> str:
        """The target's text as the comparison calls show it."""
        return preprocess_document(paper_text, purpose="comparison")

    def _phase1() -> Phase1Result:
        doc = preprocess_document(paper_text, purpose="extraction")
        result = run_extraction_phase(
            doc,
            llm,
            model_lane,
            title=front.title,
            abstract=front.abstract,
            on_queries=queries.start,
            on_calls_queued=_date_lookup,
        )
        _write_json(phase1_path, {"target": encode(_target()), "result": result.to_dict()})
        return result

    def _load_phase1() -> Phase1Result:
        return Phase1Result.from_dict(_read_json(phase1_path)["result"])

    # Phase III's core-scope calls, started by a Phase II computed in this run
    early: list[CoreScopeCalls] = []

    def _start_early(phase1: Phase1Result, pool: CandidateSet) -> None:
        early.append(start_core_scope_calls(
            pool, phase1.core_task, _target(), _target_doc(), llm, model_lane
        ))

    def _phase2(phase1: Phase1Result) -> Phase2Result:
        result = run_retrieval_phase(
            phase1.query_set,
            queries,
            _target(),
            topk_core=cfg.topk_core,
            topk_contribution=cfg.topk_contribution,
            on_core_selected=functools.partial(_start_early, phase1),
        )
        _write_json(phase2_path, result.to_dict())
        return result

    def _load_phase2() -> Phase2Result:
        return Phase2Result.from_dict(_read_json(phase2_path))

    def _phase3(phase1: Phase1Result, phase2: Phase2Result) -> NoveltyReport:
        report = run_analysis_phase(
            phase1,
            phase2.candidate_set,
            _target(),
            _target_doc(),
            llm,
            model_lane,
            generated_at=generated_at,
            pipeline_version=__version__,
            artifact_filenames={
                "phase1": phase1_path.name,
                "phase2": phase2_path.name,
                "phase3": phase3_path.name,
            },
            early=early[0] if early else None,
        )
        _write_json(phase3_path, report.to_dict())
        return report

    def _load_phase3() -> NoveltyReport:
        return NoveltyReport.from_dict(_read_json(phase3_path))

    def _phase4(report: NoveltyReport) -> Path:
        render_cfg = RenderConfig(quote_truncation_limit=cfg.quote_truncation_limit)
        markdown = render_markdown(report, render_cfg)
        md_path = out / output_filename(report)
        _write_text(md_path, markdown)
        if cfg.emit_pdf:
            render_pdf(md_path)
        return md_path

    try:
        # the model lane is left first: its running tasks may still start searches
        with search_lane, model_lane:
            try:
                phase1 = runner.run("phase1", phase1_path, _phase1, load=_load_phase1)
                _date_lookup()  # made even when phase 1 is reused
                phase2 = runner.run(
                    "phase2", phase2_path, lambda: _phase2(phase1), load=_load_phase2
                )
                report = runner.run(
                    "phase3", phase3_path, lambda: _phase3(phase1, phase2), load=_load_phase3
                )
                md_path = out / output_filename(report)
                runner.run("phase4", md_path, lambda: _phase4(report), load=lambda: md_path)
            except NoveltyCheckError:
                queries.stop()
                raise
    except NoveltyCheckError as exc:
        logger.error("pipeline stopped: %s", exc)
    return manifest
