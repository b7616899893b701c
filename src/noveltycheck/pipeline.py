"""End-to-end pipeline driver with per-phase artifacts and resumability.

Each phase persists its output as a standalone JSON document before the
next phase starts, so a failed run can resume from the last good artifact
and every phase can be developed and inspected in isolation.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import logging
import os
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import orjson

from . import __version__
from .analysis import (
    CoreScopeCalls,
    NoveltyReport,
    core_papers,
    run_analysis_phase,
    start_core_scope_calls,
)
from .clients import (
    HttpLlmClient,
    HttpSearchClient,
    LlmClient,
    MockLlmClient,
    MockSearchClient,
    SearchClient,
)
from .codec import decode, encode
from .errors import InvalidInputError, NoveltyCheckError, PhaseAbortError
from .extraction import Phase1Result, run_extraction_phase
from .papers import (
    PaperRecord,
    PublicationDate,
    canonical_id_of,
    heading_core,
    infer_publication_date,
    preprocess_document,
)
from .prompts import assets
from .render import REPORT_PREFIX, RenderConfig, output_filename, render_markdown, render_pdf
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

    def validate(self) -> None:
        for name in ("analysis_concurrency", "topk_core", "topk_contribution"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise InvalidInputError(f"{name} must be an integer of at least 1")
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
    # why the phase failed, or why a resumed run did not reuse its artifact
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
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` indented by two spaces, as ``json.dumps(indent=2, ensure_ascii=False)``.

    orjson writes a non-finite float as ``null``: ``codec.encode`` rejects one first.
    """
    _write_text(path, orjson.dumps(payload, option=orjson.OPT_INDENT_2).decode("utf-8") + "\n")


def _read_json(path: Path) -> Any:
    """Parse the file's bytes with orjson.

    A NaN or infinity literal, a byte order mark, invalid UTF-8 or a lone
    surrogate escape raises ``JSONDecodeError``; an integer beyond 64 bits is
    read as a float.
    """
    return orjson.loads(path.read_bytes())


def read_report(path: Path) -> NoveltyReport:
    """A ``phase3.json`` read as ``--resume`` reads it (see ``_read_json``)."""
    return NoveltyReport.from_dict(_read_json(path))


def write_report(report: NoveltyReport, md_path: Path, quote_limit: int,
                 *, emit_pdf: bool = False) -> None:
    """Render ``report`` to ``md_path`` in one replace, then to a PDF beside it if asked."""
    _write_text(md_path, render_markdown(report, RenderConfig(quote_truncation_limit=quote_limit)))
    if emit_pdf:
        render_pdf(md_path)


class _StaleArtifact(Exception):
    """An artifact that reads fine but was made from another input."""


@functools.lru_cache(maxsize=8)
def _file_sha256(path: Path, mtime_ns: int, size: int) -> str:
    """A file's digest, read again once its time stamp or size changes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_fingerprint(paper_text: str, cfg: PipelineConfig) -> str:
    """sha256 over what phases 1-3 follow from: not the worker count, nor a render setting.

    Every prompt asset counts, system and user text alike; prompt text kept in
    code (payload keys, per-item list formatting) is covered by ``__version__``.
    """
    knobs = [cfg.topk_core, cfg.topk_contribution, cfg.target_url, cfg.target_title,
             cfg.fixed_timestamp, cfg.llm_model, cfg.llm_endpoint, cfg.search_endpoint]
    fixtures = [Path(f).resolve() for f in (cfg.llm_fixture, cfg.search_fixture) if cfg.mock]
    knobs += [_file_sha256(f, f.stat().st_mtime_ns, f.stat().st_size) for f in fixtures]
    prompts = sorted(assets().items())
    return hashlib.sha256(json.dumps([paper_text, knobs, __version__, prompts]).encode()).hexdigest()


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
        if not collecting and heading_core(line) == "abstract":
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
    def __init__(self, manifest: RunManifest, out: Path, resumable: bool) -> None:
        self.manifest = manifest
        self.manifest_path = out / "manifest.json"
        self.out = out
        self._reuse = resumable
        # each artifact that a later phase is made from, by phase name
        self.artifacts = {name: out / f"{name}.json" for name in PHASES[:3]}

    def _outputs(self, name: str) -> list[Path]:
        """The files phase ``name`` writes: its artifact, or for phase 4 every report."""
        if name in self.artifacts:
            return [self.artifacts[name]]
        return [*self.out.glob(f"{REPORT_PREFIX}*.md"), *self.out.glob(f"{REPORT_PREFIX}*.pdf")]

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

    def run(self, name: str, artifact: Path, compute: Callable[[], Any], *,
            load: Optional[Callable[[], Any]] = None):
        """Execute one phase, honoring resume and recording status transitions.

        A phase without ``load`` is computed on every run. An artifact that
        ``load`` finds made from another input is computed again, and the
        phase's status says why. The first phase that is computed rather
        than reused turns reuse off for every later phase, and first removes
        every later phase's artifact, which no run may reuse once this one
        starts, even should it fail; every report in the directory goes
        with them, as one may name another paper. A reused phase writes no
        manifest: its status reaches disk with the next phase's start,
        completion or failure, and no resume reads ``manifest.json``.
        """
        status = self.manifest.phases[name]
        if self._reuse and load is not None and artifact.exists():
            status.artifact = artifact.name
            try:
                result = load()
            except _StaleArtifact as exc:
                logger.info("%s: not reusing %s: %s", name, artifact.name, exc)
                status.error = f"not reused: {exc}"
            except Exception as exc:
                abort = PhaseAbortError(name, f"cannot load {artifact.name}: {exc}")
                self._fail(name, abort)
                raise abort from exc
            else:
                logger.info("%s: reusing existing artifact %s", name, artifact.name)
                status.status = "skipped"
                return result
        self._reuse = False
        for later in PHASES[PHASES.index(name) + 1:]:
            for path in self._outputs(later):
                path.unlink(missing_ok=True)
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
    ``resume`` enabled a later invocation on the same input picks up after
    the last persisted artifact.

    The run holds ``<out-dir>/.lock`` from start to end; a run that finds it
    held raises ``InvalidInputError`` and touches nothing in the directory.
    """
    if not paper_text or not paper_text.strip():
        raise InvalidInputError("paper text must be non-empty")
    cfg.validate()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise InvalidInputError(f"{out} is in use by another run") from None
        return _run_phases(paper_text, cfg, out)


def _run_phases(paper_text: str, cfg: PipelineConfig, out: Path) -> RunManifest:
    llm, search = build_clients(cfg)
    manifest = RunManifest()
    runner = _PhaseRunner(manifest, out, resumable=cfg.resume)
    generated_at = cfg.fixed_timestamp or _now()

    phase1_path, phase2_path, phase3_path = runner.artifacts.values()
    front = build_target_record(paper_text, cfg)
    fingerprint = input_fingerprint(paper_text, cfg)

    search_lane = Scheduler(cfg.retry.concurrency)
    model_lane = Scheduler(cfg.analysis_concurrency)
    queries = QueryRunner(search, cfg.retry, search_lane)

    @functools.cache
    def _date_lookup() -> Future[Optional[PublicationDate]]:
        """The target's date lookup, queued on the first call: Phase I's once its own are queued."""
        return model_lane.submit(
            infer_publication_date, url=cfg.target_url, front_matter=paper_text[:4000], llm=llm
        )

    target: list[PaperRecord] = []  # Phase I's, or the one a reused phase1.json stores

    def _target() -> PaperRecord:
        if not target:
            target.append(replace(front, publication_date=_date_lookup().result()))
        return target[0]

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
        _write_json(
            phase1_path,
            {"input": fingerprint, "target": encode(_target()), "result": result.to_dict()},
        )
        return result

    def _load_phase1() -> Phase1Result:
        stored = _read_json(phase1_path)
        if stored.get("input") != fingerprint:
            raise _StaleArtifact("made from another paper text, setting, service or prompt")
        result = Phase1Result.from_dict(stored["result"])
        target.append(decode(PaperRecord, stored["target"]))
        return result

    # Phase III's core-scope calls, started by a Phase II computed in this run
    early: list[CoreScopeCalls] = []

    def _start_early(phase1: Phase1Result, pool: CandidateSet) -> None:
        early.append(start_core_scope_calls(
            core_papers(_target(), pool), phase1.core_task, _target(), _target_doc(), llm,
            model_lane,
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
            artifact_filenames={name: path.name for name, path in runner.artifacts.items()},
            early=early[0] if early else None,
        )
        _write_json(phase3_path, report.to_dict())
        return report

    try:
        # the model lane is left first: its running tasks may still start searches
        with search_lane, model_lane:
            try:
                phase1 = runner.run("phase1", phase1_path, _phase1, load=_load_phase1)
                phase2 = runner.run(
                    "phase2", phase2_path, lambda: _phase2(phase1), load=_load_phase2
                )
                report = runner.run(
                    "phase3", phase3_path, lambda: _phase3(phase1, phase2),
                    load=lambda: read_report(phase3_path),
                )
                md_path = out / output_filename(report)
                runner.run("phase4", md_path, lambda: write_report(
                    report, md_path, cfg.quote_truncation_limit, emit_pdf=cfg.emit_pdf
                ))
            except NoveltyCheckError:
                queries.stop()
                raise
    except NoveltyCheckError as exc:
        logger.error("pipeline stopped: %s", exc)
    return manifest
