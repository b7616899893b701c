"""End-to-end pipeline runs, artifacts, resumability, and the CLI."""

import collections
import copy
import fcntl
import functools
import json
import logging
import re
import shutil
import tempfile
import threading
import time
import weakref
from pathlib import Path

import orjson
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from noveltycheck import analysis, pipeline, prompts, verification
from noveltycheck.cli import main as cli_main
from noveltycheck.clients import LlmClient, MockLlmClient, MockSearchClient, SearchClient
from noveltycheck.errors import InvalidInputError, LlmError, SearchError
from noveltycheck.extraction import QUERY_PREFIX
from noveltycheck.pipeline import PipelineConfig, parse_front_matter, run_pipeline
from noveltycheck.prompts import TEMPERATURES, load_prompt
from noveltycheck.render import RenderConfig, render_markdown
from noveltycheck.retrieval import RetryPolicy

TARGET_URL = "https://arxiv.org/abs/2504.01234"
TIMESTAMP = "2026-01-15T00:00:00+00:00"


def make_config(tmp_path, fixtures_dir, **overrides) -> PipelineConfig:
    base = dict(
        output_dir=tmp_path,
        mock=True,
        llm_fixture=fixtures_dir / "mock_llm.json",
        search_fixture=fixtures_dir / "mock_search.json",
        target_url=TARGET_URL,
        fixed_timestamp=TIMESTAMP,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture
def paper_text(fixtures_dir):
    return (fixtures_dir / "target_paper.txt").read_text(encoding="utf-8")


class InflightProbe:
    """Wraps both clients and records the most calls of each ever in flight at once.

    With ``barrier`` set, the core-task and contribution extraction calls
    wait on it, so both pass only when they are in flight together.
    """

    EXTRACTIONS = ("extract ONE short phrase", "extract the main contributions")

    def __init__(self, barrier=None):
        self.barrier = barrier
        self.overlapped = 0
        self.peak = {"llm": 0, "search": 0}
        self._inflight = {"llm": 0, "search": 0}
        self._lock = threading.Lock()

    def call(self, client, fn, *args, extraction=False):
        with self._lock:
            self._inflight[client] += 1
            self.peak[client] = max(self.peak[client], self._inflight[client])
        try:
            if extraction and self.barrier is not None:
                self.barrier.wait()
                with self._lock:
                    self.overlapped += 1
            time.sleep(0.002)  # long enough for pooled calls to overlap
            return fn(*args)
        finally:
            with self._lock:
                self._inflight[client] -= 1

    def clients(self, llm, search):
        probe = self

        class Llm(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                extraction = any(s in system_prompt for s in probe.EXTRACTIONS)
                return probe.call(
                    "llm", llm.complete, system_prompt, user_prompt, temperature,
                    extraction=extraction,
                )

        class Search(SearchClient):
            def search(self, query):
                return probe.call("search", search.search, query)

        return Llm(), Search()


def run_bounded(paper_text, cfg, timeout=60):
    """``run_pipeline`` on a thread; fail on a hang or a raw exception."""
    outcome = {}

    def _target():
        try:
            outcome["manifest"] = run_pipeline(paper_text, cfg)
        except BaseException as exc:  # reported by the assertion below
            outcome["error"] = exc

    worker = threading.Thread(target=_target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "run_pipeline did not return"
    assert "error" not in outcome, f"raw exception: {outcome.get('error')!r}"
    return outcome["manifest"]


def run_recording_llm(monkeypatch, paper_text, cfg):
    """Run the bundled fixtures; return the manifest and the model client's call log."""
    llm = MockLlmClient.from_file(cfg.llm_fixture)
    monkeypatch.setattr(
        pipeline, "build_clients",
        lambda cfg: (llm, MockSearchClient.from_file(cfg.search_fixture)),
    )
    return run_bounded(paper_text, cfg), llm.calls


def run_with_llm_fixture(monkeypatch, tmp_path, fixtures_dir, paper_text, fixture):
    """Run the bundled paper with ``fixture`` as the model's replies.

    Returns the Markdown report and the search queries sent.
    """
    llm = MockLlmClient(fixture)
    search = MockSearchClient.from_file(fixtures_dir / "mock_search.json")
    monkeypatch.setattr(pipeline, "build_clients", lambda cfg: (llm, search))
    manifest = run_bounded(paper_text, make_config(tmp_path, fixtures_dir))
    assert manifest.succeeded, manifest.failure_log
    return next(tmp_path.glob("*.md")).read_text(), search.calls


# every prompt Phase III may send; a run resumed after Phase II sends no other
PHASE3_PROMPTS = (
    "taxonomy_construction", "taxonomy_repair", "one_liner", "sibling_distinction",
    "subtopic_comparison", "claim_comparison", "similarity_detection",
    "narrative_synthesis", "overall_assessment",
)


def phase3_calls_per_prompt(calls):
    names = {load_prompt(name): name for name in TEMPERATURES}
    sent = collections.Counter(names[c["system"]] for c in calls)
    return {name: sent[name] for name in PHASE3_PROMPTS}


def run_then_resume(monkeypatch, tmp_path, fixtures_dir, paper_text, llm_fixture, search_fixture,
                    workers, llm_class=MockLlmClient, search_class=MockSearchClient):
    """Run, then resume over its phase1.json and phase2.json, so nothing starts early.

    Returns, for each run, phase3.json, the Markdown report and the model calls made.
    """
    runs = []
    for resume in (False, True):
        out = tmp_path / ("resumed" if resume else "run")
        out.mkdir()
        if resume:
            for name in ("phase1.json", "phase2.json"):
                shutil.copyfile(tmp_path / "run" / name, out / name)
        llm = llm_class(llm_fixture)
        monkeypatch.setattr(
            pipeline, "build_clients", lambda cfg: (llm, search_class(search_fixture))
        )
        cfg = make_config(
            out, fixtures_dir, resume=resume,
            retry=RetryPolicy(concurrency=workers), analysis_concurrency=workers,
        )
        manifest = run_bounded(paper_text, cfg)
        assert manifest.succeeded, manifest.failure_log
        assert manifest.phases["phase2"].status == ("skipped" if resume else "completed")
        if resume:
            assert len(llm.calls) == sum(phase3_calls_per_prompt(llm.calls).values())
        md = next(out.glob("*.md")).read_bytes()
        runs.append(((out / "phase3.json").read_bytes(), md, llm.calls))
    return runs


def foreseer_doi_on_contribution_hits(search_fixture):
    """Give Foreseer's contribution-scope hits a DOI, so that cross-scope dedup
    upgrades its core record after the core scope is filtered."""
    for query, spec in search_fixture["queries"].items():
        for hit in spec.get("results", []):
            if hit["title"].startswith("Foreseer") and query.startswith(QUERY_PREFIX):
                hit["identifiers"]["doi"] = "10.5555/foreseer"
    return search_fixture


def with_isbn_id(where, raw: bytes) -> bytes:
    """``raw`` with the canonical id of the record ``where`` picks in another scheme."""
    report = json.loads(raw)
    where(report)["canonical_id"] = "isbn:123"
    return json.dumps(report, ensure_ascii=False, indent=2).encode()


# the last variant of the last claim's queries in the bundled fixture
LAST_QUERY = "Find papers about benchmark suites for storage cache eviction strategies"

# what str() makes of a null or NaN reply field
LEAKED_WORD = re.compile(r"\b(?:None|nan)\b")


class AlwaysFailingSearch(SearchClient):
    def search(self, query):
        raise SearchError("search service unavailable")


class TestFrontMatter:
    def test_title_and_abstract_extracted(self, paper_text):
        title, abstract = parse_front_matter(paper_text)
        assert title.startswith("Drift-Aware Cache Eviction")
        assert abstract.startswith("Storage caches sit in front")

    @pytest.mark.parametrize("heading", ["1. Abstract", "I. ABSTRACT"])
    def test_numbered_abstract_heading(self, heading):
        # read as preprocess_document reads the numbered references heading
        paper_text = f"A Title\n\n{heading}\nWe study caches.\n\n5. References\n[1] X.\n"
        assert parse_front_matter(paper_text) == ("A Title", "We study caches.")


# --- phase2.json candidate pools that a resume must not reuse --------------------


def scope_lists_hold_records(candidates):
    """Per-scope lists of full records, as before they held pool ids."""
    papers = {p["canonical_id"]: p for p in candidates["unified"]}
    candidates["core_task"] = [papers[pid] for pid in candidates["core_task"]]


def full_texts_as_objects(candidates):
    """Each full text an object with a normalized copy, as before it was one string."""
    papers = [p for p in candidates["unified"] if p["full_text"] is not None]
    assert papers
    for paper in papers:
        text = paper["full_text"]
        paper["full_text"] = {"raw": text, "normalized": text.lower(), "token_count": 1}


def scope_repeats_an_id(candidates):
    candidates["per_contribution"]["contribution_1"].append("arxiv:2403.77777")


def pool_repeats_a_record(candidates):
    candidates["unified"].append(candidates["unified"][0])


def pool_entries_wrapped(candidates):
    """Each pool entry as ``{"paper", "provenance"}``, as before entries were plain records."""
    candidates["unified"] = [{"paper": p, "provenance": ["core_task"]} for p in candidates["unified"]]


def pool_id_of_unknown_scheme(candidates):
    """A pool record, and every scope list naming it, given an id of no known scheme."""
    paper = candidates["unified"][0]
    old, paper["canonical_id"] = paper["canonical_id"], "isbn:123"
    for ids in (candidates["core_task"], *candidates["per_contribution"].values()):
        ids[:] = ["isbn:123" if pid == old else pid for pid in ids]


class TestRunPipeline:
    def test_full_mock_run_produces_artifacts_and_goldens(
        self, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir))
        assert manifest.succeeded
        for name in ("phase1.json", "phase2.json", "phase3.json", "manifest.json"):
            path = tmp_path / name  # a resume reads it with orjson: the same value as json
            fast, plain = orjson.loads(path.read_bytes()), json.loads(path.read_text("utf-8"))
            assert json.dumps(fast) == json.dumps(plain), name
        # the four above, the report and the run's 0-byte lock file, no temp files
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".md") == [
            ".lock", "manifest.json", "phase1.json", "phase2.json", "phase3.json",
        ]
        assert len(list(tmp_path.iterdir())) == 6
        assert (tmp_path / ".lock").stat().st_size == 0
        assert (tmp_path / "phase2.json").read_bytes() == (goldens_dir / "phase2.json").read_bytes()
        assert (tmp_path / "phase3.json").read_bytes() == (goldens_dir / "phase3.json").read_bytes()
        md = next(p for p in tmp_path.iterdir() if p.suffix == ".md")
        assert md.read_bytes() == (goldens_dir / "report.md").read_bytes()

    def test_retrieval_failure_stops_cleanly(self, tmp_path, fixtures_dir, paper_text):
        search_fixture = json.loads((fixtures_dir / "mock_search.json").read_text())
        for spec in search_fixture["queries"].values():
            spec["fail_times"] = 99
        broken = tmp_path / "broken_search.json"
        broken.write_text(json.dumps(search_fixture))
        cfg = make_config(
            tmp_path / "out", fixtures_dir,
            search_fixture=broken,
            retry=RetryPolicy(max_query_attempts=2, initial_delay=0.001),
        )
        manifest = run_pipeline(paper_text, cfg)
        assert not manifest.succeeded
        assert manifest.phases["phase1"].status == "completed"
        assert manifest.phases["phase2"].status == "failed"
        assert manifest.phases["phase3"].status == "pending"
        assert not (tmp_path / "out" / "phase3.json").exists()
        assert manifest.failure_log

    def test_resume_skips_completed_phases(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        cfg = make_config(tmp_path, fixtures_dir)
        assert run_pipeline(paper_text, cfg).succeeded
        # wipe phase 3 and 4 outputs, let every search fail, and resume at four
        # workers: the worker count is no part of the input fingerprint
        (tmp_path / "phase3.json").unlink()
        for md in tmp_path.glob("*.md"):
            md.unlink()
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        monkeypatch.setattr(pipeline, "build_clients", lambda cfg: (llm, AlwaysFailingSearch()))
        cfg2 = make_config(
            tmp_path, fixtures_dir, resume=True,
            retry=RetryPolicy(concurrency=4), analysis_concurrency=4,
        )
        manifest = run_pipeline(paper_text, cfg2)
        assert manifest.phases["phase1"].status == "skipped"
        assert manifest.phases["phase1"].error is None
        assert manifest.phases["phase2"].status == "skipped"
        assert manifest.phases["phase3"].status == "completed"
        assert manifest.succeeded
        assert (tmp_path / "phase3.json").read_bytes() == (goldens_dir / "phase3.json").read_bytes()

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
    def test_run_refuses_an_out_dir_another_run_holds(
        self, tmp_path, fixtures_dir, paper_text, resume
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded

        def snapshot():
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}

        with open(tmp_path / ".lock", "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)  # the first run let go of it
            before = snapshot()
            started = time.monotonic()
            with pytest.raises(InvalidInputError, match=re.escape(f"{tmp_path} is in use")):
                run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=resume))
            assert time.monotonic() - started < 5
            assert snapshot() == before

    def test_a_second_run_over_a_busy_out_dir_is_refused_and_the_first_is_intact(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")

        class SlowLlm(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                time.sleep(0.02)
                return llm.complete(system_prompt, user_prompt, temperature)

        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (SlowLlm(), MockSearchClient.from_file(cfg.search_fixture)),
        )
        first = {}
        worker = threading.Thread(target=lambda: first.update(
            manifest=run_pipeline(paper_text, make_config(tmp_path, fixtures_dir))
        ))
        worker.start()
        deadline = time.monotonic() + 30
        while not (tmp_path / "manifest.json").exists():  # the first run holds the lock
            assert time.monotonic() < deadline
            time.sleep(0.005)
        other = "A Different Paper\n\nAbstract\nIt studies something else entirely.\n"
        for resume in (False, True):
            with pytest.raises(InvalidInputError, match="in use by another run"):
                run_pipeline(other, make_config(tmp_path, fixtures_dir, resume=resume))
        assert worker.is_alive()
        worker.join(60)
        assert first["manifest"].succeeded, first["manifest"].failure_log
        for name in ("phase2.json", "phase3.json"):
            assert (tmp_path / name).read_bytes() == (goldens_dir / name).read_bytes()
        [report] = tmp_path.glob("*.md")
        assert report.read_bytes() == (goldens_dir / "report.md").read_bytes()

    def test_resume_after_a_user_template_edit_computes_phase1_again(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        table = prompts.assets()
        template = table["claim_comparison.user.txt"]
        assert "**CRITICAL RULE**" in template
        edited = template.replace("**CRITICAL RULE**", "**RULE**")
        monkeypatch.setitem(table, "claim_comparison.user.txt", edited)
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text, make_config(tmp_path, fixtures_dir, resume=True)
        )
        assert manifest.succeeded, manifest.failure_log
        assert [manifest.phases[p].status for p in pipeline.PHASES] == ["completed"] * 4
        assert manifest.phases["phase1"].error.startswith("not reused: ")
        sent = [c["user"] for c in calls if c["system"] == load_prompt("claim_comparison")]
        assert sent and all("**RULE**" in u and "CRITICAL" not in u for u in sent)

    def test_resume_recomputes_the_report_after_a_recomputed_phase(
        self, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        (tmp_path / "phase3.json").unlink()
        [md] = tmp_path.glob("*.md")
        md.write_text("a report this run must not keep\n")
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        assert manifest.succeeded
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "skipped", "skipped", "completed", "completed",
        ]
        assert md.read_bytes() == (goldens_dir / "report.md").read_bytes()

    @pytest.mark.parametrize("case", [
        "another_paper", "another_topk_core", "another_model", "another_fixture", "no_fingerprint",
    ])
    def test_resume_over_another_input_computes_every_phase(
        self, tmp_path, fixtures_dir, paper_text, case
    ):
        assert run_pipeline(paper_text, make_config(tmp_path / "out", fixtures_dir)).succeeded
        overrides = {"topk_core": 3} if case == "another_topk_core" else {}
        if case == "another_paper":
            paper_text = "A Different Paper\n\nAbstract\nIt studies something else entirely.\n"
        if case == "another_model":
            overrides = {"llm_model": "another-model"}
        if case == "another_fixture":  # the same path, rewritten with another narrative
            llm_fixture = tmp_path / "mock_llm.json"
            rules = json.loads((fixtures_dir / "mock_llm.json").read_text())
            for rule in rules["rules"]:
                if rule["system_contains"] == "survey-style narrative":
                    rule["response"]["narrative"] = "Another narrative of the core task."
            shutil.copyfile(fixtures_dir / "mock_llm.json", llm_fixture)
            cfg = make_config(tmp_path / "out", fixtures_dir, llm_fixture=llm_fixture)
            assert run_pipeline(paper_text, cfg).succeeded
            llm_fixture.write_text(json.dumps(rules))
            overrides = {"llm_fixture": llm_fixture}
        if case == "no_fingerprint":  # as every phase1.json written before the fingerprint
            path = tmp_path / "out" / "phase1.json"
            phase1 = json.loads(path.read_text())
            del phase1["input"]
            path.write_text(json.dumps(phase1))
        (tmp_path / "out" / "novelty_report_earlier_v0.1.0.pdf").write_bytes(b"%PDF-1.4\n")
        cfg = make_config(tmp_path / "out", fixtures_dir, resume=True, **overrides)
        manifest = run_pipeline(paper_text, cfg)
        assert manifest.succeeded, manifest.failure_log
        assert [manifest.phases[p].status for p in pipeline.PHASES] == ["completed"] * 4
        assert manifest.phases["phase1"].error.startswith("not reused: ")
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk["phases"]["phase1"]["error"] == manifest.phases["phase1"].error
        fresh = make_config(tmp_path / "fresh", fixtures_dir, **overrides)
        assert run_pipeline(paper_text, fresh).succeeded
        [report] = (tmp_path / "fresh").glob("*.md")
        # the earlier run's reports are gone, whichever paper they were of
        assert [p.name for p in (tmp_path / "out").glob("novelty_report_*")] == [report.name]
        for name in ("phase1.json", "phase2.json", "phase3.json", report.name):
            resumed, made = (tmp_path / d / name for d in ("out", "fresh"))
            assert resumed.read_bytes() == made.read_bytes(), name

    @pytest.mark.parametrize("resume_first", [True, False], ids=["resumed", "fresh"])
    def test_failed_run_over_another_paper_leaves_nothing_to_reuse(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, resume_first
    ):
        # a run for another paper fails in phase 2 after writing its phase1.json; a
        # resume of that paper must not reuse the first paper's phase2.json or phase3.json
        assert run_pipeline(paper_text, make_config(tmp_path / "out", fixtures_dir)).succeeded
        other = "A Different Paper\n\nAbstract\nIt studies something else entirely.\n"
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "build_clients", lambda cfg: (llm, AlwaysFailingSearch()))
            cfg = make_config(
                tmp_path / "out", fixtures_dir, resume=resume_first,
                retry=RetryPolicy(max_query_attempts=2, initial_delay=0.001),
            )
            manifest = run_pipeline(other, cfg)
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "completed", "failed", "pending", "pending",
        ]
        assert not (tmp_path / "out" / "phase2.json").exists()
        assert not (tmp_path / "out" / "phase3.json").exists()
        assert not list((tmp_path / "out").glob("*.md"))
        manifest = run_pipeline(other, make_config(tmp_path / "out", fixtures_dir, resume=True))
        assert manifest.succeeded, manifest.failure_log
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "skipped", "completed", "completed", "completed",
        ]
        assert run_pipeline(other, make_config(tmp_path / "fresh", fixtures_dir)).succeeded
        [report] = (tmp_path / "fresh").glob("*.md")
        for name in ("phase1.json", "phase2.json", "phase3.json", report.name):
            resumed, made = (tmp_path / d / name for d in ("out", "fresh"))
            assert resumed.read_bytes() == made.read_bytes(), name

    def test_resume_with_another_quote_limit_renders_again(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        # the quote limit is a render setting: phases 1-3 are reused, the target with
        # phase 1, so no model call is made
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text,
            make_config(tmp_path, fixtures_dir, resume=True, quote_truncation_limit=30),
        )
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "skipped", "skipped", "skipped", "completed",
        ]
        assert calls == []
        report = analysis.NoveltyReport.from_dict(
            json.loads((goldens_dir / "phase3.json").read_text())
        )
        [md] = tmp_path.glob("*.md")
        rendered = render_markdown(report, RenderConfig(quote_truncation_limit=30))
        assert md.read_text() == rendered
        assert md.read_bytes() != (goldens_dir / "report.md").read_bytes()

    def test_resumed_phase1_supplies_the_target_and_its_date(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        # without a URL the date is asked of the model, and the resume must not ask again
        cfg = make_config(tmp_path, fixtures_dir, target_url=None)
        assert run_pipeline(paper_text, cfg).succeeded
        path = tmp_path / "phase1.json"
        phase1 = json.loads(path.read_text())
        date = {"year": 2030, "granularity": "year", "source_tier": "regex"}
        phase1["target"]["publication_date"] = date
        path.write_text(json.dumps(phase1))
        (tmp_path / "phase2.json").unlink()
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text,
            make_config(tmp_path, fixtures_dir, target_url=None, resume=True),
        )
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "skipped", "completed", "completed", "completed",
        ]
        assert calls and load_prompt("publication_date") not in {c["system"] for c in calls}
        phase3 = json.loads((tmp_path / "phase3.json").read_text())
        assert phase3["original_paper"]["publication_date"] == {
            "year": 2030, "month": None, "day": None, **date,
        }

    @pytest.mark.parametrize("edit", [
        lambda stored: stored.pop("target"),
        lambda stored: stored.update(target="Drift-Aware Cache Eviction"),
        lambda stored: stored["target"].update(title=7),
        lambda stored: stored["target"].update(publication_date="2025"),
    ], ids=["missing", "a-string", "mistyped-title", "mistyped-date"])
    def test_resume_over_hostile_target_fails_phase1(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, edit
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        path = tmp_path / "phase1.json"
        phase1 = json.loads(path.read_text())
        edit(phase1)
        path.write_text(json.dumps(phase1))
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text, make_config(tmp_path, fixtures_dir, resume=True)
        )
        assert manifest.phases["phase1"].status == "failed"
        assert "cannot load phase1.json" in manifest.phases["phase1"].error
        assert manifest.phases["phase2"].status == "pending"
        assert calls == []

    def test_resume_without_phase1_recomputes_every_phase(
        self, tmp_path, fixtures_dir, paper_text
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        (tmp_path / "phase1.json").unlink()
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        assert manifest.succeeded
        assert [manifest.phases[p].status for p in pipeline.PHASES] == ["completed"] * 4

    def test_resume_over_query_copies_in_phase1_gives_the_goldens(
        self, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        # phase1.json once stored each query in the core task and claims as well, with a
        # kind per query and the warnings twice; those keys are read past on resume. The
        # file keeps this run's input fingerprint, so phase 1 is reused from it
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        path = tmp_path / "phase1.json"
        phase1 = json.loads(path.read_text())
        result = phase1["result"]
        query_set = result["query_set"]
        result["core_task"]["query_variants"] = [q["text"] for q in query_set["core_task_queries"]]
        for claim in result["contributions"]:
            texts = [q["text"] for q in query_set["contribution_queries"][claim["claim_id"]]]
            claim["prior_work_query"], claim["query_variants"] = texts[0], texts
        groups = [query_set["core_task_queries"], *query_set["contribution_queries"].values()]
        for query in (q for group in groups for q in group):
            query["kind"] = "primary" if query["query_id"].endswith(":primary") else "variant"
        query_set["warnings"] = result["warnings"]
        path.write_text(json.dumps(phase1))
        for stale in [tmp_path / "phase2.json", tmp_path / "phase3.json", *tmp_path.glob("*.md")]:
            stale.unlink()
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        assert [manifest.phases[p].status for p in pipeline.PHASES] == [
            "skipped", "completed", "completed", "completed",
        ]
        for name in ("phase2.json", "phase3.json"):
            assert (tmp_path / name).read_bytes() == (goldens_dir / name).read_bytes()
        [md] = tmp_path.glob("*.md")
        assert md.read_bytes() == (goldens_dir / "report.md").read_bytes()

    @pytest.mark.parametrize("edit", [
        scope_lists_hold_records, full_texts_as_objects, scope_repeats_an_id,
        pool_repeats_a_record, pool_entries_wrapped, pool_id_of_unknown_scheme,
    ], ids=lambda edit: edit.__name__)
    def test_resume_over_malformed_candidate_pool_fails_phase2(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, edit
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        path = tmp_path / "phase2.json"
        phase2 = json.loads(path.read_text())
        edit(phase2["candidate_set"])
        path.write_text(json.dumps(phase2))
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text, make_config(tmp_path, fixtures_dir, resume=True)
        )
        assert manifest.phases["phase2"].status == "failed"
        assert "cannot load phase2.json" in manifest.phases["phase2"].error
        assert manifest.phases["phase3"].status == "pending"
        assert not any(phase3_calls_per_prompt(calls).values())

    @pytest.mark.parametrize("phase", ["phase1", "phase2", "phase3"])
    def test_resume_over_truncated_artifact_fails_its_phase(
        self, tmp_path, fixtures_dir, paper_text, phase
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        artifact = tmp_path / f"{phase}.json"
        artifact.write_bytes(artifact.read_bytes()[: artifact.stat().st_size // 2])
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        status = manifest.phases[phase]
        assert status.status == "failed"
        assert f"cannot load {phase}.json" in status.error
        assert manifest.failure_log == [f"{phase}: {status.error}"]
        assert manifest.phases["phase4"].status == "pending"
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        # the reused phases before it reach disk with the failure's write
        earlier = pipeline.PHASES[: pipeline.PHASES.index(phase)]
        assert [on_disk["phases"][p]["status"] for p in earlier] == ["skipped"] * len(earlier)
        assert on_disk["phases"][phase]["status"] == "failed"
        assert on_disk["succeeded"] is False

    @pytest.mark.parametrize("phase", ["phase1", "phase2", "phase3"])
    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b'"year": ', b'"year": NaN, "_": ', 1),
        lambda b: b"\xef\xbb\xbf" + b,
        lambda b: b.replace(b'"title": "', b'"title": "\xff', 1),
        lambda b: b.replace(b'"title": "', b'"title": "\\ud800', 1),
        lambda b: re.sub(rb'"year": \d+', b'"year": 18446744073709551616', b, count=1),
    ], ids=["nan", "bom", "invalid-utf8", "lone-surrogate", "int-above-64-bits"])
    def test_resume_over_malformed_json_fails_its_phase(
        self, tmp_path, fixtures_dir, paper_text, phase, edit
    ):
        # orjson refuses the first four; it reads the integer as a float, which the
        # codec refuses in an int field
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        artifact = tmp_path / f"{phase}.json"
        damaged = edit(artifact.read_bytes())
        assert damaged != artifact.read_bytes()
        artifact.write_bytes(damaged)
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        assert manifest.phases[phase].status == "failed"
        assert f"cannot load {phase}.json" in manifest.phases[phase].error
        later = pipeline.PHASES[pipeline.PHASES.index(phase) + 1:]
        assert [manifest.phases[p].status for p in later] == ["pending"] * len(later)

    def test_render_only_resume_writes_the_manifest_twice(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        assert run_pipeline(paper_text, make_config(tmp_path, fixtures_dir)).succeeded
        written = []
        write_json = pipeline._write_json

        def recording_write_json(path, payload):
            written.append(path.name)
            write_json(path, payload)

        monkeypatch.setattr(pipeline, "_write_json", recording_write_json)
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir, resume=True))
        assert manifest.succeeded, manifest.failure_log
        assert written == ["manifest.json"] * 2  # phase 4 starts, then completes
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert [on_disk["phases"][p]["status"] for p in pipeline.PHASES] == [
            "skipped", "skipped", "skipped", "completed",
        ]
        assert on_disk["succeeded"] is True

    def test_interrupted_write_keeps_previous_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "phase2.json"
        pipeline._write_json(path, {"complete": True})
        before = path.read_bytes()

        def write_half_then_fail(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            pipeline._write_json(path, {"complete": False, "padding": "x" * 200})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["phase2.json"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_client_calls_in_flight_bounded_by_workers(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text, workers
    ):
        probe = InflightProbe(threading.Barrier(2, timeout=10) if workers == 2 else None)
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: probe.clients(
                MockLlmClient.from_file(cfg.llm_fixture),
                MockSearchClient.from_file(cfg.search_fixture),
            ),
        )
        cfg = make_config(
            tmp_path, fixtures_dir,
            retry=RetryPolicy(concurrency=workers), analysis_concurrency=workers,
        )
        manifest = run_bounded(paper_text, cfg)
        assert manifest.succeeded
        # one lane per client: each bounds its own calls
        assert 1 <= probe.peak["llm"] <= cfg.analysis_concurrency
        assert 1 <= probe.peak["search"] <= cfg.retry.concurrency
        if workers == 2:  # both extractions were in flight together
            assert probe.overlapped == 2
        assert (tmp_path / "phase3.json").read_bytes() == (goldens_dir / "phase3.json").read_bytes()

    def test_first_search_starts_before_phase1_last_model_call_returns(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        phase1_prompts = {
            load_prompt(name)
            for name in ("core_task", "contribution_extraction", "primary_query", "query_variants")
        }
        phase1_returns, search_starts = [], []
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        search = MockSearchClient.from_file(fixtures_dir / "mock_search.json")

        class SlowLlm(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                time.sleep(0.03)
                reply = llm.complete(system_prompt, user_prompt, temperature)
                if system_prompt in phase1_prompts:
                    phase1_returns.append(time.perf_counter())
                return reply

        class StampedSearch(SearchClient):
            def search(self, query):
                search_starts.append(time.perf_counter())
                return search.search(query)

        monkeypatch.setattr(pipeline, "build_clients", lambda cfg: (SlowLlm(), StampedSearch()))
        cfg = make_config(
            tmp_path, fixtures_dir, retry=RetryPolicy(concurrency=2), analysis_concurrency=2
        )
        assert run_bounded(paper_text, cfg).succeeded
        # the core-task searches run while the claims' variant calls are in flight
        assert min(search_starts) < max(phase1_returns)

    def test_phase1_failure_after_core_searches_started_stops_cleanly(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        searched = threading.Event()
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        search = MockSearchClient.from_file(fixtures_dir / "mock_search.json")

        class ClaimsFailAfterFirstSearch(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                if system_prompt == load_prompt("contribution_extraction"):
                    assert searched.wait(10)
                    raise LlmError("model service unavailable")
                return llm.complete(system_prompt, user_prompt, temperature)

        class SignallingSearch(SearchClient):
            def search(self, query):
                searched.set()
                return search.search(query)

        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (ClaimsFailAfterFirstSearch(), SignallingSearch()),
        )
        cfg = make_config(
            tmp_path, fixtures_dir, retry=RetryPolicy(concurrency=2), analysis_concurrency=2
        )
        before = set(threading.enumerate())
        manifest = run_bounded(paper_text, cfg)
        assert manifest.phases["phase1"].status == "failed"
        assert "model service unavailable" in manifest.phases["phase1"].error
        assert manifest.phases["phase2"].status == "pending"
        assert not (tmp_path / "phase1.json").exists()
        assert search.calls and not any(q.startswith(QUERY_PREFIX) for q in search.calls)
        assert set(threading.enumerate()) <= before, "a lane thread outlived run_pipeline"

    def test_phase1_failure_cuts_short_the_search_backoff(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        failed_at = []

        class ClaimsFailLate(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                if system_prompt == load_prompt("contribution_extraction"):
                    time.sleep(0.15)  # by now the core-task searches wait to retry
                    failed_at.append(time.monotonic())
                    raise LlmError("model service unavailable")
                return llm.complete(system_prompt, user_prompt, temperature)

        monkeypatch.setattr(
            pipeline, "build_clients", lambda cfg: (ClaimsFailLate(), AlwaysFailingSearch())
        )
        cfg = make_config(
            tmp_path, fixtures_dir, analysis_concurrency=2,
            retry=RetryPolicy(max_query_attempts=4, initial_delay=0.2, concurrency=2),
        )
        before = set(threading.enumerate())
        manifest = run_bounded(paper_text, cfg)
        returned_at = time.monotonic()
        assert manifest.phases["phase1"].status == "failed"
        assert "model service unavailable" in manifest.phases["phase1"].error
        # without the stop signal the searches slept 0.2 + 0.4 + 0.6 s more
        assert returned_at - failed_at[-1] < 0.3
        assert set(threading.enumerate()) <= before, "a lane thread outlived run_pipeline"

    def test_search_backoff_holds_no_phase1_model_call_at_one_worker(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        search_fixture = json.loads((fixtures_dir / "mock_search.json").read_text())
        failing, spec = next(iter(search_fixture["queries"].items()))
        spec["fail_times"] = 1
        llm = MockLlmClient.from_file(fixtures_dir / "mock_llm.json")
        search = MockSearchClient(search_fixture)
        model_calls, searches = [], []

        class TimedLlm(LlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                model_calls.append((time.monotonic(), system_prompt))
                return llm.complete(system_prompt, user_prompt, temperature)

        class TimedSearch(SearchClient):
            def search(self, query):
                searches.append((time.monotonic(), query))
                return search.search(query)

        monkeypatch.setattr(pipeline, "build_clients", lambda cfg: (TimedLlm(), TimedSearch()))
        cfg = make_config(tmp_path, fixtures_dir, retry=RetryPolicy(initial_delay=0.5))
        assert cfg.analysis_concurrency == cfg.retry.concurrency == 1
        manifest = run_bounded(paper_text, cfg)
        assert manifest.succeeded, manifest.failure_log
        [_, retried_at] = [at for at, query in searches if query == failing]
        phase1_prompts = {
            load_prompt(name) for name in
            ("core_task", "contribution_extraction", "primary_query", "query_variants")
        }
        phase1_calls = [at for at, system in model_calls if system in phase1_prompts]
        assert len(phase1_calls) == 6
        # the backoff waits off both lanes, so Phase I's model calls go on meanwhile
        assert max(phase1_calls) < retried_at

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_raising_during_phase1_fails_phase2(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, workers
    ):
        during_phase1 = []

        class BrokenSearch(SearchClient):
            def search(self, query):
                during_phase1.append(not (tmp_path / "phase1.json").exists())
                raise RuntimeError("search client bug")

        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (MockLlmClient.from_file(cfg.llm_fixture), BrokenSearch()),
        )
        cfg = make_config(
            tmp_path, fixtures_dir,
            retry=RetryPolicy(concurrency=workers), analysis_concurrency=workers,
        )
        manifest = run_bounded(paper_text, cfg)
        assert during_phase1[0], "no search raised before Phase I ended"
        assert manifest.phases["phase1"].status == "completed"
        assert manifest.phases["phase2"].status == "failed"
        assert manifest.phases["phase2"].error == "[phase2] RuntimeError: search client bug"
        assert manifest.phases["phase3"].status == "pending"

    @pytest.mark.parametrize("failure", ["core_task_too_short", "search_always_raises"])
    def test_failed_phase_recorded_at_concurrency_4(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, failure
    ):
        llm_fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        if failure == "core_task_too_short":
            for rule in llm_fixture["rules"]:
                if rule.get("system_contains") == "extract ONE short phrase":
                    rule["response"] = "Cache eviction"
            failed_phase = "phase1"
        else:
            failed_phase = "phase2"
        search = (
            AlwaysFailingSearch()
            if failure == "search_always_raises"
            else MockSearchClient.from_file(fixtures_dir / "mock_search.json")
        )
        monkeypatch.setattr(
            pipeline, "build_clients", lambda cfg: (MockLlmClient(llm_fixture), search)
        )
        cfg = make_config(
            tmp_path, fixtures_dir,
            retry=RetryPolicy(max_query_attempts=2, initial_delay=0.001, concurrency=4),
            analysis_concurrency=4,
        )
        manifest = run_bounded(paper_text, cfg)
        assert not manifest.succeeded
        assert manifest.phases[failed_phase].status == "failed"
        assert manifest.failure_log and manifest.failure_log[0].startswith(failed_phase)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["phases"][failed_phase]["status"] == "failed"
        assert on_disk["succeeded"] is False

    def test_one_similarity_check_per_full_text_candidate(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        cfg = make_config(
            tmp_path, fixtures_dir, retry=RetryPolicy(concurrency=4), analysis_concurrency=4
        )
        manifest, calls = run_recording_llm(monkeypatch, paper_text, cfg)
        assert manifest.succeeded
        unified = json.loads((tmp_path / "phase2.json").read_text())["candidate_set"]["unified"]
        texts = [p["full_text"] for p in unified if p["full_text"] is not None]
        checks = [c["user"] for c in calls if c["system"] == load_prompt("similarity_detection")]
        assert len(texts) == 2
        assert len(checks) == len(texts)
        for text in texts:
            assert sum(f"<Paper_B>\n{text}\n</Paper_B>" in user for user in checks) == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_full_text_tokenized_once(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, workers
    ):
        tokenized = []
        real = verification.tokenize

        def counting(text):
            tokenized.append(text)
            return real(text)

        monkeypatch.setattr(verification, "tokenize", counting)
        cfg = make_config(
            tmp_path, fixtures_dir,
            retry=RetryPolicy(concurrency=workers), analysis_concurrency=workers,
        )
        assert run_bounded(paper_text, cfg).succeeded
        unified = json.loads((tmp_path / "phase2.json").read_text())["candidate_set"]["unified"]
        texts = [p["full_text"] for p in unified if p["full_text"] is not None]
        assert len(texts) == 2
        # tokenized only when a quote is checked against it, and then once
        assert max(tokenized.count(text) for text in texts) == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_target_placed_once_per_taxonomy(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text, workers
    ):
        placed = []
        real = analysis.structural_position

        def counting(taxonomy, original):
            placed.append(original)
            return real(taxonomy, original)

        monkeypatch.setattr(analysis, "structural_position", counting)
        cfg = make_config(
            tmp_path, fixtures_dir,
            retry=RetryPolicy(concurrency=workers), analysis_concurrency=workers,
        )
        assert run_bounded(paper_text, cfg).succeeded
        assert len(placed) == 1
        assert (tmp_path / "phase3.json").read_bytes() == (goldens_dir / "phase3.json").read_bytes()

    def test_one_candidate_document_alive_at_a_time_with_one_worker(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        target, tokenized, peak, made = [], weakref.WeakSet(), [0], [0]

        class TrackedDocument(verification.Document):
            """Counts candidate documents alive once tokenized; the first made is the target."""

            def __init__(self, text):
                super().__init__(text)
                if not target:
                    target.append(weakref.ref(self))

            def _build(self):
                if self is not target[0]() and self not in tokenized:
                    tokenized.add(self)
                    made[0] += 1
                    peak[0] = max(peak[0], len(tokenized))
                return super()._build()

        monkeypatch.setattr(analysis, "Document", TrackedDocument)
        cfg = make_config(tmp_path, fixtures_dir, analysis_concurrency=1)
        assert run_bounded(paper_text, cfg).succeeded
        assert (tmp_path / "phase3.json").read_bytes() == (goldens_dir / "phase3.json").read_bytes()
        assert made[0] >= 2
        assert peak[0] == 1
        assert len(tokenized) == 0

    def test_dangling_citation_in_comparison_prose_stripped_and_rendered(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        fixture = (fixtures_dir / "mock_llm.json").read_text()
        for old, new in (
            ("Predictive Eviction [7] already", "Predictive Eviction [99] already"),
            ("furthest predicted reuse distance.", "furthest predicted reuse distance [98]."),
            ("A trace generator, not an eviction policy.", "A trace generator [97]."),
            ("while Foreseer[1] ranks", "while Foreseer[96] ranks"),
        ):
            assert fixture.count(old) == 1
            fixture = fixture.replace(old, new)
        llm = MockLlmClient(json.loads(fixture))
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (llm, MockSearchClient.from_file(cfg.search_fixture)),
        )
        manifest = run_bounded(paper_text, make_config(tmp_path, fixtures_dir))
        assert manifest.succeeded, manifest.failure_log
        report = next(tmp_path.glob("*.md")).read_text()
        phase3 = json.loads((tmp_path / "phase3.json").read_text())
        warnings = phase3["metadata"]["warnings"]
        stripped = [w for w in warnings if w.startswith("stripping dangling citations")]
        # one warning per stripped field, and only for fields the report holds
        assert len(stripped) == 3
        for index, where, text in (
            (99, "refutation summary", "Predictive Eviction  already"),
            (98, "evidence rationale", "furthest predicted reuse distance ."),
            (96, "sibling comparison", "while Foreseer ranks"),
        ):
            assert f"[{index}]" not in report
            assert text in report
            assert any(f"[{index}] from {where}" in w for w in stripped)
        # the [97] note answers for a claim the candidate is not compared against
        assert "A trace generator" not in json.dumps(phase3)

    @pytest.mark.parametrize("reply, summary, stripped", [
        (
            {"overall": "Close to Foreseer [99].", "similarities": ["Both learn [1][98]."],
             "differences": ["Drift [97]."]},
            {"overall": "Close to Foreseer .", "similarities": ["Both learn [1]."],
             "differences": ["Drift ."]},
            ["[99] from subtopic summary", "[98] from subtopic similarities",
             "[97] from subtopic differences"],
        ),
        (
            {"overall": "Close to Foreseer [1].", "similarities": 5,
             "differences": [None, 3, "Drift [0]."]},
            {"overall": "Close to Foreseer [1].", "similarities": [], "differences": ["Drift [0]."]},
            [],
        ),
        (
            {"overall": None, "similarities": ["Both learn."], "differences": "Drift."},
            {"overall": "", "similarities": ["Both learn."], "differences": []},
            [],
        ),
    ], ids=["dangling", "mistyped", "null"])
    def test_mistyped_or_dangling_subtopic_summary_still_renders(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, reply, summary, stripped
    ):
        fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        [taxonomy] = [
            rule["response"] for rule in fixture["rules"]
            if rule.get("system_contains") == "rigorous academic taxonomies"
        ]
        # the target alone in its leaf, beside a populated one: subtopic_siblings mode
        reuse, learned = taxonomy["subtopics"][0]["subtopics"]
        learned["papers"] += reuse["papers"][1:]
        del reuse["papers"][1:]
        fixture["rules"].insert(0, {"system_contains": "against sibling subtopics", "response": reply})
        llm = MockLlmClient(fixture)
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (llm, MockSearchClient.from_file(cfg.search_fixture)),
        )
        manifest = run_bounded(paper_text, make_config(tmp_path, fixtures_dir))
        assert manifest.succeeded, manifest.failure_log
        report = json.loads((tmp_path / "phase3.json").read_text())
        assert report["core_task_comparisons"]["mode"] == "subtopic_siblings"
        assert report["core_task_comparisons"]["subtopic_summary"] == summary
        warnings = [w for w in report["metadata"]["warnings"] if w.startswith("stripping dangling")]
        assert [w.split("citations ")[1] for w in warnings] == stripped
        section = next(tmp_path.glob("*.md")).read_text().split("## Core Task Comparisons")[1]
        section = section.split("## Contribution Analysis")[0]
        assert "None" not in section
        for line in [summary["overall"], *summary["similarities"], *summary["differences"]]:
            assert line in section

    @pytest.mark.parametrize("system, user, path, value", [
        ("comparative reviewer", "Predictive Eviction",
         ("contribution_analyses", 0, "refutation_evidence", "evidence_pairs", 0, "rationale"),
         None),
        ("prior-work search queries", None, ("queries", 0, "prior_work_query"), None),
        ("rewriting academic search queries", "adaptive cache", ("variants", 0), None),
        ("survey-style narrative", None, ("narrative",), None),
        ("Originality / Novelty", None, ("paragraphs",), None),
        ("SAME taxonomy category", "Foreseer", ("is_duplicate_variant",), "false"),
        ("extract the main contributions", None, ("contributions", 0, "source_hint"),
         float("nan")),
        ("plagiarism detection system", "the foretell", ("plagiarism_segments", 0,
                                                         "plagiarism_type"), None),
    ], ids=["rationale_null", "prior_work_query_null", "variant_null", "narrative_null",
            "paragraphs_null", "is_duplicate_variant_text", "source_hint_nan",
            "plagiarism_type_null"])
    def test_mistyped_reply_field_never_reaches_a_search_or_the_report(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, system, user, path, value
    ):
        fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        [rule] = [
            rule for rule in fixture["rules"]
            if rule.get("system_contains") == system
            and (user is None or rule.get("user_contains", "").startswith(user))
        ]
        *path, last = ("response", *path)
        node = rule
        for key in path:
            node = node[key]
        node[last] = value
        report, searches = run_with_llm_fixture(monkeypatch, tmp_path, fixtures_dir, paper_text,
                                                fixture)
        assert LEAKED_WORD.findall(report) == []
        assert [q for q in searches if LEAKED_WORD.search(q)] == []
        assert report.count("**Duplicate variant:** yes") == 1

    def test_taxonomy_with_every_paper_on_its_root_renders_them(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        [taxonomy] = [
            rule["response"] for rule in fixture["rules"]
            if rule.get("system_contains") == "rigorous academic taxonomies"
        ]
        ids = [pid for branch in taxonomy["subtopics"] for leaf in branch["subtopics"]
               for pid in leaf["papers"]]
        taxonomy["papers"] = ids
        del taxonomy["subtopics"]
        report, _ = run_with_llm_fixture(monkeypatch, tmp_path, fixtures_dir, paper_text, fixture)
        stored = json.loads((tmp_path / "phase3.json").read_text())["core_task_survey"]
        assert stored["taxonomy"]["papers"] == ids
        section = report.split("### Taxonomy")[1].split("### Narrative")[0]
        cited = re.findall(r"^  - .* \[(\d+)\]: ", section, flags=re.MULTILINE)
        assert cited == [str(i) for i in range(len(ids))]

    def test_paper_merged_across_scopes_compared_under_its_pool_id(
        self, tmp_path, fixtures_dir, paper_text
    ):
        # the core-scope hits of Foreseer carry a DOI, its contribution-scope hits only the arXiv id
        search_fixture = json.loads((fixtures_dir / "mock_search.json").read_text())
        for query, spec in search_fixture["queries"].items():
            for hit in spec.get("results", []):
                if hit["title"].startswith("Foreseer") and not query.startswith(QUERY_PREFIX):
                    hit["identifiers"]["doi"] = "10.5555/foreseer"
        patched = tmp_path / "search_with_doi.json"
        patched.write_text(json.dumps(search_fixture))
        cfg = make_config(tmp_path / "out", fixtures_dir, search_fixture=patched)
        assert run_pipeline(paper_text, cfg).succeeded
        report = json.loads((tmp_path / "out" / "phase3.json").read_text())
        claim = report["contribution_analysis"]["contributions"][0]
        assert claim["claim_id"] == "contribution_1"
        titles = {r["canonical_id"]: r["title"] for r in report["references"]}
        [entry] = [
            c for c in claim["comparisons"] if titles[c["canonical_id"]].startswith("Foreseer")
        ]
        assert entry["canonical_id"] == "doi:10.5555/foreseer"
        assert entry["comparison_mode"] == "fulltext"

    def test_core_scope_calls_start_while_contribution_searches_are_out(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        taxonomy_prompt = load_prompt("taxonomy_construction")
        taxonomy_seen = threading.Event()
        held = []

        class WatchedLlm(MockLlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                if system_prompt == taxonomy_prompt:
                    taxonomy_seen.set()
                return super().complete(system_prompt, user_prompt, temperature)

        class HeldSearch(MockSearchClient):
            def search(self, query):
                if query.startswith(QUERY_PREFIX):
                    held.append(taxonomy_seen.wait(5))
                return super().search(query)

        llm = WatchedLlm.from_file(fixtures_dir / "mock_llm.json")
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (llm, HeldSearch.from_file(cfg.search_fixture)),
        )
        # wider than the contribution searches, so a held one never keeps a core one waiting
        cfg = make_config(
            tmp_path, fixtures_dir, retry=RetryPolicy(concurrency=8), analysis_concurrency=4
        )
        assert run_bounded(paper_text, cfg).succeeded
        assert held and all(held), "a contribution search ran out its wait for the taxonomy call"
        assert llm.call_count(taxonomy_prompt) == 1
        assert llm.call_count(load_prompt("one_liner")) == 1
        for name in ("phase2.json", "phase3.json"):
            assert (tmp_path / name).read_bytes() == (goldens_dir / name).read_bytes()
        md = next(tmp_path.glob("*.md"))
        assert md.read_bytes() == (goldens_dir / "report.md").read_bytes()

    @pytest.mark.parametrize("change", [
        "contribution_hit_upgrade", "within_core_title_merge", "contribution_url_fill",
        "contribution_full_text_fill",
    ])
    def test_early_calls_made_again_only_when_a_core_record_changed(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, caplog, change
    ):
        search = json.loads((fixtures_dir / "mock_search.json").read_text())
        if change == "contribution_hit_upgrade":
            foreseer_doi_on_contribution_hits(search)
            # the early taxonomy call sees the core record as filtered, the one made again
            # sees it upgraded
            seen = [False, True]
            marker = "doi:10.5555/foreseer"
            discards = [f"early core-scope calls discarded: arxiv:2401.11111, {marker} changed"]
            # the discarded start's calls: the taxonomy, the one-liners and one distinction
            # per sibling it placed the target beside
            extra = {"taxonomy_construction": 1, "one_liner": 1, "sibling_distinction": 2}
        elif change == "contribution_url_fill":
            # cross-scope dedup fills in Foreseer's url from a contribution copy, and with
            # it the date read from the url: no core-scope prompt carries either
            marker = "https://arxiv.org/abs/2401.11111"
            for query, spec in search["queries"].items():
                for hit in spec.get("results", []):
                    if hit["title"].startswith("Foreseer") and not query.startswith(QUERY_PREFIX):
                        del hit["url"]
            seen = [False]
            discards = []
            extra = {}
        elif change == "contribution_full_text_fill":
            # Foreseer's full text only on a contribution copy: the sibling distinction
            # calls send it, so the early ones, made without it, are discarded
            foreseer = [(query, hit) for query, spec in search["queries"].items()
                        for hit in spec.get("results", []) if hit["title"].startswith("Foreseer")]
            [full_text] = [hit.pop("full_text") for _, hit in foreseer if "full_text" in hit]
            for query, hit in foreseer:
                if query.startswith(QUERY_PREFIX):
                    hit["full_text"] = full_text
            marker = full_text[-60:]
            seen = [False, False]
            discards = ["early core-scope calls discarded: arxiv:2401.11111 changed"]
            extra = {"taxonomy_construction": 1, "one_liner": 1, "sibling_distinction": 2}
        else:
            # a second core hit titled as Foreseer, under another id, merges into it in the
            # pool the early start reads too
            queries = search["queries"]
            [foreseer] = [
                hit for hit in queries["learned cache replacement under changing access patterns"]
                ["results"] if hit["title"].startswith("Foreseer")
            ]
            copy_hit = dict(foreseer, identifiers={"openreview_id": "foreseer-copy"})
            queries["adaptive eviction strategies for storage caches with workload drift"][
                "results"
            ].append(copy_hit)
            seen = [False]
            marker = "openreview:foreseer-copy"
            discards = []
            extra = {}
        llm_fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        taxonomy_prompt = load_prompt("taxonomy_construction")
        sibling_prompt = load_prompt("sibling_distinction")
        caplog.set_level(logging.INFO, logger="noveltycheck.analysis")
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"workers{workers}"
            out.mkdir()
            caplog.clear()
            siblings_sent = threading.Semaphore(0)
            held = []

            class WatchedLlm(MockLlmClient):
                def complete(self, system_prompt, user_prompt, temperature=0.0):
                    if system_prompt == sibling_prompt:
                        siblings_sent.release()
                    return super().complete(system_prompt, user_prompt, temperature)

            class HeldSearch(MockSearchClient):
                # with workers, the last search waits for the early start's two sibling
                # calls, so that every early call has begun before Phase III can discard it
                def search(self, query):
                    if query == LAST_QUERY and workers > 1:
                        held.append(all(siblings_sent.acquire(timeout=5) for _ in range(2)))
                    return super().search(query)

            (early, early_md, calls), (resumed, resumed_md, resumed_calls) = run_then_resume(
                monkeypatch, out, fixtures_dir, paper_text, llm_fixture, search, workers,
                llm_class=WatchedLlm, search_class=HeldSearch,
            )
            assert held == ([True] if workers > 1 else [])
            assert [r.getMessage() for r in caplog.records if "discarded" in r.getMessage()] == (
                discards
            )
            payloads = [c["user"] for c in calls if c["system"] == taxonomy_prompt]
            assert [marker in p for p in payloads] == seen
            assert (early, early_md) == (resumed, resumed_md)
            early_calls = phase3_calls_per_prompt(calls)
            resumed_calls = phase3_calls_per_prompt(resumed_calls)
            assert {name: early_calls[name] - resumed_calls[name] for name in PHASE3_PROMPTS} == {
                name: extra.get(name, 0) for name in PHASE3_PROMPTS
            }
            outputs.append(((out / "run" / "phase2.json").read_bytes(), early, early_md))
        assert outputs[0] == outputs[1]

    def test_discarded_early_start_sends_no_sibling_call(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        search = tmp_path / "search_with_doi.json"
        search.write_text(json.dumps(foreseer_doi_on_contribution_hits(
            json.loads((fixtures_dir / "mock_search.json").read_text())
        )))
        taxonomy_prompt = load_prompt("taxonomy_construction")
        early_begun, remade = threading.Event(), threading.Event()
        held = []

        class HeldLlm(MockLlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                if system_prompt == taxonomy_prompt:
                    if "doi:10.5555/foreseer" in user_prompt:  # made again after the discard
                        remade.set()
                    else:  # the early call returns only once its start is discarded
                        early_begun.set()
                        held.append(remade.wait(5))
                return super().complete(system_prompt, user_prompt, temperature)

        class HeldSearch(MockSearchClient):
            # so that Phase III cannot discard the early start before its taxonomy call begins
            def search(self, query):
                if query == LAST_QUERY:
                    held.append(early_begun.wait(5))
                return super().search(query)

        llm = HeldLlm.from_file(fixtures_dir / "mock_llm.json")
        monkeypatch.setattr(
            pipeline, "build_clients", lambda cfg: (llm, HeldSearch.from_file(search))
        )
        cfg = make_config(
            tmp_path / "out", fixtures_dir, search_fixture=search,
            retry=RetryPolicy(concurrency=2), analysis_concurrency=2,
        )
        assert run_bounded(paper_text, cfg).succeeded
        assert held == [True, True], "a wait for the other call ran out"
        assert llm.call_count(taxonomy_prompt) == 2
        # the start made again places the target beside one sibling; the discarded
        # start, beside two, must have sent no call for them
        assert llm.call_count(load_prompt("sibling_distinction")) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["sibling", "subtopic_siblings", "isolated", "unplaced"])
    def test_core_task_comparison_started_early_equals_a_resumed_run(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, mode, workers
    ):
        fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        [taxonomy] = [
            rule["response"] for rule in fixture["rules"]
            if rule.get("system_contains") == "rigorous academic taxonomies"
        ]
        reuse, learned = taxonomy["subtopics"][0]["subtopics"]
        target = reuse["papers"][0]
        if mode == "subtopic_siblings":  # alone in its leaf, beside a populated leaf
            learned["papers"] += reuse["papers"][1:]
            reuse["papers"] = [target]
            fixture["rules"].append({
                "system_contains": "sibling subtopics",
                "response": {
                    "overall": "The leaf predicts reuse distance; its neighbor learns by trial.",
                    "similarities": ["learned eviction"],
                    "differences": ["supervised reuse prediction"],
                },
            })
        elif mode == "isolated":  # alone in a branch of its own
            reuse["papers"].remove(target)
            notes = {"scope_note": "Drift-aware policies.", "exclude_note": "Static policies."}
            taxonomy["subtopics"].append({
                "name": "Drift-Aware Eviction", **notes,
                "subtopics": [{"name": "Drift-Aware Policies", **notes, "papers": [target]}],
            })
        elif mode == "unplaced":  # nowhere, so its position is unknown
            reuse["papers"].remove(target)
        search = json.loads((fixtures_dir / "mock_search.json").read_text())
        (early, early_md, calls), (resumed, resumed_md, resumed_calls) = run_then_resume(
            monkeypatch, tmp_path, fixtures_dir, paper_text, fixture, search, workers
        )
        stored = json.loads(early)["core_task_comparisons"]
        assert stored["mode"] == ("isolated" if mode == "unplaced" else mode)
        if mode == "unplaced":
            assert stored["isolation"]["note"].endswith("target position in taxonomy is unknown.")
            assert "structural position unavailable: original paper assigned 0 times, expected" \
                " exactly once" in json.loads(early)["metadata"]["warnings"]
        assert (early, early_md) == (resumed, resumed_md)
        assert phase3_calls_per_prompt(calls) == phase3_calls_per_prompt(resumed_calls)

    def test_sibling_calls_start_before_the_last_contribution_search_returns(
        self, monkeypatch, tmp_path, fixtures_dir, goldens_dir, paper_text
    ):
        sibling_prompt = load_prompt("sibling_distinction")
        sibling_seen = threading.Event()
        held = []

        class WatchedLlm(MockLlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                if system_prompt == sibling_prompt:
                    sibling_seen.set()
                return super().complete(system_prompt, user_prompt, temperature)

        class HeldSearch(MockSearchClient):
            def search(self, query):
                if query == LAST_QUERY:
                    held.append(sibling_seen.wait(5))
                return super().search(query)

        llm = WatchedLlm.from_file(fixtures_dir / "mock_llm.json")
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (llm, HeldSearch.from_file(cfg.search_fixture)),
        )
        cfg = make_config(
            tmp_path, fixtures_dir, retry=RetryPolicy(concurrency=2), analysis_concurrency=2
        )
        assert run_bounded(paper_text, cfg).succeeded
        assert held == [True], "the last contribution search ran out its wait for a sibling call"
        assert llm.call_count(sibling_prompt) == 2
        for name in ("phase2.json", "phase3.json"):
            assert (tmp_path / name).read_bytes() == (goldens_dir / name).read_bytes()

    def test_raising_backoff_wait_fails_phase2(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        search = json.loads((fixtures_dir / "mock_search.json").read_text())
        search["queries"]["learned cache replacement under changing access patterns"][
            "fail_times"
        ] = 1
        patched = tmp_path / "search_failing_once.json"
        patched.write_text(json.dumps(search))

        def broken_sleep(_):
            raise RuntimeError("backoff broke")

        monkeypatch.setattr(
            pipeline, "QueryRunner", functools.partial(pipeline.QueryRunner, sleep=broken_sleep)
        )
        cfg = make_config(
            tmp_path / "out", fixtures_dir, search_fixture=patched,
            retry=RetryPolicy(concurrency=2), analysis_concurrency=2,
        )
        manifest = run_bounded(paper_text, cfg, timeout=10)
        assert manifest.phases["phase1"].status == "completed"
        assert manifest.phases["phase2"].status == "failed"
        assert manifest.phases["phase2"].error == "[phase2] RuntimeError: backoff broke"
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk["phases"]["phase2"]["status"] == "failed"

    def test_sampling_temperature_per_prompt(self, monkeypatch, tmp_path, fixtures_dir, paper_text):
        # without a URL the target's publication date is asked of the model too
        manifest, calls = run_recording_llm(
            monkeypatch, paper_text, make_config(tmp_path, fixtures_dir, target_url=None)
        )
        assert manifest.succeeded
        names = {load_prompt(name): name for name in TEMPERATURES}
        sent = [(names.get(c["system"]), c["temperature"]) for c in calls]
        assert [c["system"][:60] for c in calls if c["system"] not in names] == []
        assert "publication_date" in {name for name, _ in sent}
        kinds = {(n if n in ("core_task", "query_variants") else "other", t) for n, t in sent}
        assert kinds == {("core_task", 0.1), ("query_variants", 0.2), ("other", 0.0)}

    def test_error_outside_the_pipeline_fails_its_phase(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        write_json = pipeline._write_json

        def disk_full_on_phase2(path, payload):
            if path.name == "phase2.json":
                raise OSError(28, "No space left on device")
            write_json(path, payload)

        monkeypatch.setattr(pipeline, "_write_json", disk_full_on_phase2)
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir))
        assert not manifest.succeeded
        assert manifest.phases["phase1"].status == "completed"
        assert manifest.phases["phase2"].status == "failed"
        assert "No space left on device" in manifest.phases["phase2"].error
        assert manifest.phases["phase3"].status == "pending"
        assert manifest.phases["phase4"].status == "pending"
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["phases"]["phase2"]["status"] == "failed"
        assert on_disk["succeeded"] is False

    def test_non_finite_score_fails_phase3_naming_its_field(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text
    ):
        # JSON has no NaN: the report is refused before phase3.json is written
        nan = verification.QuoteLocation(found=True, match_score=float("nan"))
        monkeypatch.setattr(analysis, "verify_quote", lambda quote, doc: nan)
        manifest = run_pipeline(paper_text, make_config(tmp_path, fixtures_dir))
        status = manifest.phases["phase3"]
        assert status.status == "failed"
        assert status.error == "QuoteLocation: key 'match_score' is nan, not a finite number"
        assert manifest.failure_log == [f"phase3: {status.error}"]
        assert manifest.phases["phase4"].status == "pending"
        assert not (tmp_path / "phase3.json").exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["phases"]["phase3"]["error"] == status.error

    @pytest.mark.parametrize("workers", [0, -3])
    def test_analysis_concurrency_below_one_rejected(
        self, tmp_path, fixtures_dir, paper_text, workers
    ):
        cfg = make_config(tmp_path, fixtures_dir, analysis_concurrency=workers)
        with pytest.raises(InvalidInputError, match="analysis_concurrency"):
            cfg.validate()
        with pytest.raises(InvalidInputError):
            run_pipeline(paper_text, cfg)
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("setting, value, message", [
        ("topk_core", -1, "topk_core"),
        ("topk_core", 0, "topk_core"),
        ("topk_contribution", 0, "topk_contribution"),
        ("topk_core", 2.5, "topk_core must be an integer"),
        ("topk_contribution", 3.0, "topk_contribution must be an integer"),
        ("analysis_concurrency", 1.5, "analysis_concurrency must be an integer"),
        ("quote_truncation_limit", 10, "quote truncation limit"),
        ("quote_truncation_limit", 30.5, "quote truncation limit must be an integer"),
    ], ids=["topk_core_negative", "topk_core_zero", "topk_contribution_zero",
            "topk_core_fraction", "topk_contribution_float", "analysis_concurrency_fraction",
            "quote_limit_10", "quote_limit_fraction"])
    def test_setting_out_of_range_rejected_before_any_model_call(
        self, monkeypatch, tmp_path, fixtures_dir, paper_text, setting, value, message
    ):
        cfg = make_config(tmp_path, fixtures_dir, **{setting: value})
        with pytest.raises(InvalidInputError, match=message):
            cfg.validate()
        llm = MockLlmClient.from_file(cfg.llm_fixture)
        monkeypatch.setattr(
            pipeline, "build_clients",
            lambda cfg: (llm, MockSearchClient.from_file(cfg.search_fixture)),
        )
        with pytest.raises(InvalidInputError, match=message):
            run_pipeline(paper_text, cfg)
        assert llm.calls == []
        assert not (tmp_path / "manifest.json").exists()

    def test_mock_mode_requires_fixtures(self, tmp_path):
        cfg = PipelineConfig(output_dir=tmp_path, mock=True)
        with pytest.raises(Exception):
            run_pipeline("some text", cfg)

    def test_golden_report_safety_invariant(self, goldens_dir):
        """Every surviving can_refute entry carries a doubly-verified pair."""
        report = json.loads((goldens_dir / "phase3.json").read_text())
        refutations = 0
        for contribution in report["contribution_analysis"]["contributions"]:
            for entry in contribution["comparisons"]:
                if entry["refutation_status"] != "can_refute":
                    continue
                refutations += 1
                pairs = entry["refutation_evidence"]["evidence_pairs"]
                assert any(
                    p["original_location"]["found"] and p["candidate_location"]["found"]
                    for p in pairs
                )
        assert refutations >= 1  # the fixture exercises a surviving refutation

    def test_zero_contributions_degrades_to_core_scope(
        self, tmp_path, fixtures_dir, paper_text
    ):
        llm_fixture = json.loads((fixtures_dir / "mock_llm.json").read_text())
        for rule in llm_fixture["rules"]:
            if rule.get("system_contains") == "extract the main contributions":
                rule["response"] = {"contributions": []}
        patched = tmp_path / "llm_no_claims.json"
        patched.write_text(json.dumps(llm_fixture))
        cfg = make_config(tmp_path / "out", fixtures_dir, llm_fixture=patched)
        manifest = run_pipeline(paper_text, cfg)
        assert manifest.succeeded
        phase1 = json.loads((tmp_path / "out" / "phase1.json").read_text())
        assert phase1["result"]["contributions"] == []
        assert any("below the 6-12 range" in w for w in phase1["result"]["warnings"])
        report = json.loads((tmp_path / "out" / "phase3.json").read_text())
        assert report["contribution_analysis"]["contributions"] == []


def old_layout(report):
    """``report`` as phase3.json stored it while each comparison entry held its
    candidate's segments, title and URL as well, the one-liners sat in a papers index
    beside each paper's citation, title, URL and rank, counts were stored beside
    the lists they count, and an md5 of the taxonomy, which no reader used, beside it."""
    report = copy.deepcopy(report)
    refs = {ref["canonical_id"]: ref for ref in report["references"]}
    survey = report["core_task_survey"]
    survey["taxonomy_content_hash"] = "4675f7af4c8e82650c85c5d8d94bf4ad"
    one_liners = survey.pop("one_liners")
    survey["papers_index"] = []
    target_id = report["original_paper"]["canonical_id"]
    for rank, pid in enumerate(dict.fromkeys([target_id, *one_liners])):
        entry = {key: refs[pid][key] for key in ("canonical_id", "index", "alias", "title", "url")}
        entry["rank"] = rank
        if pid in one_liners:
            entry["one_liner"] = one_liners[pid]
        survey["papers_index"].append(entry)
    segments = report["textual_similarity"]["segments_by_candidate"]
    cta = report["core_task_comparisons"]
    entries = list(cta["comparisons"])
    for contribution in report["contribution_analysis"]["contributions"]:
        comparisons = contribution["comparisons"]
        refuting = sum(e["refutation_status"] == "can_refute" for e in comparisons)
        contribution["statistics"] = {
            "candidates_examined": len(comparisons),
            "can_refute": refuting,
            "non_refutable_or_unclear": len(comparisons) - refuting,
        }
        entries += comparisons
    for entry in entries:
        entry["similarity_segments"] = segments.get(entry["canonical_id"], [])
        entry["candidate_paper_title"] = refs[entry["canonical_id"]]["title"]
        entry["candidate_paper_url"] = refs[entry["canonical_id"]]["url"]
    report["textual_similarity"]["total_segments"] = sum(map(len, segments.values()))
    report["textual_similarity"]["candidates_with_overlap"] = list(segments)
    report["metadata"]["component_flags"] = {
        "taxonomy_status": report["core_task_survey"]["taxonomy_status"],
        "core_task_comparison_mode": cta["mode"],
    }
    return report


def nested_taxonomy(depth: int) -> str:
    """The JSON text of a taxonomy ``depth`` subtopics deep, built as text: ``json.dumps``
    recurses once per level."""
    text = '{"name": "leaf", "papers": ["p1"]}'
    for _ in range(depth):
        text = f'{{"name": "n", "subtopics": [{text}]}}'
    return text


class TestCli:
    def test_render_from_phase3_json(self, tmp_path, goldens_dir):
        runner = CliRunner()
        out = tmp_path / "report.md"
        result = runner.invoke(
            cli_main,
            ["render", "--input", str(goldens_dir / "phase3.json"), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (goldens_dir / "report.md").read_bytes()

    def test_old_layout_phase3_renders_the_golden_report(self, tmp_path, fixtures_dir, goldens_dir):
        # keys a class no longer declares are read past, by render and on resume
        run = [
            "run", "--input", str(fixtures_dir / "target_paper.txt"), "--out-dir", str(tmp_path),
            "--mock", "--llm-fixture", str(fixtures_dir / "mock_llm.json"),
            "--search-fixture", str(fixtures_dir / "mock_search.json"),
            "--url", TARGET_URL, "--timestamp", TIMESTAMP,
        ]
        assert CliRunner().invoke(cli_main, run).exit_code == 0
        phase3 = tmp_path / "phase3.json"
        phase3.write_text(json.dumps(old_layout(json.loads(phase3.read_text()))))
        [md] = tmp_path.glob("*.md")
        md.unlink()
        result = CliRunner().invoke(cli_main, [*run, "--resume"])
        assert result.exit_code == 0, result.output
        assert "phase3: skipped" in result.output
        golden = (goldens_dir / "report.md").read_bytes()
        assert md.read_bytes() == golden
        out = tmp_path / "rendered.md"
        result = CliRunner().invoke(cli_main, ["render", "--input", str(phase3), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == golden

    def test_validate_taxonomy_invalid_exits_one(self, tmp_path):
        tax = {
            "name": "X Survey Taxonomy",
            "subtopics": [
                {"name": "A", "scope_note": "s", "exclude_note": "e", "papers": ["p1", "ghost"]}
            ],
        }
        tax_path = tmp_path / "tax.json"
        tax_path.write_text(json.dumps(tax))
        allowed_path = tmp_path / "allowed.json"
        allowed_path.write_text(json.dumps(["p1", "p2"]))
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["validate-taxonomy", "--input", str(tax_path), "--allowed", str(allowed_path)],
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["missing_ids"] == ["p2"]
        assert payload["extra_ids"] == ["ghost"]

    def test_validate_taxonomy_valid_exits_zero(self, tmp_path):
        tax = {
            "name": "X Survey Taxonomy",
            "subtopics": [
                {"name": "A", "scope_note": "s", "exclude_note": "e", "papers": ["p1", "p2"]}
            ],
        }
        (tmp_path / "tax.json").write_text(json.dumps(tax))
        (tmp_path / "allowed.json").write_text(json.dumps(["p1", "p2"]))
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            ["validate-taxonomy", "--input", str(tmp_path / "tax.json"),
             "--allowed", str(tmp_path / "allowed.json")],
        )
        assert result.exit_code == 0

    def test_run_mock_smoke(self, tmp_path, fixtures_dir):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            [
                "run",
                "--input", str(fixtures_dir / "target_paper.txt"),
                "--out-dir", str(tmp_path),
                "--mock",
                "--llm-fixture", str(fixtures_dir / "mock_llm.json"),
                "--search-fixture", str(fixtures_dir / "mock_search.json"),
                "--url", TARGET_URL,
                "--timestamp", TIMESTAMP,
            ],
        )
        assert result.exit_code == 0, result.output
        assert "phase4: completed" in result.output
        assert (tmp_path / "phase3.json").exists()

    @pytest.mark.parametrize("option", ["--concurrency", "--max-attempts"])
    def test_run_rejects_non_positive_knob(self, tmp_path, fixtures_dir, option):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            [
                "run",
                "--input", str(fixtures_dir / "target_paper.txt"),
                "--out-dir", str(tmp_path),
                "--mock",
                "--llm-fixture", str(fixtures_dir / "mock_llm.json"),
                "--search-fixture", str(fixtures_dir / "mock_search.json"),
                option, "0",
            ],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "must be positive" in result.output

    @pytest.mark.parametrize(
        "case",
        [
            "render_cut_json", "render_missing_out_dir", "render_empty_taxonomy",
            "render_null_narrative", "render_null_quote", "render_nan_score",
            "taxonomy_missing_name", "allowed_number", "allowed_nested_list",
            "quote_empty_doc", "run_not_utf8", "run_nan_delay", "run_inf_delay",
            "run_huge_delay", "render_deep_taxonomy", "validate_deep_taxonomy",
            "validate_number_paper",
        ],
    )
    def test_bad_input_prints_one_error_line(self, tmp_path, fixtures_dir, goldens_dir, case):
        path = tmp_path / "input"
        if case == "render_cut_json":
            path.write_bytes((goldens_dir / "phase3.json").read_bytes()[:300])
            args = ["render", "--input", str(path), "--out", str(tmp_path / "report.md")]
        elif case in ("render_empty_taxonomy", "render_null_narrative"):
            report = json.loads((goldens_dir / "phase3.json").read_text())
            key, value = ("taxonomy", {}) if case == "render_empty_taxonomy" else ("narrative", None)
            report["core_task_survey"][key] = value
            path.write_text(json.dumps(report))
            args = ["render", "--input", str(path), "--out", str(tmp_path / "report.md")]
        elif case in ("render_null_quote", "render_nan_score"):
            report = json.loads((goldens_dir / "phase3.json").read_text())
            entry = report["contribution_analysis"]["contributions"][0]["comparisons"][0]
            pair = entry["refutation_evidence"]["evidence_pairs"][0]
            if case == "render_null_quote":
                pair["original_quote"] = None
            else:  # json.dumps writes a bare NaN, and json.loads reads it back
                pair["original_location"]["match_score"] = float("nan")
            path.write_text(json.dumps(report))
            args = ["render", "--input", str(path), "--out", str(tmp_path / "report.md")]
        elif case == "render_deep_taxonomy":
            # 500 levels: within orjson's nesting limit, past the interpreter's recursion limit
            report = json.loads((goldens_dir / "phase3.json").read_text())
            report["core_task_survey"]["taxonomy"] = "DEEP"
            path.write_text(json.dumps(report).replace('"DEEP"', nested_taxonomy(500)))
            args = ["render", "--input", str(path), "--out", str(tmp_path / "report.md")]
        elif case == "validate_deep_taxonomy":
            path.write_text(nested_taxonomy(500))
            (tmp_path / "allowed.json").write_text(json.dumps(["p1"]))
            args = ["validate-taxonomy", "--input", str(path),
                    "--allowed", str(tmp_path / "allowed.json")]
        elif case == "validate_number_paper":  # a lenient read would drop the 1 and pass
            path.write_text(json.dumps({"name": "X Survey Taxonomy", "subtopics": [
                {"name": "A", "scope_note": "s", "exclude_note": "e", "papers": ["a", 1, "b"]}
            ]}))
            (tmp_path / "allowed.json").write_text(json.dumps(["a", "b"]))
            args = ["validate-taxonomy", "--input", str(path),
                    "--allowed", str(tmp_path / "allowed.json")]
        elif case == "render_missing_out_dir":
            args = ["render", "--input", str(goldens_dir / "phase3.json"),
                    "--out", str(tmp_path / "missing" / "report.md")]
        elif case == "taxonomy_missing_name":
            path.write_text(json.dumps({"foo": 1}))
            (tmp_path / "allowed.json").write_text(json.dumps(["p1"]))
            args = ["validate-taxonomy", "--input", str(path),
                    "--allowed", str(tmp_path / "allowed.json")]
        elif case in ("allowed_number", "allowed_nested_list"):
            path.write_text(json.dumps({"name": "X Survey Taxonomy", "papers": ["p1"]}))
            allowed = 5 if case == "allowed_number" else [[1]]
            (tmp_path / "allowed.json").write_text(json.dumps(allowed))
            args = ["validate-taxonomy", "--input", str(path),
                    "--allowed", str(tmp_path / "allowed.json")]
        elif case == "quote_empty_doc":
            path.write_text("")
            args = ["verify-quote", "--quote", "any quote at all", "--doc", str(path)]
        else:
            args = [
                "run", "--input", str(path), "--out-dir", str(tmp_path / "out"), "--mock",
                "--llm-fixture", str(fixtures_dir / "mock_llm.json"),
                "--search-fixture", str(fixtures_dir / "mock_search.json"),
            ]
            if case == "run_not_utf8":
                path.write_bytes(b"Title\n\n\xff\xfe not utf-8\n")
            else:
                shutil.copy(fixtures_dir / "target_paper.txt", path)
                delay = {"run_nan_delay": "nan", "run_inf_delay": "inf"}.get(case, "1e300")
                args += ["--initial-delay", delay]
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert len(result.output.splitlines()) == 1, result.output[:2000]

    def test_unknown_flag_exits_two(self):
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--frobnicate"])
        assert result.exit_code == 2

    def test_render_rejects_report_missing_module(self, tmp_path, goldens_dir):
        report = json.loads((goldens_dir / "phase3.json").read_text())
        del report["references"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(report))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["render", "--input", str(broken)])
        assert result.exit_code == 1
        assert "references" in result.output

    def test_render_rejects_report_missing_nested_key(self, tmp_path, goldens_dir):
        report = json.loads((goldens_dir / "phase3.json").read_text())
        del report["references"][0]["title"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(report))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["render", "--input", str(broken)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output and "'title'" in result.output

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b'"title": "', b'"title": "\\ud800', 1),
        lambda b: re.sub(rb'"year": \d+', b'"year": 18446744073709551616', b, count=1),
        functools.partial(with_isbn_id, lambda report: report["original_paper"]),
        functools.partial(with_isbn_id, lambda report: report["references"][-1]),
    ], ids=["lone-surrogate", "int-above-64-bits", "original-id-scheme", "reference-id-scheme"])
    def test_render_refuses_what_resume_refuses(self, tmp_path, goldens_dir, edit):
        # render reads phase3.json as --resume does, and leaves no report behind
        golden = (goldens_dir / "phase3.json").read_bytes()
        path = tmp_path / "phase3.json"
        path.write_bytes(edit(golden))
        assert path.read_bytes() != golden
        args = ["render", "--input", str(path), "--out", str(tmp_path / "report.md")]
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert result.output.startswith("error: cannot load phase3.json: "), result.output
        assert len(result.output.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [path]

    def test_mistyped_taxonomy_is_refused_at_load(self, tmp_path, fixtures_dir):
        # a paper id stored as a number fails the codec's check, as any mistyped field does
        run = [
            "run", "--input", str(fixtures_dir / "target_paper.txt"), "--out-dir", str(tmp_path),
            "--mock", "--llm-fixture", str(fixtures_dir / "mock_llm.json"),
            "--search-fixture", str(fixtures_dir / "mock_search.json"),
            "--url", TARGET_URL, "--timestamp", TIMESTAMP,
        ]
        assert CliRunner().invoke(cli_main, run).exit_code == 0
        phase3 = tmp_path / "phase3.json"
        report = json.loads(phase3.read_text())
        leaf = report["core_task_survey"]["taxonomy"]
        while not leaf.get("papers"):
            leaf = leaf["subtopics"][0]
        leaf["papers"][-1] = 1
        phase3.write_text(json.dumps(report))
        [md] = tmp_path.glob("*.md")
        md.unlink()
        out = tmp_path / "rendered.md"
        result = CliRunner().invoke(cli_main, ["render", "--input", str(phase3), "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert result.output == (
            "error: cannot load phase3.json: "
            "TaxonomyNode: key 'papers' holds an integer, not a string\n"
        )
        result = CliRunner().invoke(cli_main, [*run, "--resume"])
        assert result.exit_code == 1
        assert result.output == (
            "phase1: skipped\nphase2: skipped\nphase3: failed ([phase3] cannot load phase3.json: "
            "TaxonomyNode: key 'papers' holds an integer, not a string)\nphase4: pending\n"
        )
        assert list(tmp_path.glob("*.md")) == []

    def test_verify_quote_command(self, tmp_path, fixtures_dir):
        runner = CliRunner()
        result = runner.invoke(
            cli_main,
            [
                "verify-quote",
                "--quote", "static heuristics that rank items by recency or frequency",
                "--doc", str(fixtures_dir / "target_paper.txt"),
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["found"] is True and payload["match_score"] == 1.0


# --- hostile-model oracle -------------------------------------------------------

FIXTURES_DIR = Path(__file__).parent / "fixtures"
MOCK_LLM = json.loads((FIXTURES_DIR / "mock_llm.json").read_text())
HOSTILE_LEAVES = [None, 0, float("nan"), "x", [], {}, [None]]


def _leaf_paths(value, path=()):
    """The path to every value in a JSON document that holds no other value."""
    if isinstance(value, (dict, list)) and value:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaf_paths(item, path + (key,))
    else:
        yield path


@st.composite
def hostile_fixtures(draw):
    """The bundled model fixture with one reply changed: one leaf swapped, or the text cut short."""
    fixture = copy.deepcopy(MOCK_LLM)
    rule = draw(st.sampled_from(fixture["rules"]))
    if draw(st.booleans()):
        text = MockLlmClient._render(rule["response"])
        rule["response"] = text[: draw(st.integers(0, len(text) - 1))]
        return fixture
    *path, last = ("response", *draw(st.sampled_from(list(_leaf_paths(rule["response"])))))
    node = rule
    for key in path:
        node = node[key]
    node[last] = draw(st.sampled_from(HOSTILE_LEAVES))
    return fixture


@settings(max_examples=50, deadline=None)
@given(fixture=hostile_fixtures())
def test_hostile_model_reply_fails_cleanly_or_renders(fixture):
    paper_text = (FIXTURES_DIR / "target_paper.txt").read_text(encoding="utf-8")
    search = MockSearchClient.from_file(FIXTURES_DIR / "mock_search.json")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_clients", lambda cfg: (MockLlmClient(fixture), search))
        out = Path(tmp) / "out"
        manifest = run_bounded(paper_text, make_config(out, FIXTURES_DIR))
        reports = [path.read_text() for path in out.glob("*.md")]
    phases = manifest.phases
    for name, status in phases.items():
        if status.status == "failed":
            assert status.error and f"{name}: {status.error}" in manifest.failure_log
    if phases["phase3"].status == "completed":
        assert phases["phase4"].status == "completed", manifest.failure_log
    assert [LEAKED_WORD.findall(report) for report in reports if LEAKED_WORD.search(report)] == []
    assert [q for q in search.calls if LEAKED_WORD.search(q)] == []


# --- hostile-artifact oracle ----------------------------------------------------

GOLDEN_PHASE3 = json.loads((Path(__file__).parent / "goldens" / "phase3.json").read_text())
GOLDEN_PHASE3_LEAVES = list(_leaf_paths(GOLDEN_PHASE3))
MISSING_ID = "arxiv:0000.00000"  # named by no reference


@st.composite
def leaf_swaps(draw):
    """The golden phase3.json with one leaf swapped for a hostile value."""
    report = copy.deepcopy(GOLDEN_PHASE3)
    *path, last = draw(st.sampled_from(GOLDEN_PHASE3_LEAVES))
    node = report
    for key in path:
        node = node[key]
    node[last] = draw(st.sampled_from(HOSTILE_LEAVES))
    return report, None


@st.composite
def relational_mutations(draw):
    """The golden phase3.json with one relation between its parts broken.

    With it comes what render's one error line must name when render must
    reject it, else None. A comparison or a segment list under an id no
    reference has would have no title, and a repeated reference would make
    every citation of that index or id name one paper while the list shows two.
    """
    report = copy.deepcopy(GOLDEN_PHASE3)
    claims = [c["comparisons"] for c in report["contribution_analysis"]["contributions"]]
    segments = report["textual_similarity"]["segments_by_candidate"]
    references = report["references"]
    kind = draw(st.sampled_from(["comparison", "segments", "reference", "duplicate"]))
    if kind == "comparison":  # a comparison moved under an id missing from references
        lists = [*claims, report["core_task_comparisons"]["comparisons"]]
        draw(st.sampled_from([e for each in lists for e in each]))["canonical_id"] = MISSING_ID
        return report, MISSING_ID
    elif kind == "segments":  # a segment list moved under an id missing from references
        segments[MISSING_ID] = segments.pop(draw(st.sampled_from(sorted(segments))))
        return report, MISSING_ID
    elif kind == "reference":  # one reference repeats another's index or canonical id
        key = draw(st.sampled_from(["index", "canonical_id"]))
        source, target = draw(
            st.lists(st.sampled_from(range(len(references))), min_size=2, max_size=2, unique=True)
        )
        references[target][key] = references[source][key]
        return report, "references repeat"
    else:  # a comparison entry duplicated within a claim
        entries = draw(st.sampled_from([c for c in claims if c]))
        copied = copy.deepcopy(draw(st.sampled_from(entries)))
        entries.insert(draw(st.integers(0, len(entries))), copied)
    return report, None


@settings(max_examples=500, deadline=None)
@given(case=st.one_of(leaf_swaps(), relational_mutations()))
def test_hostile_artifact_renders_or_prints_one_error_line(case):
    report, must_name = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "phase3.json"
        path.write_text(json.dumps(report))
        args = ["render", "--input", str(path), "--out", str(Path(tmp) / "report.md")]
        result = CliRunner().invoke(cli_main, args)
    if result.exit_code == 0 and must_name is None:
        assert result.exception is None
    else:
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert result.output.startswith("error: ") and len(result.output.splitlines()) == 1
        assert must_name is None or must_name in result.output, result.output
