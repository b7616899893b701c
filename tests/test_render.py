"""Deterministic Markdown rendering of the analysis report."""

import dataclasses
import json
import os
import re

import pytest

from noveltycheck.analysis import Isolation, NoveltyReport, SubtopicSummary, TextualSimilarity
from noveltycheck.errors import InvalidInputError, RenderError
from noveltycheck.render import RenderConfig, output_filename, render_markdown, render_pdf


@pytest.fixture
def report(goldens_dir):
    return NoveltyReport.from_dict(json.loads((goldens_dir / "phase3.json").read_text()))


class TestRenderMarkdown:
    def test_matches_golden(self, report, goldens_dir):
        assert render_markdown(report) == (goldens_dir / "report.md").read_text()

    def test_byte_deterministic(self, report):
        assert render_markdown(report) == render_markdown(report)

    def test_long_quote_truncated_with_marker(self, report):
        entry = report.contributions[0].comparisons[0]
        pair = entry.refutation_evidence.evidence_pairs[0]
        pair.original_quote = " ".join(f"w{i}" for i in range(120))
        rendered = render_markdown(report, RenderConfig(quote_truncation_limit=90))
        match = re.search(r'"w0 .*?"', rendered)
        assert match is not None
        quoted = match.group(0)
        assert quoted.endswith("w89…\"")
        assert len(quoted.strip('"').rstrip("…").split()) == 90

    def test_empty_similarity_module_states_absence(self, report):
        report.textual_similarity = TextualSimilarity(segments_by_candidate={})
        rendered = render_markdown(report)
        assert "No verified similarity segments were found." in rendered

    @pytest.mark.parametrize("key", ["index", "canonical_id"])
    def test_repeated_reference_raises_naming_the_value(self, report, key):
        value = getattr(report.references[1], key)
        report.references[2] = dataclasses.replace(report.references[2], **{key: value})
        with pytest.raises(RenderError, match=re.escape(f"references repeat {key} {value!r}")):
            render_markdown(report)

    def test_dangling_citation_raises_with_index(self, report):
        report.overall_assessment.append("An invented citation Ghost[42] appears here.")
        with pytest.raises(RenderError, match="42"):
            render_markdown(report)

    def test_quotes_may_contain_source_citation_markers(self, report):
        entry = report.contributions[0].comparisons[0]
        pair = entry.refutation_evidence.evidence_pairs[0]
        pair.original_quote = pair.original_quote + " as shown in [99]"
        render_markdown(report)  # quotes are verbatim source text, not prose

    def test_every_cited_index_resolves_in_references(self, report, goldens_dir):
        rendered = (goldens_dir / "report.md").read_text()
        reference_section = rendered.split("## References")[1]
        declared = {int(m) for m in re.findall(r"- \[(\d+)\]", reference_section)}
        cited = {int(m) for m in re.findall(r"\[(\d+)\]", rendered)}
        assert cited <= declared

    def test_taxonomy_indentation_tracks_depth(self, report):
        rendered = render_markdown(report)
        tax_section = rendered.split("### Taxonomy")[1].split("### Narrative")[0]
        lines = [l for l in tax_section.splitlines() if l.strip().startswith("- **")]
        depths = [(len(l) - len(l.lstrip())) // 2 for l in lines]
        assert depths[0] == 0
        assert max(depths) >= 2
        for prev, nxt in zip(depths, depths[1:]):
            assert nxt <= prev + 1

    @staticmethod
    def _core_task_section(rendered):
        return rendered.split("## Core Task Comparisons\n")[1].split("## Contribution Analysis")[0]

    def test_subtopic_summary_rendered(self, report):
        cta = report.core_task_comparisons
        cta.mode, cta.comparisons = "subtopic_siblings", []
        cta.subtopic_summary = SubtopicSummary(
            overall="Close to Foreseer [1].",
            similarities=["Both learn from access history [1]."],
            differences=[],
        )
        path = " > ".join(cta.taxonomy_path)
        assert self._core_task_section(render_markdown(report)) == (
            f"\n**Taxonomy position:** {path}\n\nClose to Foreseer [1].\n\n"
            "**Similarities:**\n- Both learn from access history [1].\n\n"
        )
        cta.subtopic_summary.differences = ["Only one of them [42]."]
        with pytest.raises(RenderError, match="dangling citation index 42 in subtopic differences"):
            render_markdown(report)

    @pytest.mark.parametrize("isolation, note", [
        (Isolation(note="No comparison: alone in its leaf."), "No comparison: alone in its leaf."),
        (None, "No comparison: the paper has no immediate semantic neighbors."),
    ])
    def test_isolated_target_rendered_with_its_note(self, report, isolation, note):
        cta = report.core_task_comparisons
        cta.mode, cta.comparisons, cta.taxonomy_path, cta.isolation = "isolated", [], [], isolation
        assert self._core_task_section(render_markdown(report)) == f"\n{note}\n\n"

    def test_needs_review_banner(self, report):
        report.core_task_survey.taxonomy_status = "needs_review"
        rendered = render_markdown(report)
        assert "needs_review" in rendered


class TestRenderConfig:
    def test_limit_below_30_rejected(self):
        with pytest.raises(InvalidInputError):
            RenderConfig(quote_truncation_limit=10)


class TestOutputFilename:
    def test_stable_for_same_report(self, report):
        assert output_filename(report) == output_filename(report)

    def test_version_changes_name(self, report):
        first = output_filename(report)
        report.metadata.pipeline_version = "9.9.9"
        assert output_filename(report) != first

    def test_unsafe_characters_sanitized(self, report):
        report.original_paper.canonical_id = "doi:10.1145/foo/bar baz"
        name = output_filename(report)
        assert "/" not in name and " " not in name
        assert name.endswith(".md")


class TestRenderPdf:
    @pytest.fixture
    def pandoc(self, tmp_path, monkeypatch):
        """Puts a ``pandoc`` running the given shell body first on ``PATH``."""

        def install(body):
            bin_dir = tmp_path / "bin"
            bin_dir.mkdir()
            script = bin_dir / "pandoc"
            script.write_text(f"#!/bin/sh\n{body}\n")
            script.chmod(0o755)
            monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")

        return install

    def test_succeeding_pandoc_returns_the_pdf_path(self, pandoc, tmp_path):
        pandoc('[ "$2" = -o ] && printf "%s" "$1" > "$3"')
        md = tmp_path / "report.md"
        md.write_text("# Report\n")
        assert render_pdf(md) == tmp_path / "report.pdf"
        assert (tmp_path / "report.pdf").read_text() == str(md)

    def test_failing_pandoc_raises_render_error(self, pandoc, tmp_path):
        pandoc('echo "pandoc: no LaTeX engine" >&2; exit 43')
        md = tmp_path / "report.md"
        md.write_text("# Report\n")
        with pytest.raises(RenderError, match="pdf conversion failed"):
            render_pdf(md)
