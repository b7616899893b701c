"""Phase IV: deterministic Markdown rendering of the analysis report.

No model calls happen here; every byte of output is a pure function of the
report and the render configuration. Citation indices in prose are checked
against the references module, and long quotes are truncated for display
with an ellipsis marker.
"""

from __future__ import annotations

import logging
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .analysis import (
    CAN_REFUTE,
    ContributionComparison,
    NoveltyReport,
    ReportReference,
    check_renderable,
    claim_counts,
)
from .errors import InvalidInputError, RenderError
from .taxonomy import TaxonomyNode
from .verification import SimilaritySegment

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RenderConfig:
    quote_truncation_limit: int = 90

    def __post_init__(self) -> None:
        if not isinstance(self.quote_truncation_limit, int) or self.quote_truncation_limit < 30:
            raise InvalidInputError("quote truncation limit must be an integer of at least 30")


def _truncate_quote(text: str, limit: int) -> str:
    words = text.split()
    if len(words) <= limit:
        return text
    return " ".join(words[:limit]) + "…"


class _MarkdownBuilder:
    def __init__(self) -> None:
        self._lines: list[str] = []

    def line(self, text: str = "") -> None:
        self._lines.append(text)

    def blank(self) -> None:
        if self._lines and self._lines[-1] != "":
            self._lines.append("")

    def text(self) -> str:
        return "\n".join(self._lines).rstrip("\n") + "\n"


def _titled(ref: ReportReference) -> str:
    return f"{ref.alias} [{ref.index}]: {ref.title}"


def _render_taxonomy(
    md: _MarkdownBuilder,
    node: TaxonomyNode,
    refs_by_id: Mapping[str, ReportReference],
    depth: int = 0,
) -> None:
    indent = "  " * depth
    label = f"**{node.name}**"
    if node.scope_note:
        label += f" · {node.scope_note}"
    md.line(f"{indent}- {label}")
    for pid in node.papers:
        ref = refs_by_id.get(pid)
        md.line(f"{indent}  - {_titled(ref) if ref else pid}")
    for child in node.subtopics:
        _render_taxonomy(md, child, refs_by_id, depth + 1)


def _render_segment(
    md: _MarkdownBuilder, seg: SimilaritySegment, limit: int
) -> None:
    md.line(
        f"- Segment {seg.segment_id} ({seg.segment_type}, location: {seg.location}, "
        f"{seg.min_word_count} words)"
    )
    md.line(f"  > Target: \"{_truncate_quote(seg.original_text, limit)}\"")
    md.line(f"  > Candidate: \"{_truncate_quote(seg.candidate_text, limit)}\"")
    if seg.rationale:
        md.line(f"  - Rationale: {seg.rationale}")


def _score(loc) -> str:
    if loc is None:
        return "unverified"
    status = "verified" if loc.found else "not found"
    return f"{status}, score {loc.match_score:.3f}"


def _render_comparison_entry(
    md: _MarkdownBuilder,
    entry: ContributionComparison,
    refs_by_id: Mapping[str, ReportReference],
    segments: Sequence[SimilaritySegment],
    limit: int,
) -> None:
    md.line(f"#### {_titled(refs_by_id[entry.canonical_id])}")
    md.blank()
    md.line(f"- **Status:** `{entry.refutation_status}` ({entry.comparison_mode} comparison)")
    if entry.refutation_status == CAN_REFUTE and entry.refutation_evidence is not None:
        md.line(f"- **Summary:** {entry.refutation_evidence.summary}")
        for i, pair in enumerate(entry.refutation_evidence.evidence_pairs, start=1):
            md.line(f"- **Evidence {i}:** {pair.rationale}")
            md.line(
                f"  > Target ({pair.original_paragraph_label}; {_score(pair.original_location)}): "
                f"\"{_truncate_quote(pair.original_quote, limit)}\""
            )
            md.line(
                f"  > Candidate ({pair.candidate_paragraph_label}; {_score(pair.candidate_location)}): "
                f"\"{_truncate_quote(pair.candidate_quote, limit)}\""
            )
    elif entry.brief_note:
        md.line(f"- **Note:** {entry.brief_note}")
    for seg in segments:
        _render_segment(md, seg, limit)
    md.blank()


def render_markdown(report: NoveltyReport, cfg: RenderConfig = RenderConfig()) -> str:
    """Render the full report; byte-deterministic for a fixed report and config.

    Raises RenderError or InvalidInputError for a report it cannot render.
    """
    check_renderable(report)
    survey = report.core_task_survey
    refs_by_id = {r.canonical_id: r for r in report.references}
    segments_by_id = report.textual_similarity.segments_by_candidate
    limit = cfg.quote_truncation_limit
    md = _MarkdownBuilder()

    original = report.original_paper
    meta = report.metadata
    md.line("# Novelty Analysis Report")
    md.blank()
    md.line(f"**Paper:** {original.title}")
    md.line(f"**Canonical ID:** `{original.canonical_id}`")
    md.line(f"**URL:** {original.url or 'n/a'}")
    md.line(f"**Generated:** {meta.generated_at}")
    md.line(f"**Pipeline version:** {meta.pipeline_version}")
    md.blank()

    md.line("## Core Task Survey")
    md.blank()
    md.line(f"**Core task:** {survey.core_task}")
    md.blank()
    md.line("### Taxonomy")
    md.blank()
    if survey.taxonomy_status == "needs_review":
        md.line("> Note: this taxonomy failed validation after repair (needs_review).")
        md.blank()
    _render_taxonomy(md, survey.taxonomy, refs_by_id)
    md.blank()
    md.line("### Narrative")
    md.blank()
    for paragraph in survey.narrative.split("\n\n"):
        md.line(paragraph.strip())
        md.blank()

    md.line("## Core Task Comparisons")
    md.blank()
    cta = report.core_task_comparisons
    if cta.taxonomy_path:
        md.line(f"**Taxonomy position:** {' > '.join(cta.taxonomy_path)}")
        md.blank()
    if cta.mode == "sibling":
        for entry in cta.comparisons:
            md.line(f"### {_titled(refs_by_id[entry.canonical_id])}")
            md.blank()
            md.line(
                f"- **Duplicate variant:** {'yes' if entry.is_duplicate_variant else 'no'}"
                f" ({entry.comparison_mode} comparison)"
            )
            md.line(f"- {entry.brief_comparison}")
            for seg in segments_by_id.get(entry.canonical_id, ()):
                _render_segment(md, seg, limit)
            md.blank()
    elif cta.mode == "subtopic_siblings" and cta.subtopic_summary is not None:
        summary = cta.subtopic_summary
        md.line(summary.overall)
        md.blank()
        for heading, items in (
            ("Similarities", summary.similarities), ("Differences", summary.differences)
        ):
            if items:
                md.line(f"**{heading}:**")
                for item in items:
                    md.line(f"- {item}")
                md.blank()
    else:
        default = "No comparison: the paper has no immediate semantic neighbors."
        md.line(cta.isolation.note if cta.isolation is not None else default)
        md.blank()

    md.line("## Contribution Analysis")
    md.blank()
    md.line("### Overall Assessment")
    md.blank()
    for paragraph in report.overall_assessment:
        md.line(paragraph)
        md.blank()
    for i, contribution in enumerate(report.contributions, start=1):
        md.line(f"### Contribution {i}: {contribution.name}")
        md.blank()
        md.line(
            f"**Author claim:** \"{contribution.author_claim_text}\""
            f" ({contribution.source_hint})"
        )
        examined, can_refute = claim_counts(contribution.comparisons)
        md.line(
            f"**Statistics:** {examined} candidates examined; {can_refute} can refute; "
            f"{examined - can_refute} cannot refute or unclear."
        )
        md.blank()
        for entry in contribution.comparisons:
            segments = segments_by_id.get(entry.canonical_id, ())
            _render_comparison_entry(md, entry, refs_by_id, segments, limit)

    md.line("## Textual Similarity")
    md.blank()
    if not any(segments_by_id.values()):
        md.line("No verified similarity segments were found.")
        md.blank()
    else:
        for pid, segments in segments_by_id.items():
            md.line(f"### {_titled(refs_by_id[pid])}")
            md.blank()
            for seg in segments:
                _render_segment(md, seg, limit)
            md.blank()

    md.line("## References")
    md.blank()
    for ref in report.references:
        suffix = " (original paper)" if ref.is_original else ""
        url = f" {ref.url}" if ref.url else ""
        md.line(f"- [{ref.index}] **{ref.alias}** — {ref.title}.{url}{suffix}")
    md.blank()
    return md.text()


_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")
#: how the name of every report ``output_filename`` makes begins
REPORT_PREFIX = "novelty_report_"


def output_filename(report: NoveltyReport) -> str:
    """Deterministic, filesystem-safe Markdown file name derived from report metadata."""
    safe_cid = _UNSAFE_RE.sub("-", report.original_paper.canonical_id).strip("-")
    safe_version = _UNSAFE_RE.sub("-", report.metadata.pipeline_version).strip("-")
    return f"{REPORT_PREFIX}{safe_cid}_v{safe_version}.md"


def render_pdf(markdown_path: Path) -> Path:
    """Shell out to pandoc; excluded from golden tests."""
    pdf_path = markdown_path.with_suffix(".pdf")
    try:
        subprocess.run(
            ["pandoc", str(markdown_path), "-o", str(pdf_path)],
            check=True,
            capture_output=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise RenderError(f"pdf conversion failed: {exc}") from exc
    return pdf_path
