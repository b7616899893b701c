"""Phase III: taxonomy construction, comparisons, similarity, report assembly.

Candidate-level work is one-to-N: each candidate is compared against the
target in an isolated model call, so permuting candidates permutes results
and nothing else. Evidence quotes are verified the moment they arrive, and
a final downgrade pass guarantees no refutation claim survives without a
doubly-verified evidence pair.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .clients import LlmClient
from .codec import decode, encode
from .errors import AssemblyError, InvalidInputError, LlmError, ParseFailureError, RenderError
from .extraction import (
    ContributionClaim,
    CoreTask,
    Phase1Result,
    ask,
    parse_structured_output,
    reply_list,
    reply_text,
    truncate_words,
    word_count,
)
from .papers import PaperRecord, PublicationDate, check_canonical_id
from .prompts import complete, user_text
from .retrieval import CandidateSet
from .scheduler import LaneClosedError, Scheduler
from .taxonomy import (
    RepairOutcome,
    StructuralPosition,
    TaxonomyNode,
    order_all_leaves,
    repair_taxonomy,
    structural_position,
)
from .verification import (
    Document,
    QuoteLocation,
    SimilaritySegment,
    filter_segments,
    verify_quote,
    verify_segment,
)

logger = logging.getLogger(__name__)

MAX_QUOTE_WORDS = 90

CAN_REFUTE = "can_refute"
CANNOT_REFUTE = "cannot_refute"
UNCLEAR = "unclear"
_STATUSES = {CAN_REFUTE, CANNOT_REFUTE, UNCLEAR}


# --- comparison schema ----------------------------------------------------------


@dataclass(kw_only=True)
class EvidencePair:
    """A quote from each paper backing one refutation claim."""

    original_quote: str
    original_paragraph_label: str
    original_location: Optional[QuoteLocation] = None
    candidate_quote: str
    candidate_paragraph_label: str
    candidate_location: Optional[QuoteLocation] = None
    rationale: str

    @property
    def doubly_verified(self) -> bool:
        return bool(
            self.original_location
            and self.original_location.found
            and self.candidate_location
            and self.candidate_location.found
        )


@dataclass
class RefutationEvidence:
    summary: str
    evidence_pairs: list[EvidencePair]


@dataclass
class ContributionComparison:
    """Three-way refutation judgment for one (claim, candidate) pair."""

    canonical_id: str
    comparison_mode: str  # "fulltext" or "abstract"
    refutation_status: str
    refutation_evidence: Optional[RefutationEvidence] = None
    brief_note: Optional[str] = None


@dataclass(kw_only=True)
class CoreTaskComparison:
    """Distinction analysis against one sibling paper in the same leaf."""

    canonical_id: str
    relationship: str = "sibling"
    comparison_mode: str  # "fulltext" or "abstract_fallback"
    is_duplicate_variant: bool
    brief_comparison: str


DOWNGRADE_NOTE = (
    "Downgraded from can_refute: no evidence pair could be verified in both "
    "papers, so the refutation claim is not substantiated."
)


def downgrade_unverified(
    comparisons: Sequence[ContributionComparison],
) -> list[ContributionComparison]:
    """Rewrite can_refute entries lacking a doubly-verified pair to cannot_refute.

    Runs once after all comparisons and before report assembly. Entries that
    carry at least one evidence pair verified in both papers are returned
    untouched.
    """
    out: list[ContributionComparison] = []
    for entry in comparisons:
        if entry.refutation_status != CAN_REFUTE:
            out.append(entry)
            continue
        pairs = entry.refutation_evidence.evidence_pairs if entry.refutation_evidence else []
        if any(p.doubly_verified for p in pairs):
            out.append(entry)
            continue
        logger.info("downgrading unverified refutation against %s", entry.canonical_id)
        out.append(
            replace(
                entry,
                refutation_status=CANNOT_REFUTE,
                refutation_evidence=None,
                brief_note=DOWNGRADE_NOTE,
            )
        )
    return out


# --- taxonomy construction -------------------------------------------------------


def build_taxonomy(
    core_candidates: Sequence[PaperRecord],
    core_task: CoreTask,
    llm: LlmClient,
    *,
    original: Optional[PaperRecord] = None,
) -> RepairOutcome:
    """One generation call over all candidate metadata, then validate and repair."""
    if len(core_candidates) < 2:
        raise InvalidInputError("taxonomy construction needs at least 2 candidates")
    papers_payload: list[dict[str, Any]] = []
    records: dict[str, PaperRecord] = {}
    original_id = None
    if original is not None:
        original_id = original.canonical_id
        records[original_id] = original
        papers_payload.append(
            {"id": original_id, "title": original.title, "abstract": original.abstract, "rank": 0}
        )
    for rank, paper in enumerate(core_candidates, start=1):
        pid = paper.canonical_id
        records[pid] = paper
        papers_payload.append(
            {"id": pid, "title": paper.title, "abstract": paper.abstract, "rank": rank}
        )
    allowed = set(records)
    payload = {"topic": core_task.text, "original_paper_id": original_id, "papers": papers_payload}
    try:
        raw = complete(llm, "taxonomy_construction", payload)
    except LlmError as exc:
        return RepairOutcome(
            taxonomy=TaxonomyNode(name="Survey Taxonomy (unavailable)"),
            status="needs_review",
            diagnostics=[f"taxonomy generation failed: {exc}"],
        )
    try:
        tax = TaxonomyNode.from_dict(parse_structured_output(raw).value)
    except (ParseFailureError, InvalidInputError) as exc:
        return RepairOutcome(
            taxonomy=TaxonomyNode(name="Survey Taxonomy (unparseable)"),
            status="needs_review",
            diagnostics=[f"taxonomy output unparseable: {exc}", f"raw output: {raw[:2000]}"],
        )
    outcome = repair_taxonomy(
        tax,
        allowed,
        original=original_id,
        papers=records,
        llm=llm,
    )
    rank_map = {p.canonical_id: i for i, p in enumerate(core_candidates, start=1)}
    outcome.taxonomy = order_all_leaves(outcome.taxonomy, original_id, rank_map)
    return outcome


# --- contribution comparison ------------------------------------------------------

def _format_claims(claims: Sequence[ContributionClaim]) -> str:
    blocks = []
    for i, claim in enumerate(claims, start=1):
        blocks.append(
            f"{i}. {claim.name}\n"
            f"   author_claim_text: {claim.author_claim_text}\n"
            f"   description: {claim.description}"
        )
    return "\n".join(blocks)


def _cap_quote(text: str) -> str:
    if word_count(text) > MAX_QUOTE_WORDS:
        logger.warning("evidence quote over %d words, truncating", MAX_QUOTE_WORDS)
        return truncate_words(text, MAX_QUOTE_WORDS)
    return text


def _content_of(paper: PaperRecord) -> tuple[str, str]:
    if paper.full_text is not None:
        return paper.full_text, "fulltext"
    return paper.abstract, "abstract"


def _parse_evidence(
    raw_evidence: Any, target_doc: Document, candidate_doc: Document
) -> RefutationEvidence:
    pairs: list[EvidencePair] = []
    for p in reply_list(raw_evidence, "evidence_pairs", Mapping):
        original_quote = _cap_quote(reply_text(p, "original_quote"))
        candidate_quote = _cap_quote(reply_text(p, "candidate_quote"))
        pairs.append(
            EvidencePair(
                original_quote=original_quote,
                original_paragraph_label=reply_text(p, "original_paragraph_label", "unknown"),
                candidate_quote=candidate_quote,
                candidate_paragraph_label=reply_text(p, "candidate_paragraph_label", "unknown"),
                rationale=reply_text(p, "rationale"),
                original_location=verify_quote(original_quote, target_doc),
                candidate_location=verify_quote(candidate_quote, candidate_doc),
            )
        )
    return RefutationEvidence(summary=reply_text(raw_evidence, "summary"), evidence_pairs=pairs)


def compare_contribution(
    target_doc: Document,
    candidate: PaperRecord,
    candidate_doc: Document,
    claims: Sequence[ContributionClaim],
    llm: LlmClient,
    *,
    citation: Optional[str] = None,
) -> list[ContributionComparison]:
    """One isolated inference call judging every claim against one candidate.

    ``candidate_doc`` holds the candidate's content: its full text, or its
    abstract without one. Both documents are shown to the model, and quotes
    are verified against them as soon as they are parsed. A parse failure
    degrades every claim's entry to ``unclear`` rather than aborting the run.
    """
    mode = _content_of(candidate)[1]

    def _entry(status: str, note: Optional[str], evidence: Optional[RefutationEvidence]) -> ContributionComparison:
        return ContributionComparison(
            canonical_id=candidate.canonical_id,
            comparison_mode=mode,
            refutation_status=status,
            refutation_evidence=evidence,
            brief_note=note,
        )

    user = user_text(
        "claim_comparison",
        title=candidate.title,
        citation=f" ({citation})" if citation else "",
        n=len(claims),
        contributions=_format_claims(claims),
        original=target_doc.text,
        candidate=candidate_doc.text,
    )
    try:
        parsed = ask(llm, "claim_comparison", user).value
    except (LlmError, ParseFailureError) as exc:
        note = f"Comparison unavailable: {exc}"
        return [_entry(UNCLEAR, note, None) for _ in claims]

    # an item is matched to a claim by name; one whose name is no claim's
    # stands in, by position, for the claim in its slot
    items = reply_list(parsed, "contribution_analyses", Mapping)
    item_names = [reply_text(item, "contribution_name").strip().lower() for item in items]
    claim_names = {claim.name.strip().lower() for claim in claims}
    by_name: dict[str, Mapping[str, Any]] = {}
    for name, item in zip(item_names, items):
        if name:
            by_name.setdefault(name, item)

    entries: list[ContributionComparison] = []
    for i, claim in enumerate(claims):
        item = by_name.get(claim.name.strip().lower())
        if item is None and i < len(items) and item_names[i] not in claim_names:
            item = items[i]
        if item is None:
            entries.append(_entry(UNCLEAR, "No analysis returned for this contribution.", None))
            continue
        status = reply_text(item, "refutation_status").strip()
        if status not in _STATUSES:
            entries.append(_entry(UNCLEAR, f"Unrecognized status {status!r}.", None))
            continue
        if status == CAN_REFUTE:
            evidence = _parse_evidence(item.get("refutation_evidence"), target_doc, candidate_doc)
            entries.append(_entry(CAN_REFUTE, None, evidence))
        else:
            note = reply_text(item, "brief_note").strip() or "No explanation provided."
            entries.append(_entry(status, note, None))
    return entries


# --- core-task comparison ----------------------------------------------------------


@dataclass
class SubtopicSummary:
    """The one categorical comparison of a lone target against its sibling subtopics."""

    overall: str
    similarities: list[str]
    differences: list[str]


@dataclass
class Isolation:
    """Why a target has no core-task comparison, and the leaf it sits in if any."""

    note: str
    leaf: Optional[str] = None


@dataclass
class CoreTaskAnalysis:
    mode: str
    taxonomy_path: list[str]
    comparisons: list[CoreTaskComparison] = field(default_factory=list)
    subtopic_summary: Optional[SubtopicSummary] = None
    isolation: Optional[Isolation] = None
    diagnostics: list[str] = field(default_factory=list)


def _leaf_count(node: TaxonomyNode) -> int:
    return sum(1 for _ in node.iter_leaves())


def _paper_count(node: TaxonomyNode) -> int:
    return sum(len(leaf.papers) for leaf in node.iter_leaves())


@dataclass
class CoreTaskCalls:
    """A started core-task comparison: the target's position and its model calls.

    Each call returns its result (a sibling's comparison, or the subtopic
    summary) or None, and a diagnostic or None.
    """

    position: StructuralPosition
    calls: list[Future[tuple[Any, Optional[str]]]] = field(default_factory=list)


def start_core_task_comparison(
    position: StructuralPosition,
    target: PaperRecord,
    target_doc: str,
    candidates: Mapping[str, PaperRecord],
    llm: LlmClient,
    *,
    core_task: CoreTask,
    lane: Scheduler,
    citations: Optional[Mapping[str, str]] = None,
) -> CoreTaskCalls:
    """Submit the calls distinguishing the target from its structural neighbors.

    Sibling papers get individual distinction calls with duplicate detection
    first, submitted to the model ``lane`` in sibling order; a lone paper in
    a populated parent gets one categorical call; an isolated paper gets
    none. Submits and never waits; ``compare_core_task`` collects.
    """
    citations = citations or {}
    started = CoreTaskCalls(position)

    if position.mode == "subtopic_siblings":
        payload = {
            "core_task": core_task.text,
            "original_leaf": {
                "name": position.leaf.name if position.leaf else None,
                "scope_note": position.leaf.scope_note if position.leaf else None,
                "exclude_note": position.leaf.exclude_note if position.leaf else None,
                "paper_ids": list(position.leaf.papers) if position.leaf else [],
            },
            "sibling_subtopics": [
                {
                    "name": node.name,
                    "scope_note": node.scope_note,
                    "exclude_note": node.exclude_note,
                    "leaf_count": _leaf_count(node),
                    "paper_count": _paper_count(node),
                    "papers": [
                        {
                            "id": pid,
                            "title": candidates[pid].title if pid in candidates else "",
                            "abstract": candidates[pid].abstract if pid in candidates else "",
                        }
                        for leaf in node.iter_leaves()
                        for pid in leaf.papers
                    ],
                }
                for node in position.sibling_subtopics
            ],
        }

        def _compare_subtopics() -> tuple[Optional[SubtopicSummary], Optional[str]]:
            try:
                reply = ask(llm, "subtopic_comparison", payload).value
            except (LlmError, ParseFailureError) as exc:
                return None, f"subtopic comparison failed: {exc}"
            return SubtopicSummary(
                overall=reply_text(reply, "overall"),
                similarities=reply_list(reply, "similarities", str),
                differences=reply_list(reply, "differences", str),
            ), None

        started.calls.append(lane.submit(_compare_subtopics))
        return started

    def _compare_sibling(sibling_id: str) -> tuple[Optional[CoreTaskComparison], Optional[str]]:
        record = candidates.get(sibling_id)
        if record is None:
            return None, f"sibling {sibling_id} has no candidate record"
        content, content_type = _content_of(record)
        title = record.title
        if sibling_id in citations:
            title = f"{title} ({citations[sibling_id]})"
        payload = {
            "core_task_domain": core_task.text,
            "original_paper": {
                "title": target.title,
                "content": target_doc,
                "content_type": "fulltext",
            },
            "candidate_paper": {
                "title": title,
                "content": content,
                "content_type": content_type,
            },
            "analysis_instruction": (
                "These papers are classified in the SAME leaf category in the "
                "taxonomy (sibling papers). First check if they are likely "
                "duplicates/variants by comparing titles and content. If not "
                "duplicates, provide a concise 2-3 sentence comparison covering: "
                "(1) their shared taxonomy position, (2) overlapping areas with "
                "original paper, (3) key differences."
            ),
        }
        mode = "fulltext" if record.full_text is not None else "abstract_fallback"
        try:
            parsed = ask(llm, "sibling_distinction", payload).value
            duplicate = parsed.get("is_duplicate_variant") is True
            brief = reply_text(parsed, "brief_comparison").strip()
            diagnostic = None
        except (LlmError, ParseFailureError) as exc:
            duplicate, brief = False, f"Comparison unavailable: {exc}"
            diagnostic = f"sibling comparison failed for {sibling_id}: {exc}"
        return CoreTaskComparison(
            canonical_id=sibling_id,
            comparison_mode=mode,
            is_duplicate_variant=duplicate,
            brief_comparison=brief or "No comparison text returned.",
        ), diagnostic

    # an isolated target has no siblings
    started.calls.extend(lane.submit(_compare_sibling, pid) for pid in position.siblings)
    return started


def compare_core_task(started: CoreTaskCalls) -> CoreTaskAnalysis:
    """Collect a started core-task comparison, reading its calls in sibling order."""
    position = started.position
    analysis = CoreTaskAnalysis(mode=position.mode, taxonomy_path=list(position.path))
    if position.mode == "isolated":
        analysis.isolation = Isolation(
            note="No comparison: the paper has no immediate semantic neighbors.",
            leaf=position.path[-1] if position.path else None,
        )
    for call in started.calls:
        result, diagnostic = call.result()
        if diagnostic is not None:
            analysis.diagnostics.append(diagnostic)
        if result is None:
            continue
        if position.mode == "subtopic_siblings":
            analysis.subtopic_summary = result
        else:
            analysis.comparisons.append(result)
    return analysis


# --- similarity detection -----------------------------------------------------------


def detect_similarity(
    target_doc: Document,
    candidate: PaperRecord,
    candidate_doc: Document,
    llm: LlmClient,
) -> list[SimilaritySegment]:
    """Detect and verify overlap segments for one candidate.

    ``candidate_doc`` holds the candidate's full text; a candidate without
    one is skipped.
    """
    cid = candidate.canonical_id
    if candidate.full_text is None:
        logger.info("similarity detection skipped for %s: no full text", cid)
        return []
    user = user_text("similarity_detection", paper_a=target_doc.text, paper_b=candidate_doc.text)
    try:
        parsed = ask(llm, "similarity_detection", user).value
    except (LlmError, ParseFailureError) as exc:
        logger.warning("similarity detection failed for %s: %s", cid, exc)
        return []
    segments: list[SimilaritySegment] = []
    # a segment is numbered by its place in the reply, whatever id the model gave it
    for i, item in enumerate(reply_list(parsed, "plagiarism_segments", Mapping), start=1):
        seg = SimilaritySegment(
            segment_id=i,
            location=reply_text(item, "location") or "unknown",
            original_text=reply_text(item, "original_text"),
            candidate_text=reply_text(item, "candidate_text"),
            segment_type=reply_text(item, "plagiarism_type", reply_text(item, "type", "Direct")),
            rationale=reply_text(item, "rationale"),
        )
        verified = verify_segment(seg, target_doc, candidate_doc)
        if verified.verified:
            segments.append(verified)
        else:
            logger.info("similarity segment %d for %s failed verification", i, cid)
    return filter_segments(segments)


# --- references, narrative, assessment ------------------------------------------------


@dataclass(frozen=True)
class ReportReference:
    index: int
    alias: str
    canonical_id: str
    title: str
    url: Optional[str]
    year: Optional[int]
    is_original: bool

    def __post_init__(self) -> None:
        check_canonical_id(self.canonical_id)


_ALIAS_STOPWORDS = frozenset(
    {"a", "an", "and", "for", "in", "of", "on", "the", "to", "using", "via", "with"}
)


def derive_alias(title: str) -> str:
    """Short deterministic display name for a paper."""
    head = title.split(":")[0].strip()
    if head and len(head.split()) <= 4 and len(head) <= 48:
        return head
    words = title.split()[:3]
    while len(words) > 1 and words[-1].lower() in _ALIAS_STOPWORDS:
        words.pop()
    return " ".join(words)


def build_references(target: PaperRecord, candidate_set: CandidateSet) -> list[ReportReference]:
    """Citation index: alias 0 is the target, candidates get ascending indices."""
    return [
        ReportReference(
            index=i,
            alias=derive_alias(paper.title),
            canonical_id=paper.canonical_id,
            title=paper.title,
            url=paper.url,
            year=paper.publication_date.year if paper.publication_date else None,
            is_original=i == 0,
        )
        for i, paper in enumerate([target, *candidate_set.unified])
    ]


_CITATION_RE = re.compile(r"\[(\d+)\]")


def strip_bad_citations(text: str, allowed: set[int]) -> str:
    def _sub(m: re.Match) -> str:
        return m.group(0) if int(m.group(1)) in allowed else ""

    return _CITATION_RE.sub(_sub, text)


def _bad_citations(texts: Iterable[str], allowed: set[int]) -> list[int]:
    cited = {int(m.group(1)) for t in texts for m in _CITATION_RE.finditer(t)}
    return sorted(cited - allowed)


def _request_prose(
    llm: LlmClient,
    name: str,
    payload: Mapping[str, Any],
    key: str,
    allowed: set[int],
) -> tuple[list[str], list[str]]:
    """Call, validate citations, re-request once, then strip mechanically.

    ``key`` holds a string or a list of strings; a reply without text fails the parse.
    """
    diagnostics: list[str] = []

    def _once() -> list[str]:
        reply = ask(llm, name, payload).value
        texts = reply_list(reply, key, str) or [reply_text(reply, key)]
        if not any(texts):
            raise ParseFailureError(f"no text under key {key!r} in response", str(reply))
        return texts

    texts = _once()
    bad = _bad_citations(texts, allowed)
    if bad:
        diagnostics.append(f"citations outside allowed set {bad}; re-requesting once")
        texts = _once()
        bad = _bad_citations(texts, allowed)
        if bad:
            diagnostics.append(f"stripping residual bad citations {bad}")
            texts = [strip_bad_citations(t, allowed) for t in texts]
    return texts, diagnostics


def generate_narrative(
    core_task: CoreTask,
    taxonomy: TaxonomyNode,
    position: Optional[StructuralPosition],
    references: Sequence[ReportReference],
    allowed_indices: set[int],
    llm: LlmClient,
) -> tuple[str, list[str]]:
    """Two survey-style paragraphs grounded in the taxonomy and citation index."""
    citation_index = {
        r.canonical_id: {
            "alias": r.alias,
            "index": r.index,
            "year": r.year,
            "is_original": r.is_original,
        }
        for r in references
    }
    original = next((r for r in references if r.is_original), None)
    payload = {
        "language": "en",
        "core_task_text": core_task.text,
        "taxonomy_root": taxonomy.name,
        "top_level_branches": [c.name for c in taxonomy.subtopics],
        "original_paper_id": original.canonical_id if original else None,
        "original_taxonomy_path": list(position.path) if position else [],
        "neighbor_ids": list(position.siblings) if position else [],
        "citation_index": citation_index,
        "allowed_citation_indices": sorted(allowed_indices),
    }
    try:
        paragraphs, diagnostics = _request_prose(
            llm,
            "narrative_synthesis",
            payload,
            "narrative",
            allowed_indices,
        )
        return "\n\n".join(paragraphs), diagnostics
    except (LlmError, ParseFailureError) as exc:
        return "Narrative unavailable.", [f"narrative generation failed: {exc}"]


def generate_overall_assessment(
    target: PaperRecord,
    taxonomy: TaxonomyNode,
    position: Optional[StructuralPosition],
    statistics: Sequence[Mapping[str, Any]],
    total_candidates: int,
    narrative: str,
    allowed_indices: set[int],
    llm: LlmClient,
) -> tuple[list[str], list[str]]:
    """Three to four reviewer-style paragraphs over the collected signals."""
    payload = {
        "paper_context": {"abstract": target.abstract, "introduction": ""},
        "taxonomy_tree": encode(taxonomy),
        "original_paper_position": {
            "leaf_name": position.path[-1] if position and position.path else None,
            "sibling_count": len(position.siblings) if position else 0,
            "taxonomy_path": list(position.path) if position else [],
        },
        "literature_search_scope": {
            "total_candidates": total_candidates,
            "search_method": "semantic_top_k",
        },
        "contributions": list(statistics),
        "taxonomy_narrative": narrative,
        "allowed_citation_indices": sorted(allowed_indices),
    }
    try:
        return _request_prose(
            llm,
            "overall_assessment",
            payload,
            "paragraphs",
            allowed_indices,
        )
    except (LlmError, ParseFailureError) as exc:
        return ["Overall assessment unavailable."], [f"assessment generation failed: {exc}"]


def generate_one_liners(
    papers: Sequence[PaperRecord], llm: LlmClient
) -> dict[str, str]:
    """Optional 20-30 word blurbs, by canonical id, for the core-task survey."""
    if not papers:
        return {}
    payload = {
        "papers": [
            {"canonical_id": p.canonical_id, "title": p.title, "abstract": p.abstract}
            for p in papers
        ]
    }
    try:
        parsed = ask(llm, "one_liner", payload).value
    except (LlmError, ParseFailureError) as exc:
        logger.warning("one-liner generation failed: %s", exc)
        return {}
    return {
        reply_text(item, "paper_id"): reply_text(item, "brief_one_liner")
        for item in reply_list(parsed, "items", Mapping)
    }


# --- report assembly ---------------------------------------------------------------


def claim_counts(comparisons: Sequence[ContributionComparison]) -> tuple[int, int]:
    """How many candidates one claim was compared against, and how many of them can refute it."""
    return len(comparisons), sum(1 for e in comparisons if e.refutation_status == CAN_REFUTE)


@dataclass
class ContributionAnalysisEntry:
    """One claim with its per-candidate comparisons."""

    claim_id: str
    name: str
    author_claim_text: str = "unknown"
    description: str = "unknown"
    source_hint: str = "unknown"
    comparisons: list[ContributionComparison] = field(default_factory=list)


@dataclass
class ContributionAnalysis:
    """The report's contribution module: overall assessment, then one entry per claim."""

    overall_assessment: list[str]
    contributions: list[ContributionAnalysisEntry]


@dataclass
class OriginalPaper:
    """The report's record of the target paper."""

    canonical_id: str
    title: str
    abstract: str
    url: Optional[str]
    publication_date: Optional[PublicationDate]

    def __post_init__(self) -> None:
        check_canonical_id(self.canonical_id)


@dataclass
class CoreTaskSurvey:
    """The taxonomy of the core-task candidates, the narrative written over it, and the
    one-liner of each of the target and the core papers that has one, in rank order."""

    core_task: str
    taxonomy: TaxonomyNode
    taxonomy_status: str
    narrative: str
    diagnostics: list[str]
    one_liners: dict[str, str] = field(default_factory=dict)


@dataclass
class TextualSimilarity:
    """The verified overlap segments of every candidate that has any; the one place a
    segment is stored."""

    segments_by_candidate: dict[str, list[SimilaritySegment]]


@dataclass
class ReportMetadata:
    """When and by which version the report was made, and the warnings raised on the way."""

    generated_at: str
    pipeline_version: str
    artifact_filenames: dict[str, str]
    warnings: list[str]


@dataclass
class NoveltyReport:
    """The complete seven-module analysis output consumed by the renderer."""

    original_paper: OriginalPaper
    core_task_survey: CoreTaskSurvey
    contribution_analysis: ContributionAnalysis
    core_task_comparisons: CoreTaskAnalysis
    references: list[ReportReference]
    textual_similarity: TextualSimilarity
    metadata: ReportMetadata

    @property
    def overall_assessment(self) -> list[str]:
        return self.contribution_analysis.overall_assessment

    @property
    def contributions(self) -> list[ContributionAnalysisEntry]:
        return self.contribution_analysis.contributions

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "NoveltyReport":
        return decode(cls, d)


def strip_dangling_citations(
    report: NoveltyReport, on_dangling: Callable[[str, list[int]], None]
) -> None:
    """Strip each ``[n]`` naming no reference from the prose render prints, after calling
    ``on_dangling(where, indices)``."""
    allowed = {r.index for r in report.references}

    def fix(text: str, where: str) -> str:
        bad = _bad_citations([text], allowed)
        if bad:
            on_dangling(where, bad)
        return strip_bad_citations(text, allowed)

    survey = report.core_task_survey
    survey.narrative = fix(survey.narrative, "narrative")
    cta = report.core_task_comparisons
    if cta.mode == "sibling":
        for comparison in cta.comparisons:
            comparison.brief_comparison = fix(
                comparison.brief_comparison, f"sibling comparison with {comparison.canonical_id}"
            )
    elif cta.mode == "subtopic_siblings" and cta.subtopic_summary is not None:
        summary = cta.subtopic_summary
        summary.overall = fix(summary.overall, "subtopic summary")
        summary.similarities = [fix(t, "subtopic similarities") for t in summary.similarities]
        summary.differences = [fix(t, "subtopic differences") for t in summary.differences]
    report.overall_assessment[:] = [fix(p, "overall assessment") for p in report.overall_assessment]
    for contribution in report.contributions:
        for entry in contribution.comparisons:
            pid = entry.canonical_id
            evidence = entry.refutation_evidence
            if entry.refutation_status == CAN_REFUTE and evidence is not None:
                evidence.summary = fix(evidence.summary, f"refutation summary on {pid}")
                for pair in evidence.evidence_pairs:
                    pair.rationale = fix(pair.rationale, f"evidence rationale on {pid}")
            elif entry.brief_note:
                entry.brief_note = fix(entry.brief_note, f"brief note on {pid}")


def assemble_report(
    *,
    target: PaperRecord,
    core_task: CoreTask,
    claims: Sequence[ContributionClaim],
    taxonomy_outcome: RepairOutcome,
    core_task_analysis: CoreTaskAnalysis,
    comparisons_by_claim: Mapping[str, Sequence[ContributionComparison]],
    candidate_set: CandidateSet,
    segments_by_candidate: Mapping[str, Sequence[SimilaritySegment]],
    references: Sequence[ReportReference],
    narrative: str,
    overall_assessment: Sequence[str],
    one_liners: Mapping[str, str],
    generated_at: str,
    pipeline_version: str,
    diagnostics: Sequence[str] = (),
    artifact_filenames: Optional[Mapping[str, str]] = None,
) -> NoveltyReport:
    """Build the seven-module report and check its internal consistency.

    The downgrade pass must already have run on the comparison entries. A
    ``[n]`` that names no reference is stripped from the prose, with one
    warning per field. Raises AssemblyError when a required
    module is missing or the statistics identity does not hold.
    """
    modules = {
        "original_paper": target,
        "core_task_survey": taxonomy_outcome,
        "contribution_analysis": comparisons_by_claim,
        "core_task_comparisons": core_task_analysis,
        "references": references,
        "textual_similarity": segments_by_candidate,
        "metadata": generated_at,
    }
    for name, value in modules.items():
        if value is None:
            raise AssemblyError(f"missing required module: {name}")

    # the reply may name any id: keep the target's and the core papers', target first
    kept_one_liners = {
        pid: one_liners[pid]
        for pid in dict.fromkeys([target.canonical_id, *candidate_set.core_task])
        if pid in one_liners
    }

    contributions: list[ContributionAnalysisEntry] = []
    for claim in claims:
        entries = list(comparisons_by_claim.get(claim.claim_id, ()))
        examined = len(candidate_set.per_contribution.get(claim.claim_id, ()))
        if len(entries) != examined:
            raise AssemblyError(
                f"statistics identity violated for {claim.claim_id}: "
                f"{len(entries)} comparisons for {examined} candidates examined"
            )
        contributions.append(
            ContributionAnalysisEntry(
                claim_id=claim.claim_id,
                name=claim.name,
                author_claim_text=claim.author_claim_text,
                description=claim.description,
                source_hint=claim.source_hint,
                comparisons=entries,
            )
        )

    report = NoveltyReport(
        original_paper=OriginalPaper(
            canonical_id=target.canonical_id,
            title=target.title,
            abstract=target.abstract,
            url=target.url,
            publication_date=target.publication_date,
        ),
        core_task_survey=CoreTaskSurvey(
            core_task=core_task.text,
            taxonomy=taxonomy_outcome.taxonomy,
            taxonomy_status=taxonomy_outcome.status,
            narrative=narrative,
            diagnostics=list(taxonomy_outcome.diagnostics),
            one_liners=kept_one_liners,
        ),
        contribution_analysis=ContributionAnalysis(list(overall_assessment), contributions),
        core_task_comparisons=core_task_analysis,
        references=list(references),
        textual_similarity=TextualSimilarity(
            segments_by_candidate={k: list(v) for k, v in segments_by_candidate.items() if v},
        ),
        metadata=ReportMetadata(
            generated_at=generated_at,
            pipeline_version=pipeline_version,
            artifact_filenames=dict(artifact_filenames or {}),
            warnings=list(diagnostics),
        ),
    )

    def _warn(where: str, bad: list[int]) -> None:
        report.metadata.warnings.append(f"stripping dangling citations {bad} from {where}")

    strip_dangling_citations(report, _warn)
    return report


def check_renderable(report: NoveltyReport) -> None:
    """Check what the codec's types cannot: raise RenderError for a references list that
    repeats an index or a canonical id, for a comparison entry or a segment list under a
    canonical id no reference has (the one place a paper's title and URL live), or for a
    prose field render prints that cites no reference."""
    for key in ("index", "canonical_id"):
        seen: set[Any] = set()
        for ref in report.references:
            value = getattr(ref, key)
            if value in seen:
                raise RenderError(f"references repeat {key} {value!r}")
            seen.add(value)
    known = {ref.canonical_id for ref in report.references}
    comparisons = [*report.core_task_comparisons.comparisons,
                   *(e for c in report.contributions for e in c.comparisons)]
    for what, ids in (("comparison", [e.canonical_id for e in comparisons]),
                      ("segment list", report.textual_similarity.segments_by_candidate)):
        for pid in ids:
            if pid not in known:
                raise RenderError(f"{what} under {pid!r} names no reference")

    def _reject(where: str, bad: list[int]) -> None:
        raise RenderError(f"dangling citation index {bad[0]} in {where}")

    strip_dangling_citations(report, _reject)


# --- phase orchestration ---------------------------------------------------------


def citations_of(references: Sequence[ReportReference]) -> dict[str, str]:
    """Each paper's in-text citation, ``alias[index]``, by canonical id."""
    return {r.canonical_id: f"{r.alias}[{r.index}]" for r in references}


def core_papers(target: PaperRecord, candidate_set: CandidateSet) -> list[tuple[PaperRecord, str]]:
    """The core papers in rank order, each with its citation in the report."""
    citations = citations_of(build_references(target, candidate_set))
    records = {paper.canonical_id: paper for paper in candidate_set.unified}
    return [(records[pid], citations[pid]) for pid in candidate_set.core_task]


def _taxonomy_task(
    core: Sequence[tuple[PaperRecord, str]], core_task: CoreTask, target: PaperRecord,
    target_doc: str, llm: LlmClient, lane: Scheduler,
) -> tuple[RepairOutcome, StructuralPosition | str, Optional[CoreTaskCalls]]:
    """Build the taxonomy, place the target in it, then submit the core-task comparison's
    calls without waiting. Returns the taxonomy, the target's position or why it has
    none, and the comparison, None when the target has no position or the lane closed."""
    records = {paper.canonical_id: paper for paper, _ in core}
    outcome = build_taxonomy(list(records.values()), core_task, llm, original=target)
    try:
        position = structural_position(outcome.taxonomy, target.canonical_id)
    except InvalidInputError as exc:
        return outcome, str(exc), None
    try:
        started = start_core_task_comparison(
            position, target, target_doc, records, llm, core_task=core_task, lane=lane,
            citations={paper.canonical_id: citation for paper, citation in core},
        )
    except LaneClosedError:
        started = None
    return outcome, position, started


@dataclass
class CoreScopeCalls:
    """Phase III's calls that read only the core scope, and the core papers they were given.

    A run can start them once Phase II has filtered its core scope, while the
    contribution searches are still out. ``taxonomy`` is one lane task,
    ``_taxonomy_task``: it builds the taxonomy, places the target in it and
    submits the core-task comparison's calls.
    """

    # the core papers in rank order, each with its citation in the report
    core: list[tuple[PaperRecord, str]]
    taxonomy: Future[tuple[RepairOutcome, StructuralPosition | str, Optional[CoreTaskCalls]]]
    one_liners: Future[dict[str, str]]

    def cancel(self) -> None:
        """Cancel the calls not begun: the taxonomy task and the one-liners if
        still queued, and the comparison's calls once the taxonomy task returns."""

        def _cancel_comparison(taxonomy: Future) -> None:
            if taxonomy.exception() is not None:
                return
            *_, started = taxonomy.result()
            for call in started.calls if started is not None else ():
                call.cancel()

        self.one_liners.cancel()
        if not self.taxonomy.cancel():
            self.taxonomy.add_done_callback(_cancel_comparison)

    def kept_for(self, core: Sequence[tuple[PaperRecord, str]]) -> bool:
        """Whether these calls sent what calls started on ``core`` would send: each core
        paper's id, title, abstract, full text and citation, rank by rank. If not, log the
        ids of the papers that differ and cancel the calls not begun."""
        sent = [[(paper.canonical_id, paper.title, paper.abstract, paper.full_text, citation)
                 for paper, citation in papers] for papers in (self.core, core)]
        changed = dict.fromkeys(
            fields[0] for pair in zip_longest(*sent) if pair[0] != pair[1]
            for fields in filter(None, pair)
        )
        if changed:
            logger.info("early core-scope calls discarded: %s changed", ", ".join(changed))
            self.cancel()
        return not changed


def start_core_scope_calls(
    core: list[tuple[PaperRecord, str]],
    core_task: CoreTask,
    target: PaperRecord,
    target_doc: str,
    llm: LlmClient,
    lane: Scheduler,
) -> CoreScopeCalls:
    """Submit the taxonomy task and the one-liner call on ``core``, as ``core_papers`` gives it.

    Submits and never waits.
    """
    taxonomy = lane.submit(_taxonomy_task, core, core_task, target, target_doc, llm, lane)
    one_liners = lane.submit(generate_one_liners, [paper for paper, _ in core], llm)
    return CoreScopeCalls(core, taxonomy, one_liners)


def run_analysis_phase(
    phase1: Phase1Result,
    candidate_set: CandidateSet,
    target: PaperRecord,
    target_doc: str,
    llm: LlmClient,
    lane: Scheduler,
    *,
    generated_at: str,
    pipeline_version: str,
    artifact_filenames: Optional[Mapping[str, str]] = None,
    early: Optional[CoreScopeCalls] = None,
) -> NoveltyReport:
    """Run all Phase III work and assemble the structured report.

    Each model call is submitted to the model ``lane`` once its inputs exist;
    results are read in candidate order, never completion order. The
    ``early`` core-scope calls, started on this run's core task, target and
    target text, are taken when they sent what Phase III would send (see
    ``CoreScopeCalls.kept_for``); otherwise those of their calls that have not
    begun are cancelled, and all are made again.
    """
    diagnostics: list[str] = []
    references = build_references(target, candidate_set)
    citations = citations_of(references)
    allowed_indices = {r.index for r in references}
    core_ids = set(candidate_set.core_task)
    taxonomy_indices = {0} | {r.index for r in references if r.canonical_id in core_ids}

    candidate_records = {paper.canonical_id: paper for paper in candidate_set.unified}

    # one comparison call per distinct candidate, covering every claim
    comparison_order = dict.fromkeys(
        pid
        for claim in phase1.claims
        for pid in candidate_set.per_contribution.get(claim.claim_id, ())
    )

    core = core_papers(target, candidate_set)
    core_calls = early
    if core_calls is None or not core_calls.kept_for(core):
        core_calls = start_core_scope_calls(core, phase1.core_task, target, target_doc, llm, lane)
    # shared read-only by the comparison and similarity tasks
    target_document = Document(target_doc)
    # a candidate's two tasks share one document and are submitted back to
    # back, so with one worker each is freed before the next is tokenized
    comparison_futures: dict[str, Future[list[ContributionComparison]]] = {}
    similarity_futures: dict[str, Future[list[SimilaritySegment]]] = {}
    for pid in dict.fromkeys([*comparison_order, *candidate_records]):
        paper = candidate_records[pid]
        candidate_doc = Document(_content_of(paper)[0])
        if pid in comparison_order:
            comparison_futures[pid] = lane.submit(
                compare_contribution, target_document, paper, candidate_doc, phase1.claims,
                llm, citation=citations.get(pid),
            )
        similarity_futures[pid] = lane.submit(
            detect_similarity, target_document, paper, candidate_doc, llm
        )

    outcome, position, started = core_calls.taxonomy.result()
    if isinstance(position, str):
        diagnostics.append(f"structural position unavailable: {position}")
        position = None
    narrative_future = lane.submit(
        generate_narrative,
        phase1.core_task, outcome.taxonomy, position, references, taxonomy_indices, llm,
    )
    if started is not None:
        core_analysis = compare_core_task(started)
    else:
        core_analysis = CoreTaskAnalysis(
            mode="isolated",
            taxonomy_path=[],
            isolation=Isolation(note="No comparison: target position in taxonomy is unknown."),
            diagnostics=["taxonomy did not place the target paper"],
        )
    entries_by_candidate = {pid: f.result() for pid, f in comparison_futures.items()}
    segments_by_candidate = {pid: similarity_futures[pid].result() for pid in candidate_records}
    one_liners = core_calls.one_liners.result()
    narrative, narrative_diag = narrative_future.result()
    diagnostics.extend(narrative_diag)

    all_entries: dict[str, list[ContributionComparison]] = {}
    stats_payload: list[dict[str, Any]] = []
    for idx, claim in enumerate(phase1.claims):
        all_entries[claim.claim_id] = downgrade_unverified([
            entries_by_candidate[pid][idx]
            for pid in candidate_set.per_contribution.get(claim.claim_id, ())
        ])
        examined, can_refute = claim_counts(all_entries[claim.claim_id])
        stats_payload.append(
            {"name": claim.name, "candidates_examined": examined, "can_refute_count": can_refute}
        )
    assessment, assessment_diag = generate_overall_assessment(
        target,
        outcome.taxonomy,
        position,
        stats_payload,
        len(candidate_set.unified),
        narrative,
        allowed_indices,
        llm,
    )
    diagnostics.extend(assessment_diag)
    diagnostics.extend(phase1.warnings)

    return assemble_report(
        target=target,
        core_task=phase1.core_task,
        claims=phase1.claims,
        taxonomy_outcome=outcome,
        core_task_analysis=core_analysis,
        comparisons_by_claim=all_entries,
        candidate_set=candidate_set,
        segments_by_candidate=segments_by_candidate,
        references=references,
        narrative=narrative,
        overall_assessment=assessment,
        one_liners=one_liners,
        generated_at=generated_at,
        pipeline_version=pipeline_version,
        diagnostics=diagnostics,
        artifact_filenames=artifact_filenames,
    )
