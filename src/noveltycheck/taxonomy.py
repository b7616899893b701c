"""Hierarchical MECE taxonomy: representation, validation, repair, queries.

The tree mirrors the generation schema exactly: every node has a name,
non-root nodes carry scope and exclude notes, internals hold subtopics,
and leaves hold paper ids. Validation never raises; it reports. Repair is
deterministic first and model-assisted second, and failures downgrade to
``needs_review`` rather than fabricating assignments.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping, Optional

from .clients import LlmClient
from .codec import encode
from .errors import InvalidInputError, LlmError, ParseFailureError
from .extraction import ask, reply_list, reply_text, word_count
from .papers import PaperRecord

logger = logging.getLogger(__name__)

ROOT_NAME_SUFFIX = "Survey Taxonomy"
MAX_NOTE_WORDS = 25
LEAF_SIZE_SOFT_MIN = 2
LEAF_SIZE_SOFT_MAX = 7


@dataclass(frozen=True)
class TaxonomyNode:
    """One node of the taxonomy tree; leaves carry papers, internals subtopics."""

    name: str
    scope_note: Optional[str] = field(default=None, metadata={"omit_empty": True})
    exclude_note: Optional[str] = field(default=None, metadata={"omit_empty": True})
    subtopics: tuple[TaxonomyNode, ...] = field(default=(), metadata={"omit_empty": True})
    papers: tuple[str, ...] = field(default=(), metadata={"omit_empty": True})

    @property
    def is_leaf(self) -> bool:
        return bool(self.papers) or not self.subtopics

    def iter_leaves(self) -> Iterator["TaxonomyNode"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.subtopics:
                yield from child.iter_leaves()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TaxonomyNode":
        """The tree a model's reply describes, read leniently: a note that is not a string
        reads as absent, and an item of another type is passed over. An artifact's tree is
        read with ``codec.decode``, which refuses such a tree."""
        name = reply_text(d, "name", None)
        if name is None:
            raise InvalidInputError("taxonomy node must be an object with a name")
        return cls(
            name=name,
            scope_note=reply_text(d, "scope_note", None),
            exclude_note=reply_text(d, "exclude_note", None),
            subtopics=tuple(cls.from_dict(c) for c in reply_list(d, "subtopics")),
            papers=tuple(reply_list(d, "papers", str)),
        )


@dataclass(frozen=True)
class ValidationReport:
    missing_ids: frozenset[str]
    extra_ids: frozenset[str]
    duplicate_ids: frozenset[str]
    structural_errors: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def is_valid(self) -> bool:
        return not (
            self.missing_ids or self.extra_ids or self.duplicate_ids or self.structural_errors
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "missing_ids": sorted(self.missing_ids),
            "extra_ids": sorted(self.extra_ids),
            "duplicate_ids": sorted(self.duplicate_ids),
            "structural_errors": list(self.structural_errors),
            "warnings": list(self.warnings),
            "is_valid": self.is_valid,
        }


@dataclass
class RepairOutcome:
    taxonomy: TaxonomyNode
    status: str  # "valid" or "needs_review"
    diagnostics: list[str] = field(default_factory=list)


def validate_taxonomy(
    tax: TaxonomyNode,
    allowed: set[str],
    original: Optional[str] = None,
) -> ValidationReport:
    """Coverage, uniqueness, hallucination, and structural checks.

    Soft constraints (note word limits, leaf sizes outside 2-7) are
    reported as warnings and do not affect validity.
    """
    structural: list[str] = []
    warnings: list[str] = []

    if not tax.name.endswith(ROOT_NAME_SUFFIX) or tax.name == ROOT_NAME_SUFFIX:
        structural.append(
            f"root name must be '<TOPIC_LABEL> {ROOT_NAME_SUFFIX}', got {tax.name!r}"
        )
    if tax.scope_note is not None or tax.exclude_note is not None:
        structural.append("root must not carry scope or exclude notes")
    if tax.papers:
        structural.append("root must not carry papers directly")
    if not tax.subtopics:
        structural.append("root has no subtopics")

    def _check(node: TaxonomyNode, path: str) -> None:
        if node.papers and node.subtopics:
            structural.append(f"node {path} has both papers and subtopics")
        if not node.papers and not node.subtopics:
            structural.append(f"node {path} is empty")
        for attr in ("scope_note", "exclude_note"):
            note = getattr(node, attr)
            if note is None:
                warnings.append(f"node {path} is missing {attr}")
            elif word_count(note) > MAX_NOTE_WORDS:
                warnings.append(f"node {path} {attr} exceeds {MAX_NOTE_WORDS} words")
        if node.papers and not LEAF_SIZE_SOFT_MIN <= len(node.papers) <= LEAF_SIZE_SOFT_MAX:
            warnings.append(f"leaf {path} size {len(node.papers)} outside 2-7")
        for child in node.subtopics:
            _check(child, f"{path}/{child.name}")

    for child in tax.subtopics:
        _check(child, child.name)

    assigned = Counter(pid for leaf in tax.iter_leaves() for pid in leaf.papers)
    if original is not None and assigned[original] != 1:
        structural.append(
            f"original paper assigned {assigned[original]} times, expected exactly 1"
        )
    return ValidationReport(
        missing_ids=frozenset(set(allowed) - assigned.keys()),
        extra_ids=frozenset(assigned.keys() - set(allowed)),
        duplicate_ids=frozenset(pid for pid, n in assigned.items() if n > 1),
        structural_errors=tuple(structural),
        warnings=tuple(warnings),
    )


def deterministic_repair(tax: TaxonomyNode, report: ValidationReport) -> TaxonomyNode:
    """Remove hallucinated ids and duplicate assignments, then prune.

    Duplicates keep their first occurrence in depth-first order. Leaves
    emptied by removal are pruned, and internals emptied by pruning cascade
    away. Assignments are never invented.
    """
    seen: set[str] = set()

    def _rebuild(node: TaxonomyNode) -> Optional[TaxonomyNode]:
        if node.papers:
            kept = []
            for pid in node.papers:
                if pid in report.extra_ids or pid in seen:
                    continue
                seen.add(pid)
                kept.append(pid)
            if not kept:
                return None
            return replace(node, papers=tuple(kept))
        children = [c for c in (_rebuild(child) for child in node.subtopics) if c is not None]
        if not children and node.subtopics:
            return None
        return replace(node, subtopics=tuple(children))

    children = [c for c in (_rebuild(child) for child in tax.subtopics) if c is not None]
    return replace(tax, subtopics=tuple(children))


def repair_taxonomy(
    tax: TaxonomyNode,
    allowed: set[str],
    *,
    original: Optional[str] = None,
    papers: Optional[Mapping[str, PaperRecord]] = None,
    llm: Optional[LlmClient] = None,
) -> RepairOutcome:
    """Validate, remove extra and duplicate ids, then give one verdict.

    With a model client and papers still missing, one model round first
    places them into best-fit existing leaves, and its tree is cleaned the
    same way. No artificial catch-all category is ever created: a tree that
    still fails validation is handed on as ``needs_review`` with diagnostics.
    """
    diagnostics: list[str] = []

    def _clean(tree: TaxonomyNode, note: str) -> tuple[TaxonomyNode, ValidationReport]:
        """Validate ``tree``; if it has extra or duplicate ids, note it, remove them and
        validate again. ``note`` may name the counts as ``{extra}`` and ``{duplicate}``."""
        report = validate_taxonomy(tree, allowed, original)
        if report.extra_ids or report.duplicate_ids:
            diagnostics.append(
                note.format(extra=len(report.extra_ids), duplicate=len(report.duplicate_ids))
            )
            tree = deterministic_repair(tree, report)
            report = validate_taxonomy(tree, allowed, original)
        return tree, report

    tax, report = _clean(
        tax, "deterministic repair removed {extra} extra and {duplicate} duplicate ids"
    )
    if report.missing_ids and llm is not None:
        records = papers or {}
        missing = sorted(report.missing_ids)
        payload = {
            "root_name": tax.name,
            "allowed_ids": sorted(allowed),
            "missing_ids": missing,
            "extra_ids": sorted(report.extra_ids),
            "missing_papers": [
                {"id": pid, "title": records[pid].title if pid in records else "",
                 "abstract": records[pid].abstract if pid in records else "", "rank": None}
                for pid in missing
            ],
            "original_paper_id": original,
            "taxonomy": encode(tax),
        }
        try:
            repaired = TaxonomyNode.from_dict(ask(llm, "taxonomy_repair", payload).value)
        except (LlmError, ParseFailureError, InvalidInputError) as exc:
            diagnostics.append(f"llm repair failed: {exc}")
        else:
            tax, report = _clean(
                repaired, "llm repair introduced extras or duplicates; re-running cleanup"
            )
    if report.is_valid:
        return RepairOutcome(taxonomy=tax, status="valid", diagnostics=diagnostics)
    diagnostics.append(f"still invalid after repair: {json.dumps(report.to_dict())}")
    return RepairOutcome(taxonomy=tax, status="needs_review", diagnostics=diagnostics)


def order_leaf_papers(
    leaf: TaxonomyNode,
    original: Optional[str] = None,
    rank: Optional[Mapping[str, int]] = None,
) -> TaxonomyNode:
    """Original paper first, then ascending retrieval rank, stable on ties."""
    rank = rank or {}
    rest = [p for p in leaf.papers if p != original]
    ordered = sorted(rest, key=lambda pid: rank.get(pid, len(rank) + 1))
    if original is not None and original in leaf.papers:
        ordered = [original] + ordered
    return replace(leaf, papers=tuple(ordered))


def order_all_leaves(
    tax: TaxonomyNode,
    original: Optional[str] = None,
    rank: Optional[Mapping[str, int]] = None,
) -> TaxonomyNode:
    def _rebuild(node: TaxonomyNode) -> TaxonomyNode:
        if node.papers:
            return order_leaf_papers(node, original, rank)
        return replace(node, subtopics=tuple(_rebuild(c) for c in node.subtopics))

    return _rebuild(tax)


@dataclass(frozen=True)
class StructuralPosition:
    """Where the target paper sits in the taxonomy and who its neighbors are."""

    path: tuple[str, ...]
    mode: str  # "sibling", "subtopic_siblings", or "isolated"
    siblings: tuple[str, ...] = ()
    sibling_subtopics: tuple[TaxonomyNode, ...] = ()
    leaf: Optional[TaxonomyNode] = None


def structural_position(tax: TaxonomyNode, original: str) -> StructuralPosition:
    """Classify the target's neighborhood: leaf siblings, subtopic siblings, or isolation."""
    paths: list[list[TaxonomyNode]] = []

    def _find(node: TaxonomyNode, trail: list[TaxonomyNode]) -> None:
        trail = trail + [node]
        if original in node.papers:
            paths.append(trail)
        for child in node.subtopics:
            _find(child, trail)

    _find(tax, [])
    if len(paths) != 1:
        raise InvalidInputError(
            f"original paper assigned {len(paths)} times, expected exactly once"
        )
    trail = paths[0]
    leaf = trail[-1]
    names = tuple(n.name for n in trail)
    siblings = tuple(p for p in leaf.papers if p != original)
    if siblings:
        return StructuralPosition(path=names, mode="sibling", siblings=siblings, leaf=leaf)
    parent = trail[-2] if len(trail) >= 2 else None
    sibling_nodes: tuple[TaxonomyNode, ...] = ()
    if parent is not None:
        sibling_nodes = tuple(c for c in parent.subtopics if c is not leaf)
    if sibling_nodes:
        return StructuralPosition(
            path=names, mode="subtopic_siblings", sibling_subtopics=sibling_nodes, leaf=leaf
        )
    return StructuralPosition(path=names, mode="isolated", leaf=leaf)
