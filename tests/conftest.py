"""Shared fixtures and deterministic case builders for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from noveltycheck.papers import (
    PaperRecord,
    PublicationDate,
    VerificationVerdict,
)
from noveltycheck.retrieval import RetrievalResult
from noveltycheck.taxonomy import TaxonomyNode
from noveltycheck.verification import Document

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failure prints the
# blob that replays it with @reproduce_failure
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"

PERFECT = [("time", "support"), ("topic", "support")]
PARTIAL = [("topic", "somewhat_support")]
REJECTED = [("topic", "reject")]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def goldens_dir() -> Path:
    return GOLDENS


def make_record(title: str, relevance: float = 0.5, *, verdict=None, url=None, date=None,
                scheme: str | None = None, value: str | None = None, abstract: str = "",
                full_text: str | None = None) -> PaperRecord:
    from noveltycheck.papers import canonical_id_of, compute_quality_flag

    cid = f"{scheme}:{value or title}" if scheme else canonical_id_of({"title": title})
    flag = compute_quality_flag(VerificationVerdict.from_pairs(verdict or PERFECT))
    return PaperRecord(
        canonical_id=cid,
        title=title,
        relevance_score=relevance,
        quality_flag=flag,
        url=url,
        publication_date=date,
        abstract=abstract,
        full_text=full_text,
    )


def make_result(title: str, relevance: float, *, scope="core_task", contribution_id=None,
                **record) -> RetrievalResult:
    """A retrieval result; ``record`` takes ``make_record``'s keywords."""
    paper = make_record(title, relevance, **record)
    return RetrievalResult(paper=paper, scope=scope, contribution_id=contribution_id)


# --- the filtering-progression fixture -------------------------------------------


def progression_target() -> PaperRecord:
    return PaperRecord(
        canonical_id="title-hash:" + "f" * 32,
        title="Progression Fixture Target Paper on Agent Training",
        publication_date=PublicationDate(2025, 9),
    )


def progression_core_results() -> list[RetrievalResult]:
    """774 raw core-task results: 210 perfect over 163 unique ids."""
    results: list[RetrievalResult] = []
    rel = lambda i: round(0.99 - i * 0.0005, 6)
    # 47 ids retrieved by two queries each, 116 by one: 210 perfect results
    for i in range(1, 164):
        results.append(make_result(f"Core Candidate {i:04d}", rel(i)))
        if i <= 47:
            results.append(
                make_result(f"Core Candidate {i:04d}", rel(i) - 0.2)
            )
    # 564 non-perfect results split between partial and rejected flags
    for i in range(282):
        results.append(
            make_result(f"Noise Paper {i:04d}", 0.3, verdict=PARTIAL)
        )
        results.append(
            make_result(f"Noise Paper B{i:04d}", 0.3, verdict=REJECTED)
        )
    assert len(results) == 774
    return results


def progression_contribution_results() -> dict[str, list[RetrievalResult]]:
    """1,554 raw contribution results across 3 claims: 336 perfect, 30 selected."""
    shared = {
        "contribution_1": [1, 2, 3],
        "contribution_2": [4, 5, 6],
        "contribution_3": [7],
    }
    out: dict[str, list[RetrievalResult]] = {}
    for k, cid in enumerate(("contribution_1", "contribution_2", "contribution_3"), start=1):
        results: list[RetrievalResult] = []
        # shared ids also present in the core Top-50, retrieved with high relevance
        for i in shared[cid]:
            results.append(
                make_result(f"Core Candidate {i:04d}", 0.95, scope="contribution",
                            contribution_id=cid)
            )
        # unique perfect ids; 12 of the 112 perfect results are duplicates
        unique = 100 - len(shared[cid])
        for j in range(unique):
            results.append(
                make_result(f"Claim {k} Candidate {j:04d}", round(0.9 - j * 0.001, 6),
                            scope="contribution", contribution_id=cid)
            )
        for j in range(12):
            results.append(
                make_result(f"Claim {k} Candidate {j:04d}", round(0.5 - j * 0.001, 6),
                            scope="contribution", contribution_id=cid)
            )
        # 406 non-perfect results
        for j in range(406):
            results.append(
                make_result(f"Claim {k} Noise {j:04d}", 0.2,
                            verdict=PARTIAL if j % 2 else REJECTED,
                            scope="contribution", contribution_id=cid)
            )
        assert len(results) == 518, len(results)
        out[cid] = results
    return out


# --- the hand-computed verification case ------------------------------------------

CASE_ANCHOR_1 = ["magnet", "copper", "silver"]
CASE_ANCHOR_2 = ["helium", "oxygen", "carbon"]
CASE_ANCHOR_3 = ["alpha", "bravo", "delta", "zesty"]
CASE_ANCHOR_4 = ["queen", "joker", "vivid", "crown"]


def anchor_case_quote() -> str:
    return " ".join(CASE_ANCHOR_1 + CASE_ANCHOR_2 + CASE_ANCHOR_3 + CASE_ANCHOR_4)


def anchor_case_doc(compact: bool) -> Document:
    half_match = ["alpha", "bravo", "zulux", "yanke"]
    if compact:
        tokens = CASE_ANCHOR_1 + CASE_ANCHOR_2 + half_match + ["endcap"]
    else:
        filler = [f"pad{i:04d}" for i in range(310)]
        tokens = CASE_ANCHOR_1 + filler + CASE_ANCHOR_2 + half_match
    return Document(" ".join(tokens))


# --- random taxonomy construction ---------------------------------------------------


def random_taxonomy(rng: random.Random, ids: list[str]) -> TaxonomyNode:
    """A structurally valid random taxonomy over the given ids (depth 3-5)."""
    pool = list(ids)
    rng.shuffle(pool)
    leaves: list[TaxonomyNode] = []
    i = 0
    while pool:
        size = min(rng.randint(2, 7), len(pool))
        if len(pool) - size == 1:  # avoid leaving a lone id behind
            size = len(pool)
        chunk, pool = pool[:size], pool[size:]
        i += 1
        leaves.append(
            TaxonomyNode(
                name=f"Leaf Topic {i}",
                scope_note="Papers in this narrow slice of the field.",
                exclude_note="Everything else belongs under a sibling topic.",
                papers=tuple(chunk),
            )
        )

    def group(nodes: list[TaxonomyNode], level: int) -> list[TaxonomyNode]:
        grouped: list[TaxonomyNode] = []
        j = 0
        while nodes:
            width = min(rng.randint(2, 4), len(nodes))
            if len(nodes) - width == 1:
                width = len(nodes)
            chunk, nodes = nodes[:width], nodes[width:]
            j += 1
            grouped.append(
                TaxonomyNode(
                    name=f"Branch {level}.{j}",
                    scope_note="Methods sharing one organizing principle.",
                    exclude_note="Differently organized methods belong under siblings.",
                    subtopics=tuple(chunk),
                )
            )
        return grouped

    nodes = leaves
    depth = rng.randint(1, 3)
    for level in range(depth):
        if len(nodes) == 1:
            break
        nodes = group(nodes, level)
    return TaxonomyNode(name="Synthetic Field Survey Taxonomy", subtopics=tuple(nodes))
