"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion alongside its runtime budget.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    anchor_case_doc,
    anchor_case_quote,
    progression_contribution_results,
    progression_core_results,
    progression_target,
    random_taxonomy,
)
from noveltycheck.analysis import (
    CAN_REFUTE,
    CANNOT_REFUTE,
    UNCLEAR,
    ContributionComparison,
    EvidencePair,
    RefutationEvidence,
    downgrade_unverified,
)
from noveltycheck.clients import MockLlmClient
from noveltycheck.extraction import QUERY_PREFIX, run_extraction_phase, word_count
from noveltycheck.papers import (
    VerificationVerdict,
    compute_quality_flag,
    normalize_text,
    preprocess_document,
)
from noveltycheck.pipeline import PipelineConfig, run_pipeline
from noveltycheck.retrieval import (
    Phase2Result,
    RetryPolicy,
    cross_scope_dedup,
    filter_scope,
    summarize_filtering,
)
from noveltycheck.scheduler import Scheduler
from noveltycheck.taxonomy import repair_taxonomy, validate_taxonomy
from noveltycheck.verification import (
    _TOKEN_RE,
    Document,
    QuoteLocation,
    align_anchor,
    segment_anchors,
    tokenize,
    verify_quote,
    verify_quote_detailed,
)
from oracles import (
    ASSESSMENTS,
    brute_force_coverage,
    every_window_alignment,
    flag_oracle,
    token_document,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    if elapsed >= budget_seconds:
        print(f"[FAIL] criterion {number}: {description} (over budget: {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.2f}s)"
        )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_quality_flag_truth_table():
    with criterion(1, "quality-flag oracle over all verdicts with <=3 criteria", 1.0):
        pairs = [(t, a) for t in ("time", "other") for a in ASSESSMENTS]
        cases = 0
        for n in (1, 2, 3):
            for combo in itertools.product(pairs, repeat=n):
                expected = flag_oracle(list(combo))
                got = compute_quality_flag(VerificationVerdict.from_pairs(list(combo)))
                assert got.value == expected, combo
                cases += 1
        assert cases == 8 + 64 + 512


def test_criterion_2_filtering_progression_reproduction():
    with criterion(2, "bundled retrieval fixture reproduces the filtering progression", 1.0):
        target = progression_target()
        core = filter_scope(progression_core_results(), "core_task", 50, target)
        assert (
            core.stats.raw, core.stats.after_quality, core.stats.after_dedup,
            core.stats.selected,
        ) == (774, 210, 163, 50)

        per, per_stats = {}, {}
        raw = perfect = 0
        for cid, results in progression_contribution_results().items():
            outcome = filter_scope(results, cid, 10, target)
            per[cid], per_stats[cid] = outcome.selected, outcome.stats
            raw += outcome.stats.raw
            perfect += outcome.stats.after_quality
        assert (raw, perfect) == (1554, 336)
        assert sum(len(v) for v in per.values()) == 30

        candidate_set = cross_scope_dedup(core.selected, per)
        funnel = summarize_filtering(Phase2Result(candidate_set, core.stats, per_stats, []))
        assert funnel["combined"] == 80
        assert funnel["unified"] == 73
        assert funnel["cross_scope_removed_pct"] == 8.8
        overall = round(100.0 * (774 + 1554 - 73) / (774 + 1554), 1)
        assert overall == 96.9
        assert (funnel["raw_total"], funnel["overall_filtered_pct"]) == (774 + 1554, overall)


def test_criterion_3_confidence_formula_suite():
    with criterion(3, "confidence formula and alignment oracle agreement", 30.0):
        # (a) token-boundary verbatim substrings of the fixture document score 1.0
        doc = Document(preprocess_document(
            (FIXTURES / "target_paper.txt").read_text(encoding="utf-8"), "comparison"
        ))
        normalized = normalize_text(doc.text)
        spans = [m.span() for m in _TOKEN_RE.finditer(normalized)]
        rng = random.Random(101)
        checked = 0
        while checked < 200:
            i = rng.randrange(len(spans) - 12)
            j = i + rng.randint(4, 12)
            sub = normalized[spans[i][0] : spans[j - 1][1]]
            if len(sub) < 20:
                continue
            loc = verify_quote(sub, doc)
            assert loc.found and loc.match_score == 1.0, sub
            checked += 1

        # (b) token-disjoint quotes score exactly zero
        loc = verify_quote("zyx wvu tsr qpo nml kji hgf", doc)
        assert loc.match_score == 0.0 and not loc.found

        # (c) the hand-computed anchor-statistics case
        compact = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=True))
        spread = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=False))
        assert [m.coverage for m in compact.anchor_matches] == [1.0, 1.0, 0.5, 0.0]
        assert abs(compact.location.match_score - 0.85) <= 1e-9
        assert abs(spread.location.match_score - 0.425) <= 1e-9
        assert compact.location.found and not spread.location.found

        # (d) alignment agrees with the brute-force all-window oracle
        rng = random.Random(42)
        vocab = [f"w{i:02d}" for i in range(40)]
        for _ in range(1000):
            n = rng.randint(20, 200)
            doc_tokens = [rng.choice(vocab) for _ in range(n)]
            qlen = rng.randint(3, 40)
            if rng.random() < 0.5 and n > qlen:
                start = rng.randrange(n - qlen)
                quote_tokens = doc_tokens[start : start + qlen]
                for _ in range(rng.randint(0, qlen // 3)):
                    quote_tokens[rng.randrange(qlen)] = rng.choice(vocab)
            else:
                quote_tokens = [rng.choice(vocab) for _ in range(qlen)]
            anchors = segment_anchors(tokenize(" ".join(quote_tokens)))
            doc = token_document(doc_tokens)
            for anchor in anchors:
                got = align_anchor(anchor.tokens, doc)
                oracle_cov = brute_force_coverage(list(anchor.tokens), doc_tokens)
                assert got.coverage == oracle_cov, (anchor.tokens, doc_tokens)

        # (e) past 4096 windows: filler plus noisy copies of short anchors over a
        # small vocabulary, with substitutions, insertions and deletions
        rng = random.Random(4096)
        for _ in range(2):
            doc_tokens = [f"f{i % 50}" for i in range(rng.randint(4200, 4600))]
            anchors = []
            for at in range(100, len(doc_tokens) - 100, 300):
                anchor = [f"t{rng.randrange(8)}" for _ in range(rng.randint(5, 9))]
                copy = list(anchor)
                for _ in range(rng.randint(1, 3)):
                    i = rng.randrange(len(copy))
                    op = rng.random()
                    if op < 0.3:
                        copy[i] = f"t{rng.randrange(12)}"
                    elif op < 0.65:
                        copy.insert(i, f"t{rng.randrange(12)}")
                    elif len(copy) > 1:
                        del copy[i]
                doc_tokens[at : at + len(copy)] = copy
                anchors.append(anchor)
            doc = token_document(doc_tokens)
            for anchor in anchors:
                got = align_anchor(anchor, doc)
                want = every_window_alignment(anchor, doc_tokens)
                assert (got.coverage, got.doc_span) == want, (anchor, want)


def test_criterion_4_downgrade_safety():
    with criterion(4, "downgrade policy safety over randomized comparison sets", 10.0):
        rng = random.Random(77)

        def location(found):
            return QuoteLocation(found=found, match_score=0.95 if found else 0.2)

        def pair():
            return EvidencePair(
                original_quote="oq",
                original_paragraph_label="L",
                candidate_quote="cq",
                candidate_paragraph_label="L",
                rationale="r",
                original_location=location(rng.random() < 0.5),
                candidate_location=location(rng.random() < 0.5),
            )

        cases = 0
        while cases < 10_000:
            status = rng.choice([CAN_REFUTE, CANNOT_REFUTE, UNCLEAR])
            pairs = [pair() for _ in range(rng.randint(0, 4))]
            entry = ContributionComparison(
                canonical_id="arxiv:x",
                comparison_mode="abstract",
                refutation_status=status,
                refutation_evidence=(
                    RefutationEvidence("s", pairs) if status == CAN_REFUTE else None
                ),
                brief_note=None if status == CAN_REFUTE else "note",
            )
            (after,) = downgrade_unverified([entry])
            if after.refutation_status == CAN_REFUTE:
                assert any(
                    p.doubly_verified for p in after.refutation_evidence.evidence_pairs
                )
            if status == CAN_REFUTE and any(p.doubly_verified for p in pairs):
                assert after is entry  # verified entries are never altered
            if status != CAN_REFUTE:
                assert after is entry
            cases += 1


def test_criterion_5_taxonomy_fuzzing():
    import test_taxonomy as tt

    with criterion(5, "taxonomy validation and repair under injected violations", 10.0):
        rng = random.Random(55)
        for _ in range(1000):
            ids = [f"id{i:03d}" for i in range(rng.randint(12, 40))]
            tree = random_taxonomy(rng, ids)
            k_missing = rng.randint(1, 5)
            k_extra = rng.randint(1, 5)
            k_dup = rng.randint(1, 5)

            missing = tt._choose_missing(tree, k_missing, rng)
            tree = tt._remove_ids(tree, missing)
            ghosts = [f"ghost{i}" for i in range(k_extra)]
            tree = tt._inject_extra(tree, ghosts, rng)
            remaining = [p for leaf in tree.iter_leaves() for p in leaf.papers
                         if not p.startswith("ghost")]
            dups = rng.sample(remaining, min(k_dup, len(remaining)))
            tree = tt._inject_duplicate(tree, dups, rng)

            report = validate_taxonomy(tree, set(ids))
            assert report.missing_ids == missing
            assert report.extra_ids == set(ghosts)
            assert report.duplicate_ids == set(dups)

            outcome = repair_taxonomy(tree, set(ids))
            after = validate_taxonomy(outcome.taxonomy, set(ids))
            assert not after.extra_ids and not after.duplicate_ids
            if missing:
                assert outcome.status == "needs_review"
            else:
                assert outcome.status == "valid"


def test_criterion_6_similarity_gate():
    from noveltycheck.verification import SimilaritySegment, filter_segments, verify_segment

    with criterion(6, "similarity segments gated on 30 words and top-3 retention", 10.0):
        def seg(words, sid=1):
            text = " ".join(f"tok{i:03d}" for i in range(words))
            return SimilaritySegment(
                segment_id=sid, location="unknown", original_text=text,
                candidate_text=text, segment_type="Direct", rationale="r",
            ), text

        s29, text29 = seg(29)
        verified29 = verify_segment(s29, Document(text29), Document(text29))
        assert not verified29.verified
        assert verified29.original_location.found and verified29.candidate_location.found

        s30, text30 = seg(30)
        doc_a = "leading content before the overlap. " + text30 + " trailing words."
        doc_b = "other framing text here. " + text30 + " closing remarks."
        verified30 = verify_segment(s30, Document(doc_a), Document(doc_b))
        assert verified30.verified

        segments = []
        for sid, words in enumerate((80, 60, 45, 33, 31), start=1):
            s, text = seg(words, sid)
            segments.append(verify_segment(s, Document(text), Document(text)))
        assert all(s.verified for s in segments[:3])
        kept = filter_segments([s for s in segments if s.verified])
        assert [s.min_word_count for s in kept] == [80, 60, 45]
        assert len(kept) == 3


def test_criterion_7_golden_pipeline_runs(tmp_path):
    with criterion(7, "golden end-to-end runs across repeats and concurrency", 5.0):
        paper = (FIXTURES / "target_paper.txt").read_text(encoding="utf-8")
        goldens = {
            "phase2.json": (GOLDENS / "phase2.json").read_bytes(),
            "phase3.json": (GOLDENS / "phase3.json").read_bytes(),
            "report.md": (GOLDENS / "report.md").read_bytes(),
        }
        run_id = 0
        for concurrency in (1, 1, 1, 4, 4):
            run_id += 1
            out = tmp_path / f"run{run_id}"
            cfg = PipelineConfig(
                output_dir=out,
                mock=True,
                llm_fixture=FIXTURES / "mock_llm.json",
                search_fixture=FIXTURES / "mock_search.json",
                target_url="https://arxiv.org/abs/2504.01234",
                fixed_timestamp="2026-01-15T00:00:00+00:00",
                retry=RetryPolicy(concurrency=concurrency),
                analysis_concurrency=concurrency,
            )
            manifest = run_pipeline(paper, cfg)
            assert manifest.succeeded
            # phase1.json has no golden: run 1 is the reference for the rest
            goldens.setdefault("phase1.json", (out / "phase1.json").read_bytes())
            assert (out / "phase1.json").read_bytes() == goldens["phase1.json"]
            assert (out / "phase2.json").read_bytes() == goldens["phase2.json"]
            assert (out / "phase3.json").read_bytes() == goldens["phase3.json"]
            md = next(p for p in out.iterdir() if p.suffix == ".md")
            assert md.read_bytes() == goldens["report.md"]


def test_criterion_8_query_rule_conformance():
    with criterion(8, "query sets satisfy prefix, word cap, and count rules", 10.0):
        rng = random.Random(88)
        vocab = ["agent", "policy", "graph", "sparse", "reward", "training", "multi-step",
                 "retrieval", "alignment", "cache", "drift", "model"]
        doc = preprocess_document("A Paper\n\nAbstract\n\nIt studies a problem.\n", "extraction")

        def phrase(lo, hi):
            return " ".join(rng.choices(vocab, k=rng.randint(lo, hi)))

        def maybe_dirty(p):
            return (QUERY_PREFIX + p) if rng.random() < 0.3 else p

        def prefixed_or_not(lo, hi):
            return (QUERY_PREFIX if rng.random() < 0.5 else "") + phrase(lo, hi)

        # dirty texts enter where the model produces them: the core phrase,
        # the primary-query reply and each variants reply
        for _ in range(1000):
            n_claims = rng.randint(1, 3)
            contributions = [
                {
                    "name": phrase(1, 20),
                    "author_claim_text": phrase(0, 50) if rng.random() < 0.9 else "",
                    "description": phrase(1, 70),
                }
                for _ in range(n_claims)
            ]
            primaries = [
                {"id": f"contribution_{i + 1}", "prior_work_query": prefixed_or_not(2, 35)}
                for i in range(n_claims)
            ]
            variant_replies = [{"variants": [maybe_dirty(phrase(5, 20)), maybe_dirty(phrase(5, 20))]}]
            variant_replies += [
                {"variants": [prefixed_or_not(2, 35) for _ in range(rng.randint(0, 4))]}
                for _ in range(n_claims)
            ]
            llm = MockLlmClient({"rules": [
                {"system_contains": "extract ONE short phrase", "response": maybe_dirty(phrase(5, 15))},
                {"system_contains": "extract the main contributions",
                 "response": {"contributions": contributions}},
                {"system_contains": "prior-work search queries", "response": {"queries": primaries}},
                {"system_contains": "rewriting academic search queries",
                 "responses": variant_replies},
            ]})
            with Scheduler(1) as lane:
                phase1 = run_extraction_phase(doc, llm, lane)
            query_set = phase1.query_set
            assert 6 <= query_set.total <= 12
            assert query_set.total == 3 + 3 * len(phase1.claims)
            for q in query_set.core_task_queries:
                assert not q.text.startswith(QUERY_PREFIX)
            for group in query_set.contribution_queries.values():
                assert len(group) == 3
                for q in group:
                    assert q.text.startswith(QUERY_PREFIX)
                    assert word_count(q.text) <= 25
