"""Phase III behavior: comparisons, similarity detection, downgrade, assembly."""

import json
import random
from concurrent.futures import Future
from dataclasses import replace

import pytest

from conftest import make_record
from noveltycheck.analysis import (
    CAN_REFUTE,
    CANNOT_REFUTE,
    UNCLEAR,
    ContributionComparison,
    CoreTaskAnalysis,
    EvidencePair,
    RefutationEvidence,
    assemble_report,
    build_references,
    build_taxonomy,
    claim_counts,
    compare_contribution,
    compare_core_task,
    core_papers,
    derive_alias,
    detect_similarity,
    downgrade_unverified,
    generate_narrative,
    generate_one_liners,
    start_core_scope_calls,
    start_core_task_comparison,
)
from noveltycheck.clients import MockLlmClient
from noveltycheck.errors import AssemblyError, InvalidInputError
from noveltycheck.extraction import (
    ContributionClaim,
    CoreTask,
    expand_query_variants,
    extract_contributions,
    generate_primary_queries,
)
from noveltycheck.papers import PublicationDate, preprocess_document
from noveltycheck.render import render_markdown
from noveltycheck.retrieval import cross_scope_dedup
from noveltycheck.scheduler import LaneClosedError, Scheduler
from noveltycheck.taxonomy import RepairOutcome, TaxonomyNode, structural_position
from noveltycheck.verification import Document, QuoteLocation

CORE_TASK = CoreTask(text="methods for studying widget deformation under load")

TARGET_TEXT = (
    "Widget Deformation Paper\n\n"
    "Abstract\n\nWe analyze widget deformation and bending behavior under load.\n\n"
    "1. Method\n\n"
    "our approach measures the elastic limit of each widget assembly under "
    "cyclic load and reports the deformation profile across the full operating "
    "temperature range of the device.\n"
)
TARGET_DOC = preprocess_document(TARGET_TEXT, "comparison")
TARGET_QUOTE = (
    "our approach measures the elastic limit of each widget assembly under "
    "cyclic load and reports the deformation profile"
)

CANDIDATE_TEXT = (
    "Prior Widget Study\n\nAbstract\n\nWidget bending analysis.\n\n"
    "1. Approach\n\n"
    "we record the elastic limit of widget assemblies under repeated cyclic "
    "load and publish deformation profiles for standard temperature ranges.\n"
)
CANDIDATE_QUOTE = (
    "we record the elastic limit of widget assemblies under repeated cyclic "
    "load and publish deformation profiles"
)

CLAIMS = [
    ContributionClaim(claim_id="contribution_1", name="Elastic limit measurement method"),
    ContributionClaim(claim_id="contribution_2", name="Deformation benchmark"),
]


def _compare(candidate, llm, claims=CLAIMS):
    """Compare a candidate's content (full text, else abstract) with the target."""
    content = candidate.full_text if candidate.full_text is not None else candidate.abstract
    return compare_contribution(Document(TARGET_DOC), candidate, Document(content), claims, llm)


def _pair(found_original=True, found_candidate=True):
    return EvidencePair(
        original_quote="q1",
        original_paragraph_label="Method",
        candidate_quote="q2",
        candidate_paragraph_label="Approach",
        rationale="overlap",
        original_location=QuoteLocation(found=found_original, match_score=0.9 if found_original else 0.1),
        candidate_location=QuoteLocation(found=found_candidate, match_score=0.9 if found_candidate else 0.1),
    )


def _entry(status, pairs=(), note=None):
    evidence = RefutationEvidence(summary="s", evidence_pairs=list(pairs)) if pairs or status == CAN_REFUTE else None
    return ContributionComparison(
        canonical_id="arxiv:1",
        comparison_mode="abstract",
        refutation_status=status,
        refutation_evidence=evidence if status == CAN_REFUTE else None,
        brief_note=note if status != CAN_REFUTE else None,
    )


class TestDowngradeUnverified:
    def test_verified_entry_unchanged(self):
        entry = _entry(CAN_REFUTE, pairs=[_pair(True, True)])
        out = downgrade_unverified([entry])
        assert out[0] is entry

    def test_candidate_side_failure_downgrades_with_note(self):
        entry = _entry(CAN_REFUTE, pairs=[_pair(True, False)])
        out = downgrade_unverified([entry])
        assert out[0].refutation_status == CANNOT_REFUTE
        assert out[0].refutation_evidence is None
        assert "Downgraded from can_refute" in out[0].brief_note

    def test_cannot_refute_is_noop(self):
        entry = _entry(CANNOT_REFUTE, note="different")
        out = downgrade_unverified([entry])
        assert out[0] is entry

    def test_safety_property_randomized(self):
        rng = random.Random(13)
        for _ in range(500):
            entries = []
            for _ in range(rng.randint(1, 6)):
                status = rng.choice([CAN_REFUTE, CANNOT_REFUTE, UNCLEAR])
                pairs = [
                    _pair(rng.random() < 0.5, rng.random() < 0.5)
                    for _ in range(rng.randint(0, 3))
                ]
                note = None if status == CAN_REFUTE else "n"
                entries.append(_entry(status, pairs=pairs, note=note))
            out = downgrade_unverified(entries)
            for before, after in zip(entries, out):
                if after.refutation_status == CAN_REFUTE:
                    assert any(p.doubly_verified for p in after.refutation_evidence.evidence_pairs)
                    assert after is before
                if before.refutation_status != CAN_REFUTE:
                    assert after is before


def _tax_payload(ids, extra=None, missing=None):
    ids = list(ids)
    if missing:
        ids = [i for i in ids if i not in missing]
    if extra:
        ids = ids + list(extra)
    half = max(1, len(ids) // 2)
    return {
        "name": "Widget Deformation Survey Taxonomy",
        "subtopics": [
            {
                "name": "Branch A",
                "scope_note": "Inclusion.",
                "exclude_note": "Exclusion elsewhere.",
                "subtopics": [
                    {"name": "Leaf A", "scope_note": "s", "exclude_note": "e", "papers": ids[:half]},
                    {"name": "Leaf B", "scope_note": "s", "exclude_note": "e", "papers": ids[half:]},
                ],
            }
        ],
    }


class TestBuildTaxonomy:
    CANDS = [make_record(f"Candidate {i}", 0.9 - i * 0.01) for i in range(4)]
    IDS = [c.canonical_id for c in CANDS]

    def test_valid_generation(self):
        llm = MockLlmClient({"default": _tax_payload(self.IDS)})
        outcome = build_taxonomy(self.CANDS, CORE_TASK, llm)
        assert outcome.status == "valid"

    def test_two_stage_repair(self):
        target = make_record("The Target Paper Of Record")
        ids = [target.canonical_id] + self.IDS
        generated = _tax_payload(ids, extra=["ghost:1"], missing=[self.IDS[-1]])
        repaired = _tax_payload(ids)
        llm = MockLlmClient(
            {
                "rules": [
                    {"system_contains": "rigorous academic taxonomies", "response": generated},
                    {"system_contains": "constraints for fixing", "response": repaired},
                ]
            }
        )
        outcome = build_taxonomy(self.CANDS, CORE_TASK, llm, original=target)
        assert outcome.status == "valid"
        assert any("deterministic repair" in d for d in outcome.diagnostics)

    def test_repair_still_missing_needs_review(self):
        generated = _tax_payload(self.IDS, missing=[self.IDS[-1]])
        llm = MockLlmClient(
            {
                "rules": [
                    {"system_contains": "rigorous academic taxonomies", "response": generated},
                    {"system_contains": "constraints for fixing", "response": generated},
                ]
            }
        )
        outcome = build_taxonomy(self.CANDS, CORE_TASK, llm)
        assert outcome.status == "needs_review"

    def test_unparseable_generation_preserves_raw(self):
        llm = MockLlmClient({"default": "not json at all"})
        outcome = build_taxonomy(self.CANDS, CORE_TASK, llm)
        assert outcome.status == "needs_review"
        assert any("raw output" in d for d in outcome.diagnostics)

    def test_requires_two_candidates(self):
        with pytest.raises(InvalidInputError):
            build_taxonomy(self.CANDS[:1], CORE_TASK, MockLlmClient({}))


class HeldLane(Scheduler):
    """A lane that holds its tasks until ``run_held``, and raises ``refusal`` once it is set."""

    def __init__(self):
        super().__init__(1)
        self.held = []
        self.refusal = None

    def submit(self, fn, /, *args, **kwargs):
        if self.refusal is not None:
            raise self.refusal
        future = Future()
        self.held.append((future, lambda: fn(*args, **kwargs)))
        return future

    def run_held(self, count=None):
        for _ in range(len(self.held) if count is None else count):
            future, task = self.held.pop(0)
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(task())
                except Exception as exc:
                    future.set_exception(exc)


class TestStartCoreScopeCalls:
    TARGET = make_record("The Target Paper Of Record")
    IDS = [TARGET.canonical_id] + TestBuildTaxonomy.IDS
    TAXONOMY_RULE = {"system_contains": "rigorous academic taxonomies",
                     "response": _tax_payload(IDS)}
    SIBLING_RULE = {"system_contains": "SAME taxonomy category",
                    "response": {"is_duplicate_variant": False, "brief_comparison": "Differs."}}

    def _start(self, llm, lane):
        core = core_papers(self.TARGET, cross_scope_dedup(TestBuildTaxonomy.CANDS, {}))
        return start_core_scope_calls(core, CORE_TASK, self.TARGET, TARGET_DOC, llm, lane)

    def test_comparison_starts_when_the_taxonomy_returns(self):
        llm = MockLlmClient({"rules": [self.TAXONOMY_RULE, self.SIBLING_RULE]})
        with Scheduler(1) as lane:
            calls = self._start(llm, lane)
            outcome, position, started = calls.taxonomy.result(timeout=10)
            assert outcome.status == "valid"
            # the target shares Leaf A with the first candidate, cited as the pool indexes it
            assert started.position.siblings == (self.IDS[1],)
            assert position is started.position
            [comparison] = compare_core_task(started).comparisons
        [sibling_call] = [c["user"] for c in llm.calls if "SAME taxonomy" in c["system"]]
        assert "Candidate 0 (Candidate 0[1])" in sibling_call
        assert comparison.brief_comparison == "Differs."

    def test_lane_closed_before_the_sibling_call_leaves_the_comparison_unstarted(self):
        lane = HeldLane()
        calls = self._start(MockLlmClient({"rules": [self.TAXONOMY_RULE]}), lane)
        lane.refusal = LaneClosedError("cannot schedule new futures after shutdown")
        lane.run_held()
        outcome, position, started = calls.taxonomy.result(timeout=0)
        assert outcome.status == "valid"
        assert started is None
        # the target was placed all the same
        assert position.siblings == (self.IDS[1],)

    @pytest.mark.parametrize("where", ["taxonomy_call", "sibling_submit"])
    def test_unexpected_error_surfaces(self, where):
        class BrokenLlm(MockLlmClient):
            def complete(self, system_prompt, user_prompt, temperature=0.0):
                raise RuntimeError("bug")

        lane = HeldLane()
        if where == "taxonomy_call":
            calls = self._start(BrokenLlm({}), lane)
        else:
            calls = self._start(MockLlmClient({"rules": [self.TAXONOMY_RULE]}), lane)
            lane.refusal = RuntimeError("bug")
        lane.run_held()
        # never read as a taxonomy that did not place the target
        with pytest.raises(RuntimeError, match="bug"):
            calls.taxonomy.result(timeout=0)

    @pytest.mark.parametrize("ran", [0, 1])
    def test_cancel_drops_the_calls_not_begun(self, ran):
        llm = MockLlmClient({"rules": [self.TAXONOMY_RULE, self.SIBLING_RULE]})
        lane = HeldLane()
        calls = self._start(llm, lane)
        lane.run_held(ran)  # the taxonomy task, which queues the sibling call
        calls.cancel()
        lane.run_held()
        assert calls.one_liners.cancelled()
        assert calls.taxonomy.cancelled() == (ran == 0)
        # only a taxonomy task that had begun made its call; no sibling call was made
        assert len(llm.calls) == llm.call_count("rigorous academic taxonomies") == ran


class TestCoreScopeCallsKeptFor:
    @pytest.mark.parametrize("field, value, kept", [
        ("url", "https://example.org/elsewhere", True),
        ("publication_date", PublicationDate(2020), True),
        ("relevance_score", 0.1, True),
        ("canonical_id", "doi:10.1/other", False),
        ("title", "Another Title", False),
        ("abstract", "Another abstract.", False),
        ("full_text", "A full text now.", False),
        ("citation", "Other[9]", False),
    ])
    def test_kept_only_when_every_prompt_field_matches(self, field, value, kept):
        target = TestStartCoreScopeCalls.TARGET
        core = core_papers(target, cross_scope_dedup(TestBuildTaxonomy.CANDS, {}))
        calls = start_core_scope_calls(
            core, CORE_TASK, target, TARGET_DOC, MockLlmClient({}), HeldLane()
        )
        (paper, citation), *rest = core
        if field == "citation":
            citation = value
        else:
            paper = replace(paper, **{field: value})
        assert calls.kept_for([(paper, citation), *rest]) == kept
        # calls not kept are cancelled
        assert calls.one_liners.cancelled() != kept


def _comparison_response(status1, status2, evidence=None):
    entries = [
        {
            "aspect": "contribution",
            "contribution_name": CLAIMS[0].name,
            "refutation_status": status1,
            **({"refutation_evidence": evidence} if status1 == "can_refute" else
               {"brief_note": "Differs in scope."}),
        },
        {
            "aspect": "contribution",
            "contribution_name": CLAIMS[1].name,
            "refutation_status": status2,
            "brief_note": "No benchmark claimed.",
        },
    ]
    return {"contribution_analyses": entries}


class TestCompareContribution:
    def test_cannot_refute_entries_stored(self):
        candidate = make_record("Prior Widget Study", 0.9, abstract="Widget bending analysis.")
        llm = MockLlmClient({"default": _comparison_response("cannot_refute", "unclear")})
        entries = _compare(candidate, llm)
        assert [e.refutation_status for e in entries] == [CANNOT_REFUTE, UNCLEAR]
        assert all(e.comparison_mode == "abstract" for e in entries)
        assert entries[0].brief_note and entries[0].refutation_evidence is None

    def test_verbatim_evidence_pair_verified(self):
        candidate = make_record(
            "Prior Widget Study", 0.9, full_text=preprocess_document(CANDIDATE_TEXT, "comparison")
        )
        evidence = {
            "summary": "Same measurement scheme.",
            "evidence_pairs": [
                {
                    "original_quote": TARGET_QUOTE,
                    "original_paragraph_label": "Method",
                    "candidate_quote": CANDIDATE_QUOTE,
                    "candidate_paragraph_label": "Approach",
                    "rationale": "Both measure elastic limits under cyclic load.",
                }
            ],
        }
        llm = MockLlmClient({"default": _comparison_response("can_refute", "cannot_refute", evidence)})
        entries = _compare(candidate, llm)
        pair = entries[0].refutation_evidence.evidence_pairs[0]
        assert entries[0].comparison_mode == "fulltext"
        assert pair.original_location.found and pair.candidate_location.found
        assert pair.doubly_verified

    def test_each_document_tokenized_at_most_once(self, monkeypatch):
        from noveltycheck import verification

        tokenized = []
        real = verification.tokenize

        def counting(text):
            tokenized.append(text)
            return real(text)

        monkeypatch.setattr(verification, "tokenize", counting)
        candidate = make_record(
            "Prior Widget Study", 0.9, full_text=preprocess_document(CANDIDATE_TEXT, "comparison")
        )
        pair = {
            "original_quote": TARGET_QUOTE,
            "original_paragraph_label": "Method",
            "candidate_quote": CANDIDATE_QUOTE,
            "candidate_paragraph_label": "Approach",
            "rationale": "Both measure elastic limits under cyclic load.",
        }
        evidence = {"summary": "Same scheme.", "evidence_pairs": [pair, pair, pair]}
        llm = MockLlmClient({"default": _comparison_response("can_refute", "cannot_refute", evidence)})
        entries = _compare(candidate, llm)
        assert all(p.doubly_verified for p in entries[0].refutation_evidence.evidence_pairs)
        documents = [t for t in tokenized if t not in (TARGET_QUOTE, CANDIDATE_QUOTE)]
        assert sorted(documents) == sorted([TARGET_DOC, candidate.full_text])

    def test_fabricated_quote_fails_verification_then_downgrades(self):
        candidate = make_record("Prior Widget Study", 0.9, abstract="Widget bending analysis.")
        evidence = {
            "summary": "Allegedly identical.",
            "evidence_pairs": [
                {
                    "original_quote": TARGET_QUOTE,
                    "original_paragraph_label": "Method",
                    "candidate_quote": "a completely invented quotation that appears nowhere",
                    "candidate_paragraph_label": "Approach",
                    "rationale": "fabricated",
                }
            ],
        }
        llm = MockLlmClient({"default": _comparison_response("can_refute", "cannot_refute", evidence)})
        entries = _compare(candidate, llm)
        assert not entries[0].refutation_evidence.evidence_pairs[0].doubly_verified
        downgraded = downgrade_unverified(entries)
        assert downgraded[0].refutation_status == CANNOT_REFUTE

    def test_parse_failure_degrades_to_unclear(self):
        candidate = make_record("Prior Widget Study", 0.9)
        llm = MockLlmClient({"default": "utter garbage"})
        entries = _compare(candidate, llm)
        assert [e.refutation_status for e in entries] == [UNCLEAR, UNCLEAR]
        assert all("Comparison unavailable" in e.brief_note for e in entries)

    def test_over_limit_quotes_truncated_to_90_words(self):
        candidate = make_record("Prior Widget Study", 0.9)
        long_quote = " ".join(f"w{i}" for i in range(120))
        evidence = {
            "summary": "s",
            "evidence_pairs": [
                {
                    "original_quote": long_quote,
                    "candidate_quote": long_quote,
                    "rationale": "r",
                }
            ],
        }
        llm = MockLlmClient({"default": _comparison_response("can_refute", "cannot_refute", evidence)})
        entries = _compare(candidate, llm)
        pair = entries[0].refutation_evidence.evidence_pairs[0]
        assert len(pair.original_quote.split()) == 90
        assert len(pair.candidate_quote.split()) == 90

    def test_item_named_for_another_claim_is_not_taken_by_position(self):
        claims = [
            ContributionClaim(claim_id="contribution_1", name="Alpha method"),
            ContributionClaim(claim_id="contribution_2", name="Beta benchmark"),
        ]

        def judged(first_name):
            reply = {"contribution_analyses": [
                {"contribution_name": first_name, "refutation_status": "cannot_refute",
                 "brief_note": "Differs."},
            ]}
            entries = _compare(
                make_record("Prior Widget Study", 0.9), MockLlmClient({"default": reply}), claims
            )
            return [(e.refutation_status, e.brief_note) for e in entries]

        missing = (UNCLEAR, "No analysis returned for this contribution.")
        assert judged("Beta benchmark") == [missing, (CANNOT_REFUTE, "Differs.")]
        # a name that matches no claim still stands in for the claim in its slot
        assert judged("Alpha approach") == [(CANNOT_REFUTE, "Differs."), missing]

    def test_candidate_order_isolation(self):
        a = make_record("Prior Widget Study", 0.9)
        b = make_record("Another Candidate Entirely", 0.8)
        llm_fixture = {
            "rules": [
                {"system_contains": "comparative reviewer", "user_contains": a.title,
                 "response": _comparison_response("cannot_refute", "cannot_refute")},
                {"system_contains": "comparative reviewer", "user_contains": b.title,
                 "response": _comparison_response("unclear", "unclear")},
            ]
        }
        first = [
            _compare(c, MockLlmClient(llm_fixture))
            for c in (a, b)
        ]
        second = [
            _compare(c, MockLlmClient(llm_fixture))
            for c in (b, a)
        ]
        assert [e.refutation_status for e in first[0]] == [e.refutation_status for e in second[1]]
        assert [e.refutation_status for e in first[1]] == [e.refutation_status for e in second[0]]


def _compare_core_task(position, target, candidates, llm):
    """The core-task comparison of ``target`` at ``position``, on a one-worker lane."""
    with Scheduler(1) as lane:
        return compare_core_task(start_core_task_comparison(
            position, target, TARGET_DOC, candidates, llm, core_task=CORE_TASK, lane=lane
        ))


def _compare_lone_target(llm):
    """Core-task comparison of a target alone in its leaf beside a populated leaf."""
    target = make_record("The Target Paper")
    other = make_record("Nearby Work")
    tid, oid = target.canonical_id, other.canonical_id
    from noveltycheck.taxonomy import TaxonomyNode

    tree = TaxonomyNode.from_dict(
        {
            "name": "X Survey Taxonomy",
            "subtopics": [
                {"name": "A", "scope_note": "s", "exclude_note": "e", "subtopics": [
                    {"name": "Solo", "scope_note": "s", "exclude_note": "e", "papers": [tid]},
                    {"name": "Dense", "scope_note": "s", "exclude_note": "e", "papers": [oid]},
                ]}
            ],
        }
    )
    position = structural_position(tree, tid)
    return _compare_core_task(position, target, {oid: other}, llm)


class TestCompareCoreTask:
    def _position(self, tree_ids):
        payload = _tax_payload(tree_ids)
        from noveltycheck.taxonomy import TaxonomyNode

        return TaxonomyNode.from_dict(payload)

    def test_sibling_mode_individual_comparisons(self):
        target = make_record("The Target Paper")
        siblings = [make_record("Sibling One Paper"), make_record("Sibling Two Paper")]
        ids = [target.canonical_id] + [s.canonical_id for s in siblings]
        from noveltycheck.taxonomy import TaxonomyNode

        tree = TaxonomyNode.from_dict(
            {
                "name": "X Survey Taxonomy",
                "subtopics": [
                    {"name": "A", "scope_note": "s", "exclude_note": "e",
                     "subtopics": [{"name": "L", "scope_note": "s", "exclude_note": "e",
                                    "papers": ids}]}
                ],
            }
        )
        position = structural_position(tree, target.canonical_id)
        llm = MockLlmClient(
            {
                "rules": [
                    {"system_contains": "SAME taxonomy category",
                     "user_contains": siblings[0].title,
                     "response": {"is_duplicate_variant": False, "brief_comparison": "Differs."}},
                    {"system_contains": "SAME taxonomy category",
                     "user_contains": siblings[1].title,
                     "response": {
                         "is_duplicate_variant": True,
                         "brief_comparison": (
                             "This paper is highly similar to the original paper; it may be "
                             "a variant or near-duplicate. Please manually verify."
                         ),
                     }},
                ]
            }
        )
        records = {s.canonical_id: s for s in siblings}
        analysis = _compare_core_task(position, target, records, llm)
        assert analysis.mode == "sibling"
        flags = {c.canonical_id: c.is_duplicate_variant for c in analysis.comparisons}
        assert flags[siblings[0].canonical_id] is False
        assert flags[siblings[1].canonical_id] is True
        dup = next(c for c in analysis.comparisons if c.is_duplicate_variant)
        assert "Please manually verify" in dup.brief_comparison

    def test_isolated_mode_no_llm_call(self):
        target = make_record("The Target Paper")
        tid = target.canonical_id
        from noveltycheck.taxonomy import TaxonomyNode

        tree = TaxonomyNode.from_dict(
            {
                "name": "X Survey Taxonomy",
                "subtopics": [
                    {"name": "A", "scope_note": "s", "exclude_note": "e",
                     "subtopics": [{"name": "L", "scope_note": "s", "exclude_note": "e",
                                    "papers": [tid]}]}
                ],
            }
        )
        position = structural_position(tree, tid)
        llm = MockLlmClient({})
        analysis = _compare_core_task(position, target, {}, llm)
        assert analysis.mode == "isolated"
        assert analysis.isolation is not None
        assert llm.calls == []

    def test_subtopic_siblings_single_call(self):
        llm = MockLlmClient(
            {"default": {"overall": "Related but distinct.", "similarities": ["topic"],
                         "differences": ["method"]}}
        )
        analysis = _compare_lone_target(llm)
        assert analysis.mode == "subtopic_siblings"
        assert analysis.subtopic_summary.overall == "Related but distinct."
        assert len(llm.calls) == 1

    def test_sibling_failure_degrades_to_diagnostic_entry(self):
        target = make_record("The Target Paper")
        sibling = make_record("Sibling One Paper")
        ids = [target.canonical_id, sibling.canonical_id]
        tree = self._position(ids + ["x:1", "x:2"])
        position = structural_position(tree, ids[0])
        llm = MockLlmClient({"rules": [{"system_contains": "SAME taxonomy", "error": "down"}]})
        analysis = _compare_core_task(position, target, {ids[1]: sibling}, llm)
        assert len(analysis.comparisons) >= 1
        assert any("Comparison unavailable" in c.brief_comparison for c in analysis.comparisons)
        assert analysis.diagnostics


SEGMENT_TEXT = (
    "this exact overlapping block of text contains more than thirty words so "
    "that the verification step accepts it as a reportable similarity segment "
    "between the two papers involved here today"
)


def _detect_similarity(target_doc, candidate, llm):
    content = candidate.full_text if candidate.full_text is not None else candidate.abstract
    return detect_similarity(Document(target_doc), candidate, Document(content), llm)


class TestDetectSimilarity:
    def _candidate(self):
        return make_record("Overlapping Candidate Work", 0.9, full_text=preprocess_document(
            "Intro text.\n" + SEGMENT_TEXT + "\nClosing text.", "comparison"
        ))

    def _target_doc(self):
        return preprocess_document("Header.\n" + SEGMENT_TEXT + "\nFooter here.", "comparison")

    def test_verified_direct_segment(self):
        llm = MockLlmClient(
            {"default": {"plagiarism_segments": [
                {"segment_id": 1, "location": "Introduction",
                 "original_text": SEGMENT_TEXT, "candidate_text": SEGMENT_TEXT,
                 "plagiarism_type": "Direct", "rationale": "verbatim"}]}}
        )
        segments = _detect_similarity(self._target_doc(), self._candidate(), llm)
        assert len(segments) == 1
        assert segments[0].verified and segments[0].segment_type == "Direct"

    def test_fabricated_segment_dropped(self):
        llm = MockLlmClient(
            {"default": {"plagiarism_segments": [
                {"segment_id": 1, "location": "unknown",
                 "original_text": SEGMENT_TEXT,
                 "candidate_text": "words that simply do not occur in the candidate document " * 4,
                 "plagiarism_type": "Direct", "rationale": "made up"}]}}
        )
        segments = _detect_similarity(self._target_doc(), self._candidate(), llm)
        assert segments == []

    def test_no_full_text_returns_empty(self):
        llm = MockLlmClient({})
        candidate = make_record("Abstract Only Candidate", 0.9)
        segments = _detect_similarity(self._target_doc(), candidate, llm)
        assert segments == []
        assert llm.calls == []


class TestReferencesAndAssembly:
    def _setup(self):
        target = make_record("The Target Paper: Something Long")
        core = [make_record(f"Core Paper {i}", 0.9 - i * 0.01) for i in range(3)]
        contrib = {"contribution_1": [core[0], make_record("Contrib Only Paper", 0.5)]}
        candidate_set = cross_scope_dedup(core, contrib)
        return target, candidate_set

    def _assemble(self, **overrides):
        target, candidate_set = self._setup()
        arguments = dict(
            target=target,
            core_task=CORE_TASK,
            claims=[],
            taxonomy_outcome=RepairOutcome(taxonomy=TaxonomyNode(name="T Survey Taxonomy"),
                                           status="valid"),
            core_task_analysis=CoreTaskAnalysis(mode="isolated", taxonomy_path=[]),
            comparisons_by_claim={},
            candidate_set=candidate_set,
            segments_by_candidate={},
            references=build_references(target, candidate_set),
            narrative="Two paragraphs.\n\nSecond one.",
            overall_assessment=["p1", "p2", "p3"],
            one_liners={},
            generated_at="2026-01-01T00:00:00+00:00",
            pipeline_version="0.1.0",
        )
        arguments.update(overrides)
        return assemble_report(**arguments)

    def _one_claim_entries(self, statuses):
        _, candidate_set = self._setup()
        ids = candidate_set.per_contribution["contribution_1"]
        entries = [
            ContributionComparison(
                canonical_id=pid, comparison_mode="abstract", refutation_status=status,
                **({"refutation_evidence": RefutationEvidence("s", [_pair(True, True)])}
                   if status == CAN_REFUTE else {"brief_note": "n"}),
            )
            for pid, status in zip(ids, statuses)
        ]
        claims = [ContributionClaim(claim_id="contribution_1", name="Only Claim")]
        return claims, {"contribution_1": entries}

    def test_alias_zero_is_target_then_ascending(self):
        target, candidate_set = self._setup()
        refs = build_references(target, candidate_set)
        assert refs[0].is_original and refs[0].index == 0
        assert [r.index for r in refs] == list(range(len(refs)))
        assert refs[0].alias == "The Target Paper"

    def test_alias_stopword_trimming(self):
        assert derive_alias("Learning to Rank for Retrieval Systems Everywhere Now") == "Learning to Rank"

    def test_statistics_identity_and_unclear_counting(self):
        claims, entries = self._one_claim_entries([UNCLEAR, CAN_REFUTE])
        report = self._assemble(claims=claims, comparisons_by_claim=entries)
        assert claim_counts(report.contributions[0].comparisons) == (2, 1)
        assert (
            "**Statistics:** 2 candidates examined; 1 can refute; 1 cannot refute or unclear."
            in render_markdown(report).splitlines()
        )
        payload = report.to_dict()
        assert list(payload.keys()) == [
            "original_paper", "core_task_survey", "contribution_analysis",
            "core_task_comparisons", "references", "textual_similarity", "metadata",
        ]

    def test_missing_comparison_breaks_statistics_identity(self):
        # two candidates examined for the claim, one comparison entry
        claims, entries = self._one_claim_entries([CAN_REFUTE])
        with pytest.raises(AssemblyError, match="statistics identity"):
            self._assemble(claims=claims, comparisons_by_claim=entries)

    def test_missing_module_named_in_error(self):
        with pytest.raises(AssemblyError, match="references"):
            self._assemble(references=None)


class TestNarrativeCitations:
    def _refs(self):
        target = make_record("Target Work")
        core = [make_record("Only Candidate", 0.9)]
        candidate_set = cross_scope_dedup(core, {})
        return target, build_references(target, candidate_set)

    def test_bad_citation_rerequested_then_accepted(self):
        target, refs = self._refs()
        from noveltycheck.taxonomy import TaxonomyNode

        tree = TaxonomyNode(name="T Survey Taxonomy")
        llm = MockLlmClient(
            {"rules": [{"system_contains": "survey-style narrative",
                        "responses": [{"narrative": "Cites Ghost[9]."},
                                      {"narrative": "Cites Real[1]."}]}]}
        )
        narrative, diagnostics = generate_narrative(
            CORE_TASK, tree, None, refs, {0, 1}, llm
        )
        assert narrative == "Cites Real[1]."
        assert any("re-requesting" in d for d in diagnostics)

    def test_persistent_bad_citation_stripped(self):
        target, refs = self._refs()
        from noveltycheck.taxonomy import TaxonomyNode

        tree = TaxonomyNode(name="T Survey Taxonomy")
        llm = MockLlmClient(
            {"default": {"narrative": "Cites Ghost[9] and Real[1]."}}
        )
        narrative, diagnostics = generate_narrative(CORE_TASK, tree, None, refs, {0, 1}, llm)
        assert "[9]" not in narrative and "[1]" in narrative
        assert any("stripping" in d for d in diagnostics)


# each site's own parse-failure note, flag or warning
NON_OBJECT_SITES = {
    "claim_comparison": (
        lambda llm: [e.brief_note for e in _compare_prior(llm)],
        "Comparison unavailable",
    ),
    "subtopic_comparison": (
        lambda llm: _compare_lone_target(llm).diagnostics, "subtopic comparison failed"
    ),
    "contribution_extraction": (
        lambda llm: extract_contributions(TARGET_DOC, llm)[1],
        "contribution extraction output unparseable",
    ),
    "query_variants": (
        lambda llm: expand_query_variants("original core topic phrase", llm,
                                          require_prefix=False)[1],
        "variant_generation_failed",
    ),
    "primary_query": (
        lambda llm: generate_primary_queries(CLAIMS, llm)[1],
        "primary query generation failed",
    ),
}


@pytest.mark.parametrize("site", sorted(NON_OBJECT_SITES))
@pytest.mark.parametrize("reply", [[], "42", '"a string"'])
def test_non_object_reply_takes_the_failure_branch(site, reply):
    run, expected = NON_OBJECT_SITES[site]
    outputs = run(MockLlmClient({"default": reply}))
    assert any(expected in text for text in outputs), outputs


def _overlap_candidate():
    return make_record("Overlapping Candidate Work", 0.9, full_text=preprocess_document(
        f"Intro text.\n{SEGMENT_TEXT}\nClosing text.", "comparison"
    ))


def _compare_prior(llm):
    return _compare(make_record("Prior Widget Study", 0.9), llm)


def _segment(**fields):
    return {"plagiarism_segments": [
        {"location": "Introduction", "original_text": SEGMENT_TEXT, "candidate_text": SEGMENT_TEXT,
         "plagiarism_type": "Direct", "rationale": "verbatim", **fields},
    ]}


def _refutation(evidence_pairs):
    return {"contribution_analyses": [
        {"contribution_name": CLAIMS[0].name, "refutation_status": "can_refute",
         "refutation_evidence": {"summary": "s", "evidence_pairs": evidence_pairs}},
    ]}


_TAXONOMY_PAPERS = [make_record("Alpha Widget Paper", 0.9), make_record("Beta Widget Paper", 0.8)]


def _taxonomy(**fields):
    return {"name": "Widget Survey Taxonomy", "subtopics": [
        {"name": "Widgets", "exclude_note": "e",
         "papers": [p.canonical_id for p in _TAXONOMY_PAPERS], **fields},
    ]}


def _contribution(**fields):
    return {"contributions": [{"name": "Elastic limit measurement", **fields}]}


# site -> (run, a reply with one mistyped field, the well-typed reply it must read as)
MISTYPED_FIELDS = {
    "contribution_analyses_null": (
        _compare_prior, {"contribution_analyses": None}, {"contribution_analyses": []},
    ),
    "evidence_pairs_null": (
        _compare_prior, _refutation(None), _refutation([]),
    ),
    "plagiarism_segments_null": (
        lambda llm: _detect_similarity(TARGET_DOC, _overlap_candidate(), llm),
        {"plagiarism_segments": None}, {"plagiarism_segments": []},
    ),
    "segment_id_text": (
        lambda llm: _detect_similarity(
            preprocess_document(f"Header.\n{SEGMENT_TEXT}\nFooter here.", "comparison"),
            _overlap_candidate(), llm,
        ),
        _segment(segment_id="s1"), _segment(segment_id=1),
    ),
    "items_null": (
        lambda llm: generate_one_liners(_TAXONOMY_PAPERS, llm), {"items": None}, {"items": []},
    ),
    "queries_null": (
        lambda llm: generate_primary_queries(CLAIMS, llm), {"queries": None}, {"queries": []},
    ),
    "contributions_null": (
        lambda llm: extract_contributions(TARGET_DOC, llm),
        {"contributions": None}, {"contributions": []},
    ),
    "scope_note_number": (
        lambda llm: build_taxonomy(_TAXONOMY_PAPERS, CORE_TASK, llm),
        _taxonomy(scope_note=5), _taxonomy(),
    ),
    "subtopics_number": (
        lambda llm: build_taxonomy(_TAXONOMY_PAPERS, CORE_TASK, llm),
        {"name": "Widget Survey Taxonomy", "subtopics": 5},
        {"name": "Widget Survey Taxonomy", "subtopics": []},
    ),
    "papers_text": (
        lambda llm: build_taxonomy(_TAXONOMY_PAPERS, CORE_TASK, llm),
        _taxonomy(papers="abc"), _taxonomy(papers=[]),
    ),
    "audit_flags_number": (
        lambda llm: extract_contributions(TARGET_DOC, llm),
        _contribution(audit_flags=5), _contribution(audit_flags=[]),
    ),
    "variants_text": (
        lambda llm: expand_query_variants("original core topic phrase", llm, require_prefix=False),
        {"variants": "abc"}, {"variants": []},
    ),
}


@pytest.mark.parametrize("site", sorted(MISTYPED_FIELDS))
def test_mistyped_reply_field_reads_as_its_empty_value(site):
    """A JSON object with a mistyped field takes the site's empty branch instead of raising."""
    run, mistyped, well_typed = MISTYPED_FIELDS[site]
    assert run(MockLlmClient({"default": mistyped})) == run(MockLlmClient({"default": well_typed}))
