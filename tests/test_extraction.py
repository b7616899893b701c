"""Structured-output parsing, claim validation, and query assembly."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from noveltycheck.clients import MockLlmClient
from noveltycheck.codec import encode
from noveltycheck.errors import ContributionRejected, ParseFailureError, PhaseAbortError
from noveltycheck.extraction import (
    ContributionClaim,
    QUERY_PREFIX,
    assemble_query_set,
    expand_query_variants,
    extract_contributions,
    extract_core_task,
    generate_primary_queries,
    parse_structured_output,
    validate_contribution,
    word_count,
)
from noveltycheck.papers import preprocess_document
from oracles import truncation_repairs

DOC = preprocess_document(
    "A Paper Title\n\nAbstract\n\nThis paper studies something specific in detail.\n\n"
    "1. Introduction\n\nWe propose several things worth retrieving.\n",
    "extraction",
)


class TestParseStructuredOutput:
    def test_strict_parse_has_no_fallback(self):
        parsed = parse_structured_output('{"a": 1}')
        assert parsed.value == {"a": 1} and parsed.fallback is None

    def test_fence_strip(self):
        parsed = parse_structured_output('```json\n{"a":1}\n```')
        assert parsed.value == {"a": 1} and parsed.fallback == "fence"

    def test_span_extraction(self):
        parsed = parse_structured_output('noise {"a":1} noise')
        assert parsed.value == {"a": 1} and parsed.fallback == "span"

    def test_truncation_repair(self):
        parsed = parse_structured_output('{"a":[1,2')
        assert parsed.value == {"a": [1, 2]} and parsed.fallback == "truncation"

    def test_truncation_inside_string(self):
        assert parse_structured_output('{"a": "unterminated').value == {"a": "unterminated"}

    def test_truncation_dangling_key(self):
        assert parse_structured_output('{"a": 1, "b":').value == {"a": 1}

    def test_failure_carries_raw(self):
        with pytest.raises(ParseFailureError) as exc:
            parse_structured_output("no json here at all")
        assert exc.value.raw == "no json here at all"

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=5), children, max_size=3),
            max_leaves=8,
        )
    )
    def test_valid_json_never_needs_fallback(self, value):
        parsed = parse_structured_output(json.dumps({"v": value}))
        assert parsed.fallback is None and parsed.value == {"v": value}

    def test_truncated_values_match_strict_parser_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            payload = {
                "items": [rng.randint(0, 99) for _ in range(rng.randint(1, 5))],
                "name": "x" * rng.randint(1, 9),
                "nested": {"k": [True, None, "s"]},
            }
            full = json.dumps(payload)
            cut = rng.randrange(1, len(full))
            base = full[:cut]
            if not base.startswith("{"):
                continue
            expected = truncation_repairs(base)
            try:
                parsed = parse_structured_output(base)
            except ParseFailureError:
                assert expected == [], base
                continue
            assert parsed.value in expected, (base, parsed.value)


class TestValidateContribution:
    def test_missing_optional_fields_defaulted_with_flag(self):
        claim = validate_contribution({"name": "Some contribution"})
        assert claim.source_hint == "unknown"
        assert "source_hint_defaulted" in claim.audit_flags
        assert claim.author_claim_text == "unknown" and claim.description == "unknown"

    def test_missing_name_rejected(self):
        with pytest.raises(ContributionRejected):
            validate_contribution({"description": "something"})

    def test_over_limit_fields_truncated(self):
        claim = validate_contribution(
            {
                "name": " ".join(["word"] * 20),
                "author_claim_text": " ".join(["claim"] * 50),
                "description": " ".join(["desc"] * 70),
            }
        )
        assert word_count(claim.name) == 15
        assert word_count(claim.author_claim_text) == 40
        assert word_count(claim.description) == 60
        assert "name_truncated" in claim.audit_flags

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            raw = {
                "name": " ".join(rng.choices(["alpha", "beta", "gamma"], k=rng.randint(1, 20))),
                "author_claim_text": " ".join(["c"] * rng.randint(0, 50)),
            }
            once = validate_contribution(raw)
            twice = validate_contribution(encode(once))
            assert (twice.name, twice.author_claim_text, twice.description) == (
                once.name, once.author_claim_text, once.description,
            )
            assert twice.audit_flags == once.audit_flags


class TestExtractCoreTask:
    PHRASE = (
        "training llm agents for long-horizon decision making via "
        "multi-turn reinforcement learning"
    )

    def test_accepts_in_range_phrase(self):
        llm = MockLlmClient({"default": self.PHRASE})
        core = extract_core_task(DOC, llm)
        assert core.text == self.PHRASE
        # hyphenated tokens count as single words
        assert word_count(core.text) == 11

    def test_short_phrase_rerequested_then_rejected(self):
        llm = MockLlmClient(
            {"rules": [{"system_contains": "ONE short phrase",
                        "responses": ["too few words", "still bad"]}]}
        )
        with pytest.raises(PhaseAbortError):
            extract_core_task(DOC, llm)
        assert llm.call_count("ONE short phrase") == 2

    def test_short_phrase_recovered_on_rerequest(self):
        llm = MockLlmClient(
            {"rules": [{"system_contains": "ONE short phrase",
                        "responses": ["too short", self.PHRASE]}]}
        )
        core = extract_core_task(DOC, llm)
        assert core.text == self.PHRASE
        assert "core_task_rerequested" in core.audit_flags

    def test_long_phrase_trimmed_to_15(self):
        llm = MockLlmClient({"default": " ".join(f"word{i}" for i in range(16))})
        core = extract_core_task(DOC, llm)
        assert word_count(core.text) == 15
        assert "core_task_trimmed" in core.audit_flags

    def test_llm_failure_after_retry_aborts_phase(self):
        llm = MockLlmClient({"rules": [{"system_contains": "ONE short phrase", "error": "down"}]})
        with pytest.raises(PhaseAbortError) as exc:
            extract_core_task(DOC, llm)
        assert exc.value.phase == "phase1"


def _contribution_payload(n):
    return {
        "contributions": [
            {
                "name": f"Contribution number {i}",
                "author_claim_text": "we propose something specific",
                "description": "A described intervention.",
                "source_hint": "Abstract",
            }
            for i in range(n)
        ]
    }


class TestExtractContributions:
    def test_three_valid_items_pass_through(self):
        llm = MockLlmClient({"default": _contribution_payload(3)})
        claims, warnings = extract_contributions(DOC, llm)
        assert len(claims) == 3
        assert [c.claim_id for c in claims] == [
            "contribution_1", "contribution_2", "contribution_3",
        ]

    def test_five_items_keep_first_three(self):
        llm = MockLlmClient({"default": _contribution_payload(5)})
        claims, _ = extract_contributions(DOC, llm)
        assert [c.name for c in claims] == [
            "Contribution number 0", "Contribution number 1", "Contribution number 2",
        ]

    def test_fence_wrapped_json_recovered(self):
        llm = MockLlmClient(
            {"default": "```json\n" + json.dumps(_contribution_payload(2)) + "\n```"}
        )
        claims, warnings = extract_contributions(DOC, llm)
        assert len(claims) == 2
        assert any("fallback parse" in w for w in warnings)

    def test_zero_valid_contributions_warns_and_continues(self):
        llm = MockLlmClient({"default": {"contributions": [{"description": "nameless"}]}})
        claims, warnings = extract_contributions(DOC, llm)
        assert claims == []
        assert any("core-task scope only" in w for w in warnings)

    def test_duplicate_names_merged(self):
        payload = _contribution_payload(1)
        payload["contributions"].append(dict(payload["contributions"][0]))
        llm = MockLlmClient({"default": payload})
        claims, warnings = extract_contributions(DOC, llm)
        assert len(claims) == 1
        assert any("duplicate contribution" in w for w in warnings)


def _claim_queries(*numbers):
    return {
        f"contribution_{i}": (
            QUERY_PREFIX + f"topic number {i} details",
            QUERY_PREFIX + f"alternate phrasing {i} one",
            QUERY_PREFIX + f"alternate phrasing {i} two",
        )
        for i in numbers
    }


class TestAssembleQuerySet:
    CORE = (
        "studying a specific problem in context",
        "examining this particular problem setting",
        "analysis of the specific problem class",
    )

    def test_three_claims_give_twelve_queries(self):
        qs, warnings = assemble_query_set(self.CORE, _claim_queries(1, 2, 3))
        assert qs.total == 12 and warnings == []

    def test_one_claim_gives_six_queries(self):
        qs, warnings = assemble_query_set(self.CORE, _claim_queries(1))
        assert qs.total == 6 and warnings == []

    def test_zero_claims_gives_three_with_warning(self):
        qs, warnings = assemble_query_set(self.CORE, {})
        assert qs.total == 3
        assert any("below the 6-12 range" in w for w in warnings)

    def test_scope_kind_and_prefix_rules(self):
        qs, _ = assemble_query_set(self.CORE, _claim_queries(1, 2))
        for q in qs.core_task_queries:
            assert q.scope == "core_task"
            assert not q.text.startswith(QUERY_PREFIX)
        for cid, group in qs.contribution_queries.items():
            roles = [q.query_id.split(":")[1] for q in group]
            assert roles == ["primary", "variant1", "variant2"]
            for q in group:
                assert q.contribution_id == cid
                assert q.scope == "contribution"
                assert q.text.startswith(QUERY_PREFIX)
                assert word_count(q.text) <= 25

    def test_query_ids_are_stable(self):
        qs, _ = assemble_query_set(self.CORE, _claim_queries(1))
        assert [q.query_id for q in qs.core_task_queries] == [
            "core_task:primary", "core_task:variant1", "core_task:variant2",
        ]
        assert [q.query_id for q in qs.contribution_queries["contribution_1"]] == [
            "contribution_1:primary", "contribution_1:variant1", "contribution_1:variant2",
        ]


def _no_variants():
    return MockLlmClient({"default": {"variants": []}})


class TestQueryGeneration:
    def test_variants_strip_prefix_for_core_scope(self):
        llm = MockLlmClient(
            {"default": {"variants": [QUERY_PREFIX + "reworded core topic phrase here"]}}
        )
        queries, _ = expand_query_variants("original core topic phrase", llm, require_prefix=False)
        assert queries[0] == "original core topic phrase"
        assert queries[1] == "reworded core topic phrase here"
        assert len(queries) == 3

    def test_prefix_prepended(self):
        queries, flags = expand_query_variants("RL frameworks for agents", _no_variants(),
                                               require_prefix=True)
        assert queries[0] == "Find papers about RL frameworks for agents"
        assert "query_prefix_added" in flags

    def test_query_truncated_at_25_words(self):
        long_query = QUERY_PREFIX + " ".join(f"w{i}" for i in range(30))
        queries, _ = expand_query_variants(long_query, _no_variants(), require_prefix=True)
        assert word_count(queries[0]) == 25
        assert queries[0].startswith(QUERY_PREFIX)

    def test_variants_coerced_to_three(self):
        llm = MockLlmClient({"default": {"variants": ["another phrasing of the topic"]}})
        queries, _ = expand_query_variants(QUERY_PREFIX + "topic one", llm, require_prefix=True)
        assert len(queries) == 3
        assert queries[0] == QUERY_PREFIX + "topic one"
        assert all(v.startswith(QUERY_PREFIX) for v in queries)

    def test_variant_failure_pads_with_primary(self):
        llm = MockLlmClient({"rules": [{"system_contains": "rewriting", "error": "down"}]})
        queries, flags = expand_query_variants(
            QUERY_PREFIX + "some topic", llm, require_prefix=True
        )
        assert queries == (QUERY_PREFIX + "some topic",) * 3
        assert "variant_generation_failed" in flags

    def test_primary_queries_fall_back_when_missing(self):
        llm = MockLlmClient({"default": {"queries": []}})
        claims = [
            ContributionClaim(claim_id="contribution_1", name="Sparse reward shaping",
                              description="Shaping sparse rewards for control tasks.")
        ]
        queries, warnings = generate_primary_queries(claims, llm)
        assert queries["contribution_1"].startswith(QUERY_PREFIX)
        assert any("fallback query" in w for w in warnings)
