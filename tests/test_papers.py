"""Identity, quality-flag, date-inference, and preprocessing behavior."""

import itertools

import pytest
from hypothesis import given, strategies as st

from noveltycheck.clients import MockLlmClient
from noveltycheck.codec import decode, encode
from noveltycheck.errors import InvalidInputError
from noveltycheck.papers import (
    MAX_DOCUMENT_CHARS,
    PaperRecord,
    PublicationDate,
    QualityFlag,
    VerificationVerdict,
    canonical_id_of,
    compute_quality_flag,
    infer_publication_date,
    normalize_title,
    preprocess_document,
)
from noveltycheck.verification import tokenize
from oracles import ASSESSMENTS, flag_oracle


class TestNormalizeTitle:
    def test_rule_application(self):
        assert normalize_title("AgentGym-RL:  Training LLM Agents") == (
            "agentgym-rl: training llm agents"
        )

    def test_fixed_point(self):
        assert normalize_title("abc") == "abc"

    def test_whitespace_collapse(self):
        assert normalize_title("  A\tB  ") == "a b"

    def test_surrounding_punctuation_stripped(self):
        assert normalize_title("  'Quoted Title!' ") == "quoted title"

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize_title("   ")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, title):
        once = normalize_title(title)
        if once:
            assert normalize_title(once) == once


class TestCanonicalId:
    def test_priority_order(self):
        cid = canonical_id_of({"doi": "10.1/x", "arxiv_id": "2403.1", "title": "T"})
        assert cid == "doi:10.1/x"

    def test_title_hash_fallback(self):
        cid = canonical_id_of({"title": "T"})
        # MD5 of the normalized title "t"
        assert cid == "title-hash:e358efa489f58062f10dd7316b65649e"

    def test_equal_normalized_titles_equal_ids(self):
        a = canonical_id_of({"title": "A B"})
        b = canonical_id_of({"title": "a  b"})
        assert a == b
        # frozen via a standard MD5 oracle over "a b"
        assert a == "title-hash:0cc9cd4dd26c5137b675a0d819cb9ab0"

    def test_unknown_scheme_keys_ignored(self):
        cid = canonical_id_of({"pubmed_id": "123", "title": "T"})
        assert cid == "title-hash:e358efa489f58062f10dd7316b65649e"

    def test_openreview_between_arxiv_and_hash(self):
        cid = canonical_id_of({"openreview_id": "xYz", "title": "T"})
        assert cid == "openreview:xYz"

    def test_doi_and_arxiv_normalization(self):
        assert canonical_id_of({"doi": "https://doi.org/10.1/X", "title": "T"}) == "doi:10.1/x"
        assert canonical_id_of({"arxiv_id": "arXiv:2403.1v2", "title": "T"}) == "arxiv:2403.1"

    def test_empty_title_rejected(self):
        with pytest.raises(InvalidInputError):
            canonical_id_of({"doi": "10.1/x", "title": " "})

    @pytest.mark.parametrize("cid", ["isbn:123", "doi"])
    def test_record_refuses_unknown_scheme(self, cid):
        # a resume decodes each stored id through this check
        with pytest.raises(InvalidInputError, match="unknown canonical id scheme"):
            PaperRecord(canonical_id=cid, title="T")


class TestQualityFlag:
    def test_all_support_is_perfect(self):
        verdict = VerificationVerdict.from_pairs([("time", "support"), ("topic", "support")])
        assert compute_quality_flag(verdict) is QualityFlag.PERFECT

    def test_single_somewhat_support_is_partial(self):
        verdict = VerificationVerdict.from_pairs([("topic", "somewhat_support")])
        assert compute_quality_flag(verdict) is QualityFlag.PARTIAL

    def test_time_only_positives_are_no(self):
        verdict = VerificationVerdict.from_pairs(
            [("time", "support"), ("time", "somewhat_support")]
        )
        assert compute_quality_flag(verdict) is QualityFlag.NO

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_quality_flag(VerificationVerdict(criteria=()))

    def test_exhaustive_against_truth_table(self):
        pairs = [(t, a) for t in ("time", "topic") for a in ASSESSMENTS]
        for n in (1, 2, 3):
            for combo in itertools.product(pairs, repeat=n):
                got = compute_quality_flag(VerificationVerdict.from_pairs(list(combo)))
                assert got.value == flag_oracle(list(combo)), combo


class TestPublicationDate:
    def test_granularity_tracks_fields(self):
        assert PublicationDate(2024).granularity == "year"
        assert PublicationDate(2024, 3).granularity == "year-month"
        assert PublicationDate(2024, 3, 15).granularity == "year-month-day"

    def test_day_without_month_rejected(self):
        with pytest.raises(InvalidInputError):
            PublicationDate(2024, None, 5)

    def test_definitely_after_is_conservative(self):
        target = PublicationDate(2024, 3)
        assert not PublicationDate(2024).definitely_after(target)
        assert PublicationDate(2024, 4).definitely_after(target)
        assert not PublicationDate(2024, 3, 31).definitely_after(target)
        assert PublicationDate(2025).definitely_after(target)


class TestInferPublicationDate:
    def test_arxiv_url_tier(self):
        date = infer_publication_date(url="https://arxiv.org/abs/2403.12345")
        assert (date.year, date.month, date.granularity, date.source_tier) == (
            2024, 3, "year-month", "url",
        )

    def test_front_matter_iso_full(self):
        date = infer_publication_date(front_matter="Published 2024-03-15")
        assert (date.year, date.month, date.day) == (2024, 3, 15)
        assert date.granularity == "year-month-day"

    def test_exhausted_tiers_returns_none(self):
        assert infer_publication_date(front_matter="no usable information") is None

    def test_month_name_pattern(self):
        date = infer_publication_date(front_matter="Presented in March 2024 at the venue")
        assert (date.year, date.month, date.granularity) == (2024, 3, "year-month")

    def test_bare_year(self):
        date = infer_publication_date(front_matter="Proceedings of the 2019 meeting")
        assert (date.year, date.month, date.granularity) == (2019, None, "year")

    def test_old_style_arxiv_identifier(self):
        date = infer_publication_date(url="https://arxiv.org/abs/hep-th/9901001")
        assert (date.year, date.month) == (1999, 1)

    def test_malformed_url_skipped_not_fatal(self):
        date = infer_publication_date(url="https://arxiv.org/abs/9999", front_matter="May 2021")
        assert (date.year, date.month) == (2021, 5)

    def test_url_tier_wins_over_front_matter(self):
        date = infer_publication_date(
            url="https://arxiv.org/abs/2403.12345", front_matter="January 1990"
        )
        assert (date.year, date.month, date.source_tier) == (2024, 3, "url")

    def test_llm_tier(self):
        llm = MockLlmClient({"rules": [{"system_contains": "publication date", "response": "2022-11"}]})
        date = infer_publication_date(front_matter="nothing parseable here", llm=llm)
        assert (date.year, date.month, date.source_tier) == (2022, 11, "llm")

    def test_no_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            infer_publication_date()


class TestPreprocessDocument:
    def test_truncates_at_references_heading(self):
        text = ("x" * 999) + "\nReferences\n[1] something"
        doc = preprocess_document(text, "extraction")
        assert len(doc) == 1000

    def test_hard_cap_at_200k(self):
        doc = preprocess_document("word " * 60_000, "extraction")
        assert len(doc) == MAX_DOCUMENT_CHARS

    def test_comparison_removes_acknowledgements(self):
        text = (
            "Intro text here.\n\nAcknowledgements\nWe thank everyone deeply.\n\n"
            "Appendix A\nMore content.\n"
        )
        doc = preprocess_document(text, "comparison")
        assert "thank" not in doc
        assert "More content." in doc

    def test_extraction_keeps_acknowledgements(self):
        text = "Intro.\n\nAcknowledgements\nWe thank everyone.\n"
        doc = preprocess_document(text, "extraction")
        assert "thank" in doc

    def test_bibliography_and_numbered_headings_match(self):
        assert preprocess_document("abc\n7. Bibliography\nzzz", "extraction") == "abc\n"
        assert preprocess_document("abc\n# References\nzzz", "extraction") == "abc\n"

    def test_idempotent_on_own_output(self):
        text = "Title\n\nBody text here.\nAcknowledgements\nThanks.\nReferences\n[1] x"
        once = preprocess_document(text, "comparison")
        twice = preprocess_document(once, "comparison") if once else once
        assert twice == once

    def test_normalized_form(self):
        doc = preprocess_document("AbC   DeF\n\nGhI", "extraction")
        assert doc == "AbC   DeF\n\nGhI"
        assert tokenize(doc) == ("abc", "def", "ghi")

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            preprocess_document("", "extraction")

    def test_unknown_purpose_rejected(self):
        with pytest.raises(InvalidInputError):
            preprocess_document("text", "summarization")


class TestPaperRecord:
    def test_relevance_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            PaperRecord(
                canonical_id=canonical_id_of({"title": "T"}), title="T", relevance_score=1.5
            )

    def test_round_trip(self):
        record = PaperRecord(
            canonical_id=canonical_id_of({"arxiv_id": "2401.1", "title": "T"}),
            title="T",
            abstract="A",
            url="https://example.org",
            relevance_score=0.4,
            publication_date=PublicationDate(2024, 1),
            quality_flag=QualityFlag.PERFECT,
        )
        assert decode(PaperRecord, encode(record)) == record
