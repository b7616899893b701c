"""Anchor alignment, quote scoring, and similarity segment verification."""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import anchor_case_doc, anchor_case_quote
from noveltycheck import verification
from noveltycheck.papers import normalize_text, preprocess_document
from noveltycheck.verification import (
    _TOKEN_RE,
    _token_positions,
    AnchorMatch,
    Document,
    MIN_ANCHOR_CHARS,
    SimilaritySegment,
    align_anchor,
    combine_score,
    filter_segments,
    hit_floor,
    segment_anchors,
    tokenize,
    verify_quote,
    verify_quote_detailed,
    verify_segment,
)
from oracles import (
    brute_force_coverage,
    every_window_alignment,
    planted_quote_case,
    reference_tokens,
    token_document,
)

DOC_TEXT = (
    "the quick brown fox jumps over the lazy dog while the calm river "
    "carries seven wooden boats toward the distant harbor gates"
)
DOC = Document(DOC_TEXT)

# a few very common tokens, then equally rare ones: a Zipf-like document vocabulary
SKEWED_VOCAB = ["the"] * 12 + ["of"] * 6 + ["and"] * 3 + [f"w{i}" for i in range(8)]
ABSENT = ["x0", "x1"]  # anchor tokens no document holds


class TestTokenize:
    def test_punctuation_boundaries_keep_apostrophes(self):
        assert list(tokenize("The Agent's reward!")) == ["the", "agent's", "reward"]

    def test_empty_text(self):
        assert len(tokenize("")) == 0

    def test_whitespace_runs(self):
        assert list(tokenize("A  B")) == ["a", "b"]

    def test_hyphenated_tokens_stay_whole(self):
        assert list(tokenize("state-of-the-art method")) == ["state-of-the-art", "method"]

    @given(st.text())
    @example("İ")
    @example("ﬁ")
    @example("’")
    @example("–")
    @example("Σ")
    @example("İstanbul’s ﬁne–tuned ΟΔΟΣ Σ")
    # the edges of the whitespace split and its whole-word fast path
    @example("snake_case")
    @example("'tis rock'n'roll a--b end-")
    @example("x² ½")
    @example("naïve")
    @example("e\u0301")
    @example("a\x1cb")  # separators that str.split() splits on
    @example("a\u2028b")
    @example("a\u1680b")
    def test_matches_reference_tokenizer(self, text):
        assert list(tokenize(text)) == reference_tokens(text)


class TestSegmentAnchors:
    def test_short_quote_yields_single_anchor(self):
        anchors = segment_anchors(tokenize("tiny quote"))
        assert len(anchors) == 1

    def test_long_quote_yields_multiple_anchors(self):
        text = "every anchor gathers tokens until twenty characters accumulate here"
        anchors = segment_anchors(tokenize(text))
        assert len(anchors) >= 2
        for anchor in anchors[:-1]:
            assert anchor.char_length >= MIN_ANCHOR_CHARS

    def test_partition_property(self):
        rng = random.Random(11)
        for _ in range(50):
            tokens = [
                "".join(rng.choices("abcdefgh", k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 40))
            ]
            quote = tokenize(" ".join(tokens))
            anchors = segment_anchors(quote)
            flattened = [t for a in anchors for t in a.tokens]
            assert flattened == list(quote)

    def test_tail_merges_into_previous_anchor(self):
        # 20-char group followed by a 3-char remainder
        anchors = segment_anchors(tokenize("abcdef ghijkl mnopqr xyz"))
        assert len(anchors) == 1 or anchors[-1].char_length >= MIN_ANCHOR_CHARS


class TestAlignAnchor:
    def test_verbatim_anchor_full_coverage(self):
        match = align_anchor(["calm", "river", "carries"], DOC)
        assert match.coverage == 1.0 and match.is_hit
        assert match.doc_span is not None

    def test_disjoint_anchor_zero_coverage(self):
        match = align_anchor(["xylophone", "quartz", "nebula"], DOC)
        assert match.coverage == 0.0 and match.doc_span is None and not match.is_hit

    def test_seven_of_ten_tokens_matched(self):
        anchor = [f"tok{i:02d}" for i in range(10)]
        doc = ["aaaa", "bbbb", "cccc"] + anchor[:7] + ["dddd", "eeee", "ffff"]
        match = align_anchor(anchor, token_document(doc))
        assert match.coverage == pytest.approx(0.7)
        # cross-checked against the brute-force all-window oracle
        assert brute_force_coverage(anchor, doc) == pytest.approx(0.7)

    def test_doc_shorter_than_anchor(self):
        match = align_anchor(["a", "b", "c", "d"], token_document(["a", "b"]))
        assert match.coverage == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [500, 4200])
    def test_result_independent_of_document_size(self, n):
        anchor = ["t7", "t0", "t7", "t1", "t4", "t2", "t5"]
        doc = [f"f{i % 50}" for i in range(n)]
        doc[300:309] = ["t0", "t7", "t1", "t0", "t9", "t4", "t2", "t10", "t5"]
        match = align_anchor(anchor, token_document(doc))
        assert match.coverage == pytest.approx(5 / 7)
        assert match.doc_span == (300, 307)
        assert match.is_hit

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(5)
        vocab = [f"v{i}" for i in range(25)]
        for _ in range(150):
            doc = [rng.choice(vocab) for _ in range(rng.randint(5, 120))]
            anchor = [rng.choice(vocab) for _ in range(rng.randint(2, 12))]
            got = align_anchor(anchor, token_document(doc))
            want = brute_force_coverage(anchor, doc)
            assert got.coverage == pytest.approx(want), (anchor, doc)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_min_matched_keeps_reaching_results_and_misses_the_rest(self, seed):
        quote, doc = planted_quote_case(random.Random(seed))
        document = Document(doc)
        for anchor in segment_anchors(tokenize(quote)):
            exact = align_anchor(anchor.tokens, document)
            m = len(anchor.tokens)
            for k in range(m + 1):
                bounded = align_anchor(anchor.tokens, document, min_matched=k)
                if exact.coverage >= k / m:
                    assert bounded == exact, (anchor, k)
                else:
                    assert bounded == AnchorMatch(coverage=0.0, doc_span=None), (anchor, k)

    @given(
        st.lists(st.sampled_from(SKEWED_VOCAB), min_size=1, max_size=60),
        st.lists(st.sampled_from(SKEWED_VOCAB + ABSENT), min_size=1, max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    @example(["the", "w1"], ["w1", "the", "of", "w2"])  # document shorter than the anchor
    @example(["w1", "the", "w2", "the", "w1", "w2"], ["w2", "w1", "the", "w2"])  # rarity ties
    @example(  # the best window starts where an anchor token leaves the one before
        ["the", "the", "of", "the", "the", "of", "and", "the", "and", "of", "of", "the"],
        ["the", "the", "the", "the", "the", "of"],
    )
    def test_every_min_matched_agrees_with_every_window_oracle(self, doc_tokens, anchor):
        coverage, span = every_window_alignment(anchor, doc_tokens)
        best = round(coverage * len(anchor))
        doc = token_document(doc_tokens)
        for k in range(len(anchor) + 1):
            want = AnchorMatch(coverage, span) if best >= k else AnchorMatch(0.0, None)
            assert align_anchor(anchor, doc, min_matched=k) == want, k

    @pytest.mark.parametrize("m, floor", [(2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 5)])
    def test_hit_floor_boundary(self, m, floor):
        assert hit_floor(m) == floor
        anchor = [f"a{i}" for i in range(m)]
        for matched, hit in ((floor, True), (floor - 1, False)):
            doc = token_document(["x"] * 5 + anchor[:matched] + ["y"] * (m - matched) + ["x"] * 5)
            exact = align_anchor(anchor, doc)
            assert exact.coverage == matched / m and exact.is_hit is hit
            bounded = align_anchor(anchor, doc, min_matched=floor)
            assert bounded == (exact if hit else AnchorMatch(coverage=0.0, doc_span=None))


class TestVerifyQuote:
    def test_verbatim_quote_scores_exactly_one(self):
        quote = "the calm river carries seven wooden boats toward the distant harbor"
        loc = verify_quote(quote, DOC)
        assert loc.found and loc.match_score == 1.0

    def test_token_disjoint_quote_scores_zero(self):
        loc = verify_quote("xylophone quartz nebula cascade window", DOC)
        assert not loc.found and loc.match_score == 0.0

    def test_hand_computed_compact_case(self):
        detail = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=True))
        assert [m.coverage for m in detail.anchor_matches] == [1.0, 1.0, 0.5, 0.0]
        assert detail.compact
        assert detail.location.match_score == pytest.approx(0.85, abs=1e-9)
        assert detail.location.found

    def test_hand_computed_non_compact_case(self):
        detail = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=False))
        assert not detail.compact
        assert detail.location.match_score == pytest.approx(0.425, abs=1e-9)
        assert not detail.location.found

    def test_non_compact_is_exactly_half(self):
        compact = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=True))
        spread = verify_quote_detailed(anchor_case_quote(), anchor_case_doc(compact=False))
        assert spread.location.match_score == 0.5 * compact.location.match_score

    def test_span_nested_in_an_earlier_one_keeps_the_quote_compact(self):
        # spans (0, 3), (1, 2), (303, 304): the gap after the furthest end is 300
        y, z, b = "y" * 22, "z" * 22, "b" * 16
        filler = [f"pad{i:04d}" for i in range(300)]
        doc = Document(" ".join(["aa", y, b] + filler + [z]))
        detail = verify_quote_detailed(" ".join(["aa", "xx", b, y, z]), doc)
        assert [m.doc_span for m in detail.anchor_matches] == [(0, 3), (1, 2), (303, 304)]
        assert detail.compact
        assert detail.location.match_score == pytest.approx(0.7 * 8 / 9 + 0.3, abs=1e-9)
        assert detail.location.found

    def test_empty_quote_not_found(self):
        loc = verify_quote("", DOC)
        assert not loc.found and loc.match_score == 0.0

    def test_found_iff_score_above_threshold(self):
        for doc in (DOC, anchor_case_doc(True), anchor_case_doc(False)):
            for quote in (anchor_case_quote(), DOC_TEXT[:40], "unrelated words entirely"):
                loc = verify_quote(quote, doc)
                assert loc.found == (loc.match_score > 0.6)
                assert 0.0 <= loc.match_score <= 1.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_detailed_location_on_planted_copies(self, seed):
        quote, text = planted_quote_case(random.Random(seed))
        doc = Document(text)
        assert verify_quote(quote, doc) == verify_quote_detailed(quote, doc).location

    def test_pretokenized_document_scores_the_same(self):
        shared = Document(DOC_TEXT)
        assert shared.tokens == tokenize(DOC_TEXT)
        for quote in (anchor_case_quote(), DOC_TEXT[:40], "the calm river carries nine boats"):
            assert verify_quote(quote, shared) == verify_quote(quote, Document(DOC_TEXT))

    def test_only_the_document_builds_a_position_index(self, monkeypatch):
        indexed = []
        real = verification._token_positions

        def counting(tokens):
            indexed.append(tuple(tokens))
            return real(tokens)

        monkeypatch.setattr(verification, "_token_positions", counting)
        doc = Document(DOC_TEXT)
        assert indexed == []
        for quote in (anchor_case_quote(), DOC_TEXT[:40], "the calm river carries nine boats"):
            verify_quote(quote, doc)
        assert indexed == [doc.tokens]
        the = tuple(i for i, token in enumerate(doc.tokens) if token == "the")
        assert len(the) == 4 and doc.positions.get("the") == the

    def test_shared_document_index_built_once_across_threads(self, monkeypatch):
        tokenized, indexed = [], []
        tokenize_real, index_real = verification.tokenize, verification._token_positions

        def counting_tokenize(text):
            tokenized.append(1)
            return tokenize_real(text)

        def counting_index(tokens):
            indexed.append(1)
            return index_real(tokens)

        monkeypatch.setattr(verification, "tokenize", counting_tokenize)
        monkeypatch.setattr(verification, "_token_positions", counting_index)
        doc = Document(DOC_TEXT * 50)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                threading.Thread(
                    target=lambda i: seen.append((i, doc.positions if i % 2 else doc.tokens)),
                    args=(i,),
                )
                for i in range(8)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(tokenized) == 1 and len(indexed) == 1
        assert len(seen) == 8
        assert all(got is (doc.positions if i % 2 else doc.tokens) for i, got in seen)

    def test_quote_copied_from_raw_text_with_typographic_characters(self):
        raw = (
            "Intro.\n\nThe agent’s ﬁne-grained reward model is trained end–to–end "
            "on every benchmark we tried.\n"
        )
        doc = preprocess_document(raw, "comparison")
        quote = "The agent’s ﬁne-grained reward model is trained end–to–end"
        assert quote in doc
        loc = verify_quote(quote, Document(doc))
        assert loc.found and loc.match_score == 1.0

    def test_verbatim_substrings_of_fixture_doc(self, fixtures_dir):
        doc = Document(preprocess_document(
            (fixtures_dir / "target_paper.txt").read_text(encoding="utf-8"), "comparison"
        ))
        normalized = normalize_text(doc.text)
        spans = [m.span() for m in _TOKEN_RE.finditer(normalized)]
        rng = random.Random(19)
        for _ in range(100):
            i = rng.randrange(len(spans) - 8)
            j = i + rng.randint(4, 8)
            sub = normalized[spans[i][0] : spans[j - 1][1]]
            if len(sub) < 20:
                continue
            loc = verify_quote(sub, doc)
            assert loc.found and loc.match_score == 1.0, sub


class TestTokenPositions:
    @given(st.lists(st.sampled_from(["the", "of", "a", "w1", "w2"]), max_size=80), st.randoms())
    def test_equals_the_eager_index(self, tokens, rng):
        tokens = tuple(tokens)
        eager: dict[str, list[int]] = {}
        for i, token in enumerate(tokens):
            eager.setdefault(token, []).append(i)
        positions = _token_positions(tokens)
        assert positions.counts == Counter(tokens)
        # read in any order: each token's positions are found on its first read
        for token in rng.sample(sorted(eager), len(eager)):
            assert positions.get(token) == tuple(eager[token])
        # read again, now that each token's positions are kept
        assert {token: positions.get(token) for token in eager} == {
            token: tuple(p) for token, p in eager.items()
        }
        assert positions.get("absent") == () and positions.counts["absent"] == 0


class TestSharedDocument:
    def test_quotes_verified_across_threads_equal_a_fresh_document(self):
        doc = Document(DOC_TEXT * 20)
        quotes = [DOC_TEXT[:40], "the calm river carries nine boats"]
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                threading.Thread(target=lambda i: seen.append((
                    i, verify_quote(quotes[i % 2], doc), verify_quote_detailed(quotes[i % 2], doc)
                )), args=(i,))
                for i in range(8)
            ]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(seen) == 8
        for i, location, detailed in seen:
            fresh = Document(DOC_TEXT * 20)
            assert location == verify_quote(quotes[i % 2], fresh)
            assert detailed == verify_quote_detailed(quotes[i % 2], fresh)
            assert location == detailed.location


class TestCombineScore:
    @given(
        st.floats(min_value=0.6, max_value=1.0),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    def test_score_in_unit_interval(self, coverage, hits, misses):
        total = hits + misses
        mean = coverage if hits else 0.0
        score = combine_score(mean, hits / total, True)
        assert 0.0 <= score <= 1.0

    @given(
        st.lists(st.floats(min_value=0.6, max_value=1.0), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.6, max_value=1.0),
    )
    def test_adding_hit_at_or_above_mean_never_decreases(self, hits, misses, new_cov):
        n = len(hits) + misses
        mean = sum(hits) / len(hits)
        before = combine_score(mean, len(hits) / n, True)
        new_cov = max(new_cov, mean)
        after_mean = (sum(hits) + new_cov) / (len(hits) + 1)
        after = combine_score(after_mean, (len(hits) + 1) / (n + 1), True)
        assert after >= before - 1e-12

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_non_compact_penalty_exact(self, mean, ratio):
        assert combine_score(mean, ratio, False) == 0.5 * combine_score(mean, ratio, True)


def _segment(original, candidate, **kwargs):
    return SimilaritySegment(
        segment_id=kwargs.get("segment_id", 1),
        location=kwargs.get("location", "unknown"),
        original_text=original,
        candidate_text=candidate,
        segment_type=kwargs.get("segment_type", "Direct"),
        rationale="overlap",
        verified=kwargs.get("verified", False),
    )


class TestVerifySegment:
    PASSAGE_35 = (
        "this exact block of thirty five words appears in both documents so the "
        "similarity detector should accept it once the anchor alignment confirms "
        "the text on both sides of the comparison pipeline"
    )

    def test_35_word_verbatim_overlap_verified(self):
        seg = verify_segment(
            _segment(self.PASSAGE_35, self.PASSAGE_35),
            Document("intro. " + self.PASSAGE_35 + " more text."),
            Document("other paper text. " + self.PASSAGE_35 + " trailing words."),
        )
        assert seg.verified
        assert seg.original_location.found and seg.candidate_location.found

    def test_29_word_overlap_rejected(self):
        words = " ".join(f"word{i:02d}" for i in range(29))
        seg = verify_segment(_segment(words, words), Document(words), Document(words))
        assert seg.min_word_count == 29
        assert not seg.verified

    def test_candidate_side_failure_rejects(self):
        seg = verify_segment(
            _segment(self.PASSAGE_35, self.PASSAGE_35),
            Document(self.PASSAGE_35),
            Document("entirely different content with no overlap at all in this document"),
        )
        assert not seg.verified

    def test_symmetric_under_swap(self):
        rng = random.Random(23)
        vocab = [f"tok{i:02d}" for i in range(60)]
        for _ in range(30):
            text_a = Document(" ".join(rng.choices(vocab, k=60)))
            text_b = Document(" ".join(rng.choices(vocab, k=60)))
            quote_a = " ".join(rng.choices(vocab, k=rng.randint(25, 40)))
            quote_b = " ".join(rng.choices(vocab, k=rng.randint(25, 40)))
            forward = verify_segment(_segment(quote_a, quote_b), text_a, text_b)
            swapped = verify_segment(_segment(quote_b, quote_a), text_b, text_a)
            assert forward.verified == swapped.verified


class TestFilterSegments:
    def _with_counts(self, counts):
        return [
            _segment(" ".join(["w"] * c), " ".join(["w"] * c), segment_id=i, verified=True)
            for i, c in enumerate(counts, start=1)
        ]

    def test_top_three_by_word_count(self):
        kept = filter_segments(self._with_counts([80, 60, 45, 33, 31]))
        assert [s.min_word_count for s in kept] == [80, 60, 45]

    def test_two_segments_kept(self):
        kept = filter_segments(self._with_counts([40, 35]))
        assert len(kept) == 2

    def test_stable_on_ties(self):
        kept = filter_segments(self._with_counts([50, 40, 40, 40]))
        assert [s.segment_id for s in kept] == [1, 2, 3]
